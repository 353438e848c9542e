"""Peak-memory budgets: a run holds its f32 feature matrices plus one hop stack.

Pretraining holds no stack, and ``run_scenario`` one feature matrix at a time.

Each bound is in units of the run's own arrays: the f32 feature matrix, the
(K+1)×N×(H+1) f64 hop stack and "columns", N×(H+1) f64 arrays. The slack
above the budget comes from the traced peaks measured at these sizes (numpy
2.4.6), written next to each bound; each bound is below the peak of a run that
holds a second stack, a second seed's data or an f64 copy of its features.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from adarc import (
    ScenarioSpec,
    TrainConfig,
    build_scenario_datasets,
    cli,
    generate,
    init_model,
    preset_params,
    pretrain_on,
    run_scenario,
    save_checkpoint,
    train_source,
    write_dataset,
)

N, D, H, K = 2000, 16, 32, 9
COLUMN = N * (H + 1) * 8
STACK = (K + 1) * COLUMN
FEATURES = N * D * 4
TRAIN = TrainConfig(epochs=5, patience=5, hidden=H, num_hops=K, learning_rate=2.0, seed=1)


def traced_peak(fn):
    """``fn()``'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def high2low():
    """(source with masks, target) of one high2low seed at N=2000, D=16."""
    return build_scenario_datasets(ScenarioSpec("high2low", n=N, dim=D), 0)


@pytest.fixture(scope="module")
def adapt_inputs(high2low, tmp_path_factory):
    """A directory holding a pretrained ``model.ckpt`` and the ``target`` dataset."""
    source, target = high2low
    root = tmp_path_factory.mktemp("peak")
    model, _ = pretrain_on(source, TRAIN)
    save_checkpoint(model, root / "model.ckpt")
    write_dataset(target, root / "target")
    return root


# Measured above f32 features + one stack: 2.43 (erm), 2.28 (tent) and 2.26
# (t3a) columns, each bound 0.4 above. While erm and t3a built Z = mix·A they
# read 2.87 and 3.13 (3.11 and 3.37 with f64 features), and t3a 4.07 while it
# built the N×C×H distance array. Before tent stepped in logit space it read
# 4.10, and 4.92 while its affine step held a product array beside ∂H̄/∂Z.
# Every variant read 13.0 to 15.0 while the pre-adaptation stack was held.
ADAPT_COLUMNS = {"erm": 2.83, "tent": 2.7, "t3a": 2.66}


@pytest.mark.parametrize("variant", ["erm", "tent", "t3a"])
def test_cli_adapt_holds_the_features_and_one_stack(adapt_inputs, variant):
    argv = [
        "adapt", "--ckpt", str(adapt_inputs / "model.ckpt"),
        "--data", str(adapt_inputs / "target"), "--base-tta", variant,
        "--out", str(adapt_inputs / f"{variant}.json"),
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0, sink.getvalue()
    assert peak <= FEATURES + STACK + ADAPT_COLUMNS[variant] * COLUMN


def test_train_source_holds_no_stack(high2low):
    source, _ = high2low
    model = init_model(D, H, source.num_classes, K, seed=TRAIN.seed)
    (_, history), peak = traced_peak(lambda: train_source(model, source, TRAIN))
    assert len(history) == TRAIN.epochs
    # Measured: 3.01 columns, with backward_ce propagating N×C class scores.
    # 15.1 while each epoch built a stack (10 columns) and propagated ∂L/∂Z;
    # 23.2 while the previous epoch's stack was still held.
    assert peak <= 4 * COLUMN


def test_run_scenario_releases_each_seed_before_the_next():
    spec = ScenarioSpec("homo2hetero", n=200, dim=2000)
    train = TrainConfig(epochs=2, patience=2, hidden=8, num_hops=2)

    def run(seeds):
        report, peak = traced_peak(
            lambda: run_scenario(spec, ("erm", "erm+adarc"), seeds, train)
        )
        assert len(report.per_seed["erm+adarc"]) == len(seeds)
        return peak

    one, three = run((0,)), run((0, 1, 2))
    # Measured: 2.96 MB for both (a 1.6 MB f32 feature matrix per graph).
    # Holding the previous seed's graphs while the next one drew read 12.76 MB
    # with f64 features.
    assert three <= one + spec.n * spec.dim * 4 // 4


def test_run_scenario_holds_one_feature_matrix():
    spec = ScenarioSpec("homo2hetero", n=200, dim=2000)
    train = TrainConfig(epochs=2, patience=2, hidden=8, num_hops=2)
    report, peak = traced_peak(
        lambda: run_scenario(spec, ("erm", "erm+adarc"), (0,), train)
    )
    assert len(report.per_seed["erm+adarc"]) == 1
    # Measured: 2.96 MB, the 1.6 MB matrix and generate's f64 noise block.
    # Drawing the target while the source was held read 5.54 MB.
    assert peak <= 2 * spec.n * spec.dim * 4


def test_generate_holds_one_f32_matrix():
    n, dim = 2000, 1000
    params = preset_params("homo2hetero", "target", seed=0, n=n, dim=dim)
    dataset, peak = traced_peak(lambda: generate(params))
    assert dataset.features.dtype == np.float32
    # Measured 1.77 MiB above the 8 MB matrix: the 1 MiB f64 noise block, the
    # edges and the graph. Drawing the noise as one f64 matrix and rounding it
    # read 8.39 MiB above.
    assert peak <= n * dim * 4 + 2 * 2**20
