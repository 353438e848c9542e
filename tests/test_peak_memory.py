"""Peak-memory budgets: a run holds its f32 feature matrices plus a few columns.

No run holds a (K+1)×N×(H+1) hop stack: featurization, adaptation and
pretraining predict, then propagate. ``run_scenario``, ``sweep`` and ``adarc
generate`` hold one feature matrix at a time.

Each bound is in units of the run's own arrays: the f32 feature matrix and
"columns", N×(H+1) f64 arrays; a hop stack is K+1 = 10 columns. Features read
from disk are mapped pages, which ``tracemalloc`` does not trace; each pass
over them releases the pages it has read, so a read dataset keeps about one row
block of ``features.bin`` resident (``tests/test_io.py`` reads that from
``/proc/self/smaps``). The slack above the budget comes from the traced peaks
measured at these sizes (numpy 2.4.6), written next to each bound; each bound
is below the peak of a run that holds a hop stack, a second seed's data or an
f64 copy of its features.
"""

from __future__ import annotations

import contextlib
import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adarc import (
    AdaptConfig,
    ScenarioSpec,
    TrainConfig,
    PropagationOperator,
    cli,
    featurize_hops,
    generate,
    init_model,
    preset_params,
    pretrain_on,
    run_scenario,
    save_checkpoint,
    sweep,
    train_source,
    write_dataset,
)

N, D, H, K = 2000, 16, 32, 9
COLUMN = N * (H + 1) * 8
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
    spec = ScenarioSpec("high2low", n=N, dim=D)
    return spec.draw("source", 0), spec.draw("target", 0)


@pytest.fixture(scope="module")
def adapt_inputs(high2low, tmp_path_factory):
    """A directory holding a pretrained ``model.ckpt`` and the ``target`` dataset."""
    source, target = high2low
    root = tmp_path_factory.mktemp("peak")
    model, _ = pretrain_on(source, TRAIN)
    save_checkpoint(model, root / "model.ckpt")
    write_dataset(target, root / "target")
    return root


def test_featurize_hops_holds_no_stack(high2low):
    _, target = high2low
    model = init_model(D, H, target.num_classes, K, seed=TRAIN.seed)
    op = PropagationOperator(target.graph, model.prop_mode)
    cache, peak = traced_peak(lambda: featurize_hops(model, target, op))
    assert cache.hop0.shape == (N, H + 1)
    # Measured: 2.10 columns, [X̂ | 1] and the transient square of X̂ in its
    # variance, then the (K+1)×N×C class scores. 11.0 while the cache was a
    # hop stack.
    assert peak <= 2.5 * COLUMN


# The read target's features are mapped pages of ``features.bin``, which are
# not traced; the run keeps about one row block of them resident. Measured:
# 3.46 (erm), 3.30 (tent) and 3.28 (t3a) columns, with [X̂ | 1], the class
# scores and, while the hop moments are built, two (K+1)×N arrays; each bound
# is less than a copy of the f32 features (0.24 columns) above that. Features
# read into an allocated matrix added 3.53, 3.38 and 3.36 columns to it; a hop
# stack read 12.43, 12.28 and 12.26, and 23.0 to 25.0 while the
# pre-adaptation stack was still held.
ADAPT_COLUMNS = {"erm": 3.55, "tent": 3.50, "t3a": 3.49}


@pytest.mark.parametrize("variant", ["erm", "tent", "t3a"])
def test_cli_adapt_holds_the_features_and_a_few_columns(adapt_inputs, variant):
    argv = [
        "adapt", "--ckpt", str(adapt_inputs / "model.ckpt"),
        "--data", str(adapt_inputs / "target"), "--base-tta", variant,
        "--out", str(adapt_inputs / f"{variant}.json"),
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code, peak = traced_peak(lambda: cli.main(argv))
    assert code == 0, sink.getvalue()
    assert peak <= ADAPT_COLUMNS[variant] * COLUMN


def test_train_source_holds_no_stack(high2low):
    source, _ = high2low
    model = init_model(D, H, source.num_classes, K, seed=TRAIN.seed)
    (_, history), peak = traced_peak(lambda: train_source(model, source, TRAIN))
    assert len(history) == TRAIN.epochs
    # Measured: 2.96 columns, with backward_ce propagating N×C class scores.
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

    # A sweep of two groups (K=2 and K=3) over two seeds draws four times.
    arms = [(f"K={k}", spec, replace(train, num_hops=k), AdaptConfig()) for k in (2, 3)]
    reports, two_groups = traced_peak(lambda: sweep(arms, ("erm", "erm+adarc"), (0, 1)))
    assert [len(r.per_seed["erm+adarc"]) for r in reports] == [2, 2]
    one, three = run((0,)), run((0, 1, 2))
    # Measured: 2.78 MB for both and 2.81 MB for the sweep (a 1.6 MB f32
    # feature matrix per graph, so a second target held would show). Holding
    # the previous seed's graphs while the next one drew read 12.76 MB with
    # f64 features.
    assert three <= one + spec.n * spec.dim * 4 // 4
    assert two_groups <= one + spec.n * spec.dim * 4 // 4


def test_run_scenario_holds_one_feature_matrix():
    spec = ScenarioSpec("homo2hetero", n=200, dim=2000)
    train = TrainConfig(epochs=2, patience=2, hidden=8, num_hops=2)
    report, peak = traced_peak(
        lambda: run_scenario(spec, ("erm", "erm+adarc"), (0,), train)
    )
    assert len(report.per_seed["erm+adarc"]) == 1
    # Measured: 2.78 MB, the 1.6 MB matrix and generate's f64 noise block.
    # Drawing the target while the source was held read 5.54 MB.
    assert peak <= 2 * spec.n * spec.dim * 4


@pytest.mark.parametrize("role", ["source", "target", "both"])
def test_cli_generate_holds_one_feature_matrix(tmp_path, role):
    n, dim = 200, 2000
    argv = ["generate", "--role", role, "--n", str(n), "--dim", str(dim)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code, peak = traced_peak(lambda: cli.main([*argv, "--out", str(tmp_path)]))
    assert code == 0, sink.getvalue()
    # Measured: 2.69 (source), 2.72 (target) and 2.70 MB (both), a 1.6 MB
    # f32 matrix and generate's f64 noise block. Drawing both graphs for any
    # role, and holding the source while the target drew, read 4.51 MB.
    assert peak <= 2 * n * dim * 4


def test_generate_holds_one_f32_matrix():
    n, dim = 2000, 1000
    params = preset_params("homo2hetero", "target", seed=0, n=n, dim=dim)
    dataset, peak = traced_peak(lambda: generate(params))
    assert dataset.features.dtype == np.float32
    # Measured 1.26 MiB above the 8 MB matrix: an f64 noise block (at most
    # 1 MiB) and the edges. Holding the last noise block through the graph
    # build read 1.77 MiB above; drawing the noise as one f64 matrix and
    # rounding it read 8.39 MiB above.
    assert peak <= n * dim * 4 + 2 * 2**20
