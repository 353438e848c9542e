"""The benchmark's tracer still finds every layer function it wraps.

``perfbench.tracing.instrument`` replaces each layer function in every module
that imports it by name, and raises ``LookupError`` when one of those names
is gone; this keeps that contract under the lab's own tests.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import OP, Tracer, instrument, layer_metrics  # noqa: E402

# ``instrument`` checks each importing module after it has wrapped the home
# module, so an importer first imported inside it would bind the wrapper and
# fail the check; import them all up front.
import adarc.cli  # noqa: E402,F401
from adarc import (  # noqa: E402
    ScenarioSpec,
    TrainConfig,
    attach_split_masks,
    generate,
    preset_params,
    pretrain_on,
    run_scenario,
    save_checkpoint,
    write_dataset,
)


def test_instrument_finds_every_layer_function():
    with instrument(Tracer()):
        pass


def test_traced_scenario_counts_both_draws():
    # Each seed draws its source, pretrains and then draws its target; the
    # tracer must see both draws under the op.
    tracer = Tracer()
    spec = ScenarioSpec("homo2hetero", n=200, dim=16)
    with instrument(tracer), tracer.span(OP):
        run_scenario(spec, seeds=(0,), train_config=TrainConfig(epochs=2, patience=2))
    metrics = layer_metrics(tracer)
    assert metrics["csbm.generate.calls"] == 2
    assert metrics["csbm.generate.self_ms"] > 0
    # Pretraining builds no hop stack; only erm+adarc featurizes the target.
    assert metrics["model.featurize_hops.calls"] == 1
    assert 0 <= metrics["untraced.share"] <= 1


def test_traced_adapt_cli_reads_the_target_once(tmp_path):
    # ``adarc adapt`` reads its target through the ``read_dataset`` that the
    # tracer wraps in ``cli``; the streamed reader must still show up there.
    params = {"n": 200, "dim": 16}
    source = attach_split_masks(
        generate(preset_params("high2low", "source", seed=0, **params)), seed=1
    )
    model, _ = pretrain_on(source, TrainConfig(epochs=2, patience=2))
    save_checkpoint(model, tmp_path / "m.ckpt")
    target = generate(preset_params("high2low", "target", seed=1, **params))
    write_dataset(target, tmp_path / "t")
    tracer = Tracer()
    argv = [
        "adapt", "--ckpt", str(tmp_path / "m.ckpt"), "--data", str(tmp_path / "t"),
        "--epochs", "2", "--out", str(tmp_path / "adapt.json"),
    ]
    with instrument(tracer), tracer.span(OP):
        assert adarc.cli.main(argv) == 0
    metrics = layer_metrics(tracer)
    assert metrics["io.read_dataset.calls"] == 1
    assert metrics["io.read_dataset.self_ms"] > 0
