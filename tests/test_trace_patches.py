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
from adarc import ScenarioSpec, TrainConfig, run_scenario  # noqa: E402


def test_instrument_finds_every_layer_function():
    with instrument(Tracer()):
        pass


def test_traced_scenario_counts_both_overlapped_draws():
    # The source and target graphs are drawn on two threads at once; the
    # single-threaded tracer must still see two draws under the op.
    tracer = Tracer()
    spec = ScenarioSpec("homo2hetero", n=200, dim=16)
    with instrument(tracer), tracer.span(OP):
        run_scenario(spec, seeds=(0,), train_config=TrainConfig(epochs=2, patience=2))
    metrics = layer_metrics(tracer)
    assert metrics["csbm.generate.calls"] == 2
    assert metrics["csbm.generate.self_ms"] > 0
    assert 0 <= metrics["untraced.share"] <= 1
