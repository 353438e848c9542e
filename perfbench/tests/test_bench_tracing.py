import importlib

import pytest

from perfbench import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("op") as op:
        clock.advance(1.0)
        with tracer.span("adapt.adapt") as outer:
            clock.advance(2.0)
            with tracer.span("model.featurize_hops") as inner:
                clock.advance(4.0)
                with tracer.span("graph.apply") as leaf:
                    clock.advance(8.0)
            clock.advance(16.0)
        with tracer.span("graph.apply") as sibling:
            clock.advance(32.0)
    assert leaf.self_seconds == 8.0
    assert inner.seconds == 12.0 and inner.self_seconds == 4.0
    assert outer.seconds == 30.0 and outer.self_seconds == 18.0
    assert sibling.self_seconds == 32.0
    assert op.seconds == 63.0 and op.self_seconds == 1.0
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 2, 0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with pytest.raises(RuntimeError):
        with tracer.span("op"):
            with tracer.span("graph.apply"):
                clock.advance(1.0)
                raise RuntimeError("boom")
    op, apply = tracer.spans
    assert apply.seconds == 1.0 and op.child_seconds == 1.0
    with tracer.span("op") as again:
        pass
    assert again.parent == -1


def test_layer_metrics_per_op_and_shares():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    with tracer.span("graph.apply"):  # outside any op: ignored
        clock.advance(100.0)
    for _ in range(2):
        with tracer.span("op"):
            clock.advance(0.5)
            with tracer.span("pretrain.train_source"):
                for _ in range(2):
                    with tracer.span("model.backward_ce"):
                        with tracer.span("graph.apply_t", bytes=1_000_000):
                            clock.advance(1.0)
                        clock.advance(0.5)
            with tracer.span("tta.base_predict", variant="tent"):
                clock.advance(0.5)
    metrics = tracing.layer_metrics(tracer)
    # Per op: 0.5 untraced + 2 x (1.0 apply_t + 0.5 backward) + 0.5 tta = 4.0 s.
    assert metrics["graph.apply.calls"] == 0.0
    assert metrics["graph.apply_t.calls"] == 2.0
    assert metrics["graph.apply_t.self_ms"] == pytest.approx(2000.0)
    assert metrics["graph.apply_t.share"] == pytest.approx(0.5)
    assert metrics["model.backward_ce.self_ms"] == pytest.approx(1000.0)
    assert metrics["pretrain.train_source.self_ms"] == pytest.approx(0.0)
    assert metrics["pretrain.epoch_ms"] == pytest.approx(1500.0)
    assert metrics["adapt.epoch_ms"] == 0.0
    assert metrics["tta.tent.ms"] == pytest.approx(500.0)
    assert metrics["tta.erm.ms"] == 0.0
    assert metrics["graph.apply.mb_computed"] == pytest.approx(2.0)
    assert metrics["untraced.share"] == pytest.approx(0.125)
    shares = sum(metrics[f"{name}.share"] for name in tracing.LAYERS)
    assert shares + metrics["untraced.share"] == pytest.approx(1.0)


def test_layer_metrics_needs_an_op():
    with pytest.raises(ValueError):
        tracing.layer_metrics(tracing.Tracer())


def test_instrument_patches_every_copy_and_restores():
    # importlib, because the package attribute ``adarc.adapt`` is the function.
    names = ("model", "pretrain", "adapt", "harness", "cli")
    copies = [importlib.import_module(f"adarc.{name}") for name in names]
    operator = importlib.import_module("adarc.graph").PropagationOperator
    original = copies[0].featurize_hops
    original_apply = operator.apply
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        wrapped = {module.featurize_hops for module in copies}
        assert len(wrapped) == 1 and original not in wrapped
        assert operator.apply is not original_apply
    assert all(module.featurize_hops is original for module in copies)
    assert operator.apply is original_apply


def test_instrument_refuses_a_copy_that_is_not_the_original(monkeypatch):
    cli = importlib.import_module("adarc.cli")
    model = importlib.import_module("adarc.model")
    original = model.featurize_hops
    monkeypatch.setattr(cli, "read_dataset", lambda *args, **kwargs: None)
    with pytest.raises(LookupError, match="adarc.cli.read_dataset"):
        with tracing.instrument(tracing.Tracer()):
            pass
    assert model.featurize_hops is original


def test_instrument_refuses_a_missing_function(monkeypatch):
    losses = importlib.import_module("adarc.losses")
    monkeypatch.delattr(losses, "surrogate_loss_and_grad_gamma")
    with pytest.raises(LookupError, match="losses.surrogate"):
        with tracing.instrument(tracing.Tracer()):
            pass


def test_apply_bytes():
    # indptr (N+1), indices (nnz), gathered nnz x cols, output N x cols; 8 B each.
    assert tracing.apply_bytes(nnz=10, rows=4, cols=3) == 8 * (5 + 10 + 30 + 12)
