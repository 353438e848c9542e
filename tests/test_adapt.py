"""Outer adaptation loop: stepping, tracing, ablations, convergence report."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from adarc import (
    AdaptConfig,
    AdaptationDivergedError,
    BaseTtaKind,
    EpochRecord,
    PropagationOperator,
    adapt,
    base_predict,
    convergence_report,
    featurize_hops,
    surrogate_loss_and_grad_gamma,
)
from adarc.adapt import ABLATION_NAMES
from adarc.tta import tent_lite

STATIC_PARAMS = ("W1", "b1", "scale", "shift", "W_cls", "b_cls")


def run(tiny_model, tiny_target, **overrides):
    op = PropagationOperator(tiny_target.graph, "sym")
    return adapt(tiny_model, tiny_target, op, AdaptConfig(**overrides)), op


def test_zero_rate_is_a_noop(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, learning_rate=0.0, epochs=3)
    np.testing.assert_array_equal(result.model.gamma, tiny_model.gamma)
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model.copy(), tiny_target, op)
    base = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    np.testing.assert_allclose(result.prediction.probs, base.probs, atol=1e-12)


def test_single_step_unrolls_exactly(tiny_model, tiny_target):
    lr = 0.07
    result, _ = run(tiny_model, tiny_target, learning_rate=lr, epochs=1)
    op = PropagationOperator(tiny_target.graph, "sym")
    probe = tiny_model.copy()
    cache = featurize_hops(probe, tiny_target, op)
    prediction = base_predict(BaseTtaKind("erm"), probe, cache, tiny_target)
    _, grad = surrogate_loss_and_grad_gamma("pic", probe, cache, prediction)
    expected = tiny_model.gamma - lr * grad
    np.testing.assert_allclose(result.model.gamma, expected, atol=1e-14)
    np.testing.assert_array_equal(result.trace[0].gamma, result.model.gamma)


def test_only_gamma_changes(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, epochs=4)
    for name in STATIC_PARAMS:
        np.testing.assert_array_equal(
            getattr(result.model, name), getattr(tiny_model, name), err_msg=name
        )
    assert not np.array_equal(result.model.gamma, tiny_model.gamma)


def test_input_model_is_never_mutated(tiny_model, tiny_target):
    # The default arm writes γ; the joint ablation with a persisted Tent also
    # writes the norm affine back every epoch.
    before = [a.copy() for a in tiny_model.arrays()]
    joint = dict(ablation="joint", persist_base_tta=True, base=BaseTtaKind("tent"))
    for overrides, written in (({}, ("gamma",)), (joint, ("gamma", "scale", "shift"))):
        result, _ = run(tiny_model, tiny_target, epochs=3, **overrides)
        for name in written:
            assert not np.array_equal(getattr(result.model, name), getattr(tiny_model, name))
        for original, now in zip(before, tiny_model.arrays()):
            np.testing.assert_array_equal(original, now, err_msg=str(overrides))


def test_propagate_counter_equals_num_hops(tiny_model, tiny_target):
    """An erm+pic run of T epochs makes exactly K(1 + (H+1) + T) propagate calls.

    K to featurize (the class scores), K per column of [X̂ | 1] for the hop
    moments (once per run) and K per epoch to propagate Ŷ; the erm predictions
    and the γ steps make none.
    """
    k, h = tiny_model.num_hops, tiny_model.W1.shape[1]
    for epochs in (1, 7):
        _, op = run(tiny_model, tiny_target, epochs=epochs)
        assert op.calls == k * (1 + (h + 1) + epochs)


def test_trace_contents(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, epochs=5)
    assert len(result.trace) == 5
    assert [r.epoch for r in result.trace] == list(range(5))
    for record in result.trace:
        assert isinstance(record, EpochRecord)
        assert np.isfinite(record.loss) and np.isfinite(record.grad_norm)
        assert 0.0 <= record.accuracy <= 1.0
        assert record.gamma.shape == tiny_model.gamma.shape


def test_loss_kinds_all_run(tiny_model, tiny_target):
    for loss in ("pic", "entropy", "pseudo", "diff"):
        result, _ = run(
            tiny_model, tiny_target, loss=loss, epochs=2, learning_rate=0.01
        )
        assert len(result.trace) == 2, loss


def test_ablation_theta_freezes_gamma(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, ablation="theta", epochs=3)
    np.testing.assert_array_equal(result.model.gamma, tiny_model.gamma)
    changed = not np.array_equal(result.model.scale, tiny_model.scale) or (
        not np.array_equal(result.model.shift, tiny_model.shift)
    )
    assert changed, "theta ablation should move the norm affine"


def test_ablation_joint_moves_both(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, ablation="joint", epochs=3)
    assert not np.array_equal(result.model.gamma, tiny_model.gamma)
    changed = not np.array_equal(result.model.scale, tiny_model.scale) or (
        not np.array_equal(result.model.shift, tiny_model.shift)
    )
    assert changed


def test_persist_base_tta_keeps_tent_affine(tiny_model, tiny_target):
    result, _ = run(
        tiny_model,
        tiny_target,
        base=BaseTtaKind("tent", steps=2, lr=0.05),
        persist_base_tta=True,
        epochs=3,
    )
    changed = not np.array_equal(result.model.scale, tiny_model.scale) or (
        not np.array_equal(result.model.shift, tiny_model.shift)
    )
    assert changed, "persisted TentLite must write the affine back"


def test_affine_write_backs_run_theta_step_then_persisted_tent(tiny_model, tiny_target):
    # One joint epoch with a persisted Tent is, bit for bit: the γ step, then
    # a one-step θ update at the base's lr, then the base Tent on top of it.
    base = BaseTtaKind("tent", steps=2, lr=0.05)
    config = dict(ablation="joint", persist_base_tta=True, epochs=1)
    result, _ = run(tiny_model, tiny_target, base=base, **config)

    expected = tiny_model.copy()
    cache = featurize_hops(expected, tiny_target, PropagationOperator(tiny_target.graph, "sym"))
    prediction = base_predict(base, expected, cache, tiny_target)
    _, grad = surrogate_loss_and_grad_gamma("pic", expected, cache, prediction)
    expected.gamma[:] = expected.gamma - AdaptConfig().learning_rate * grad
    for kind in (replace(base, steps=1), base):
        expected.scale[:], expected.shift[:] = tent_lite(kind, expected, cache)[:2]

    for name in ("gamma", "scale", "shift"):
        np.testing.assert_array_equal(
            getattr(result.model, name), getattr(expected, name), err_msg=name
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_partial_trace(tiny_model, tiny_target):
    with pytest.raises(AdaptationDivergedError) as exc_info:
        run(tiny_model, tiny_target, learning_rate=1e160, epochs=10)
    trace = exc_info.value.trace
    assert 1 <= len(trace) < 10


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        AdaptConfig(epochs=0)
    with pytest.raises(ValueError):
        AdaptConfig(loss="nosuch")
    with pytest.raises(ValueError):
        AdaptConfig(ablation="nosuch")
    assert ABLATION_NAMES == ("gamma", "theta", "joint")


def synthetic_trace(grad_norms, losses=None):
    losses = losses if losses is not None else [0.5] * len(grad_norms)
    return tuple(
        EpochRecord(
            epoch=i,
            loss=float(losses[i]),
            grad_norm=float(g),
            accuracy=0.5,
            gamma=np.zeros(3),
        )
        for i, g in enumerate(grad_norms)
    )


def test_convergence_report_mean_squared_norm():
    trace = synthetic_trace([2.0, 1.0, 0.5, 0.25])
    report = convergence_report(trace)
    expected = (4.0 + 1.0 + 0.25 + 0.0625) / 4.0
    assert report["mean_sq_grad_norm"] == pytest.approx(expected)
    assert report["loss_curve"] == [0.5] * 4
    assert report["final_grad_norm"] == pytest.approx(0.25)


def test_convergence_report_zero_gradients():
    report = convergence_report(synthetic_trace([0.0, 0.0, 0.0]))
    assert report["mean_sq_grad_norm"] == 0.0
    assert report["grad_running_mean_decreasing"]


def test_convergence_report_flags_growing_gradients():
    report = convergence_report(synthetic_trace([0.1, 0.1, 0.2, 0.4, 0.8, 1.6]))
    assert not report["grad_running_mean_decreasing"]


def test_convergence_report_accepts_decreasing_gradients():
    report = convergence_report(synthetic_trace([1.6, 0.8, 0.4, 0.2, 0.1, 0.05]))
    assert report["grad_running_mean_decreasing"]


def test_convergence_report_rejects_empty_trace():
    with pytest.raises(ValueError):
        convergence_report(())

def test_adaptation_improves_accuracy_and_loss_on_tiny_shift(tiny_model, tiny_target):
    result, _ = run(tiny_model, tiny_target, learning_rate=0.15, epochs=15)
    before = result.trace[0].accuracy
    after = float(
        np.mean(np.argmax(result.prediction.probs, axis=1) == tiny_target.labels)
    )
    assert after >= before + 0.10, f"adaptation gained only {after - before:.3f}"
    assert result.trace[-1].loss < result.trace[0].loss


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rate", [50.0, 1000.0])
def test_excessive_rate_is_surfaced(tiny_model, tiny_target, rate):
    # The ratio-form clustering loss is scale invariant, so an absurd step can
    # inflate gamma without destabilizing it; the difference form has no such
    # protection and its gradients grow without bound.  The contract is that
    # an excessive rate is surfaced either as a divergence error or as a
    # non-decreasing gradient-norm trend in the report.
    try:
        result, _ = run(
            tiny_model, tiny_target, learning_rate=rate, epochs=20, loss="diff"
        )
    except AdaptationDivergedError:
        return
    report = convergence_report(result.trace)
    assert not report["grad_running_mean_decreasing"]
