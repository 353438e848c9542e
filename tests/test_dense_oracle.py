"""Every stackless reader of the hop cache against an explicitly built hop stack.

The lab holds no (K+1)×N×(H+1) stack: it predicts, then propagates. Here
``dense_hops`` builds Ã^k [X̂ | 1] with a dense Ã, and the predictions, the
surrogate losses and γ-gradients, ``aggregate`` and the hop moments must
agree with their stack forms within 1e-12 relative, under both operators.
"""

from __future__ import annotations

import numpy as np
import pytest

from adarc import (
    LOSS_KINDS,
    BaseTtaKind,
    PropagationOperator,
    aggregate,
    base_predict,
    featurize_hops,
    surrogate_loss_and_grad_gamma,
)
from adarc.model import affine_matrix, cross_entropy

from oracle_utils import (
    dense_hops,
    dense_moments,
    dense_t3a,
    dense_tent,
    extended_variance_ratio,
    row_entropy,
    row_log_softmax,
    row_softmax,
    with_f64_features,
)

TOLERANCE = 1e-12


def relative(value, reference) -> float:
    """max|value − reference| / max|reference|."""
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.abs(value - reference).max() / np.abs(reference).max())


@pytest.fixture(params=["row", "sym"])
def case(request, tiny_model, tiny_target):
    """(model, target, cache, hops): a non-identity affine, f64 features, one mode."""
    rng = np.random.default_rng(5)
    model = tiny_model.copy()
    model.prop_mode = request.param
    model.scale[:] = rng.uniform(0.5, 1.5, size=model.scale.shape)
    model.shift[:] = rng.normal(scale=0.5, size=model.shift.shape)
    target = with_f64_features(tiny_target)
    cache = featurize_hops(model, target, PropagationOperator(target.graph, request.param))
    return model, target, cache, dense_hops(model, target)


def test_predictions_match_the_dense_stack(case):
    model, target, cache, hops = case
    mix = np.tensordot(model.gamma, hops, axes=1)
    logits = mix @ affine_matrix(model.scale, model.shift) @ model.W_cls + model.b_cls
    expected = {
        "erm": row_softmax(logits),
        "tent": row_softmax(dense_tent(model, hops, steps=3, lr=0.05)),
        "t3a": dense_t3a(model, hops, keep_per_class=15),
    }
    kinds = {
        "erm": BaseTtaKind("erm"),
        "tent": BaseTtaKind("tent", steps=3, lr=0.05),
        "t3a": BaseTtaKind("t3a", keep_per_class=15),
    }
    for name, kind in kinds.items():
        got = base_predict(kind, model, cache, target)
        assert relative(got.probs, expected[name]) <= TOLERANCE, name
        np.testing.assert_array_equal(got.hard, expected[name].argmax(axis=1))


def dense_surrogate(kind, model, hops, probs):
    """Loss and γ-gradient of ``kind`` on the dense stack, Ŷ held fixed."""
    if kind in ("pic", "diff"):
        total, inter, d_total, d_inter = extended_variance_ratio(
            hops, model.gamma, model.scale, model.shift, probs
        )
        if kind == "pic":
            loss, grad = (total - inter) / total, (inter * d_total - total * d_inter) / total**2
        else:
            loss, grad = total - 2 * inter, d_total - 2 * d_inter
        return float(loss), grad.astype(np.float64)
    head = affine_matrix(model.scale, model.shift) @ model.W_cls
    logits = np.tensordot(model.gamma, hops, axes=1) @ head + model.b_cls
    if kind == "entropy":
        log_probs = row_log_softmax(logits)
        probs_now = np.exp(log_probs)
        entropy = row_entropy(probs_now, log_probs)
        loss = float(entropy.mean())
        d_logits = -probs_now * (log_probs + entropy[:, None]) / logits.shape[0]
    else:
        loss, d_logits = cross_entropy(logits, probs.argmax(axis=1))
    d_mix = d_logits @ head.T
    return loss, np.array([(hop * d_mix).sum() for hop in hops])


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_surrogates_match_the_dense_stack(case, kind):
    model, target, cache, hops = case
    predictions = {
        "erm": base_predict(BaseTtaKind(), model, cache, target).probs,
        "soft": np.random.default_rng(6).dirichlet(np.ones(2), size=target.num_nodes),
    }
    for name, probs in predictions.items():
        loss, grad = surrogate_loss_and_grad_gamma(kind, model, cache, probs)
        true_loss, true_grad = dense_surrogate(kind, model, hops, probs)
        assert abs(loss - true_loss) <= TOLERANCE * abs(true_loss), name
        assert relative(grad, true_grad) <= TOLERANCE, name


def test_aggregate_and_moments_match_the_dense_stack(case):
    model, _, cache, hops = case
    gamma = np.linspace(-0.5, 0.8, model.num_hops + 1)
    Z = aggregate(cache, gamma, model.scale, model.shift)
    expected = np.tensordot(gamma, hops, axes=1) @ affine_matrix(model.scale, model.shift)
    assert relative(Z, expected) <= TOLERANCE
    mean, diag, cross = dense_moments(hops)
    moments = cache.moments
    assert relative(moments.mean, mean) <= TOLERANCE
    assert relative(moments.diag, diag) <= TOLERANCE
    assert relative(moments.cross, cross) <= TOLERANCE
