"""Base TTA predictors: passthrough, entropy descent, prototype classifier."""

from __future__ import annotations

import numpy as np
import pytest

from adarc import (
    BaseTtaKind,
    PropagationOperator,
    StaleCacheError,
    aggregate,
    base_predict,
    classify,
    featurize_hops,
)
from adarc import tta
from adarc.losses import _entropy_grad_logits, _entropy_terms
from adarc.model import affine_matrix, mix_hops, softmax
from adarc.tta import BASE_TTA_NAMES, _entropy_grad_affine, tent_lite

from oracle_utils import fd_grad, relative_error, tent_affine_grad_z


@pytest.fixture()
def cache_and_op(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    return featurize_hops(tiny_model, tiny_target, op), op


def mean_entropy(prediction) -> float:
    probs = np.clip(prediction.probs, 1e-300, None)
    return float(-(prediction.probs * np.log(probs)).sum(axis=1).mean())


def test_variant_names():
    assert BASE_TTA_NAMES == ("erm", "tent", "t3a")


def test_kind_validation():
    with pytest.raises(ValueError):
        BaseTtaKind(variant="nosuch")
    with pytest.raises(ValueError):
        BaseTtaKind(steps=-1)
    with pytest.raises(ValueError):
        BaseTtaKind(lr=0.0)
    with pytest.raises(ValueError):
        BaseTtaKind(keep_per_class=0)


def test_erm_is_plain_classifier(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    pred = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    from adarc import classify

    Z = aggregate(cache, tiny_model.gamma, tiny_model.scale, tiny_model.shift)
    _, direct = classify(Z, tiny_model)
    np.testing.assert_array_equal(pred.probs, direct.probs)


def test_tent_zero_steps_equals_erm(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    erm = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    tent = base_predict(
        BaseTtaKind("tent", steps=0), tiny_model, cache, tiny_target
    )
    np.testing.assert_allclose(tent.probs, erm.probs, atol=1e-15)


def test_tent_reduces_entropy(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    erm = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    tent = base_predict(
        BaseTtaKind("tent", steps=5, lr=0.05), tiny_model, cache, tiny_target
    )
    assert mean_entropy(tent) <= mean_entropy(erm) + 1e-12


def test_tent_entropy_monotone_in_steps(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    entropies = []
    for steps in (1, 3, 10):
        _, _, logits = tent_lite(
            BaseTtaKind("tent", steps=steps, lr=0.02), tiny_model, cache
        )
        entropies.append(_entropy_terms(logits)[0])
    assert entropies[0] >= entropies[1] >= entropies[2]


def z_space_entropy(cache, model, scale, shift) -> float:
    """Mean entropy at (scale, shift), through Z = aggregate(…) and classify."""
    logits, _ = classify(aggregate(cache, model.gamma, scale, shift), model)
    return _entropy_terms(logits)[0]


@pytest.mark.parametrize("lr", [0.02, 5.0, 1e6])
def test_tent_never_returns_a_worse_affine(tiny_model, cache_and_op, lr):
    # The strict-decrease guard reverts any step that fails to lower the mean
    # entropy, so whatever the rate, the returned affine is at least as
    # confident as the model's own; measured through Z, to round-off.
    cache, _ = cache_and_op
    scale, shift, _ = tent_lite(
        BaseTtaKind("tent", steps=4, lr=lr), tiny_model, cache
    )
    assert np.all(np.isfinite(scale)) and np.all(np.isfinite(shift))
    before = z_space_entropy(cache, tiny_model, tiny_model.scale, tiny_model.shift)
    after = z_space_entropy(cache, tiny_model, scale, shift)
    assert after <= before + 1e-12


def affine_logits(cache, model, scale, shift):
    """Tent's logits at (scale, shift): mix·(A·W_cls) + b_cls."""
    mix = mix_hops(cache, model.gamma)
    return mix @ (affine_matrix(scale, shift) @ model.W_cls) + model.b_cls


@pytest.mark.parametrize("steps, lr", [(0, 0.05), (3, 0.05), (3, 1e3)])
def test_tent_prediction_is_classify_of_the_accepted_affine(
    tiny_model, tiny_target, cache_and_op, steps, lr
):
    # The prediction is the softmax of the logits tent accepted: the very bits
    # a rebuild from the returned affine gives, and classify's probabilities
    # of that affine's Z to round-off.
    cache, _ = cache_and_op
    kind = BaseTtaKind("tent", steps=steps, lr=lr)
    scale, shift, logits = tent_lite(kind, tiny_model, cache)
    np.testing.assert_array_equal(logits, affine_logits(cache, tiny_model, scale, shift))
    tent = base_predict(kind, tiny_model, cache, tiny_target)
    np.testing.assert_array_equal(tent.probs, softmax(logits))
    _, expected = classify(aggregate(cache, tiny_model.gamma, scale, shift), tiny_model)
    np.testing.assert_allclose(tent.probs, expected.probs, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(tent.hard, expected.hard)


@pytest.mark.parametrize("steps, lr", [(1, 0.05), (3, 0.05), (4, 1e3)])
def test_tent_builds_a_gradient_only_for_a_step_it_tries(
    tiny_model, cache_and_op, monkeypatch, steps, lr
):
    # Reference: every trial builds its entropy and gradient. tent_lite must
    # return the same bits while building one gradient per step it tries and
    # none after the last trial.
    cache, _ = cache_and_op
    mix = mix_hops(cache, tiny_model.gamma)
    scale, shift = tiny_model.scale, tiny_model.shift
    logits = affine_logits(cache, tiny_model, scale, shift)
    entropy, terms = _entropy_terms(logits)
    grad = _entropy_grad_affine(mix, terms, tiny_model)
    tried = 0
    for _ in range(steps):
        tried += 1
        new_scale, new_shift = scale - lr * grad[0], shift - lr * grad[1]
        new_logits = affine_logits(cache, tiny_model, new_scale, new_shift)
        new_entropy, terms = _entropy_terms(new_logits)
        grad = _entropy_grad_affine(mix, terms, tiny_model)
        if not new_entropy < entropy:
            break
        scale, shift, logits, entropy = new_scale, new_shift, new_logits, new_entropy

    calls = []
    grad_logits = tta._entropy_grad_logits
    monkeypatch.setattr(
        tta, "_entropy_grad_logits", lambda *a: calls.append(a) or grad_logits(*a)
    )
    got = tent_lite(BaseTtaKind("tent", steps=steps, lr=lr), tiny_model, cache)
    for array, expected in zip(got, (scale, shift, logits)):
        np.testing.assert_array_equal(array, expected)
    assert len(calls) == tried


@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_tent_affine_gradient_is_the_z_space_gradient(tiny_model, cache_and_op, offset):
    # At the model's affine and at one moved along a fixed direction, the
    # logit-space gradient must equal Σ_i mix[i] ⊙ (∂H̄/∂Z)[i] to 1e-12 and the
    # central differences of the mean entropy to 1e-6.
    cache, _ = cache_and_op
    h = tiny_model.scale.shape[0]
    direction = np.random.default_rng(5).normal(size=2 * h)
    scale = tiny_model.scale + offset * direction[:h]
    shift = tiny_model.shift + offset * direction[h:]
    mix = mix_hops(cache, tiny_model.gamma)
    _, terms = _entropy_terms(affine_logits(cache, tiny_model, scale, shift))
    d_scale, d_shift = _entropy_grad_affine(mix, terms, tiny_model)

    dZ = _entropy_grad_logits(terms) @ tiny_model.W_cls.T
    z_scale, z_shift = tent_affine_grad_z(mix, dZ)
    assert relative_error(d_scale, z_scale) <= 1e-12
    assert relative_error(d_shift, z_shift) <= 1e-12

    def entropy_of(affine):
        logits = affine_logits(cache, tiny_model, affine[:h], affine[h:])
        return _entropy_terms(logits)[0]

    numeric = fd_grad(entropy_of, np.concatenate([scale, shift]))
    assert relative_error(np.concatenate([d_scale, d_shift]), numeric) <= 1e-6


def test_tent_does_not_mutate_the_model(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    before = [a.copy() for a in tiny_model.arrays()]
    base_predict(
        BaseTtaKind("tent", steps=3, lr=0.05), tiny_model, cache, tiny_target
    )
    for original, now in zip(before, tiny_model.arrays()):
        np.testing.assert_array_equal(original, now)


def test_t3a_probs_follow_prototype_distances(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    pred = base_predict(
        BaseTtaKind("t3a", keep_per_class=15), tiny_model, cache, tiny_target
    )
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)
    # reconstruct prototypes with the same rule and verify the soft scores
    from adarc import classify, softmax
    from adarc.model import log_softmax

    Z = aggregate(cache, tiny_model.gamma, tiny_model.scale, tiny_model.shift)
    logits, base = classify(Z, tiny_model)
    node_entropy = -(base.probs * log_softmax(logits)).sum(axis=1)
    prototypes = []
    for c in range(tiny_target.num_classes):
        members = np.flatnonzero(base.hard == c)
        assert members.size > 0, "fixture should populate both classes"
        order = members[np.argsort(node_entropy[members], kind="stable")]
        prototypes.append(Z[order[:15]].mean(axis=0))
    prototypes = np.stack(prototypes)
    sq = ((Z[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    np.testing.assert_allclose(pred.probs, softmax(-sq), atol=1e-8)


def test_t3a_keep_larger_than_class_is_fine(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    pred = base_predict(
        BaseTtaKind("t3a", keep_per_class=10_000), tiny_model, cache, tiny_target
    )
    assert np.all(np.isfinite(pred.probs))


def test_base_predict_rejects_stale_cache(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    changed = tiny_model.copy()
    changed.W1[0, 0] += 1.0
    with pytest.raises(StaleCacheError):
        base_predict(BaseTtaKind("erm"), changed, cache, tiny_target)


def test_base_predict_uses_no_propagate_calls(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    calls_after_featurize = op.calls
    for variant in BASE_TTA_NAMES:
        base_predict(BaseTtaKind(variant), tiny_model, cache, tiny_target)
    assert op.calls == calls_after_featurize