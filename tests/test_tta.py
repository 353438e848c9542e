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
from adarc.losses import entropy_from_logits
from adarc.tta import BASE_TTA_NAMES, tent_lite_affine


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
        scale, shift = tent_lite_affine(
            BaseTtaKind("tent", steps=steps, lr=0.02), tiny_model, cache
        )
        Z = aggregate(cache, tiny_model.gamma, scale, shift)
        logits = Z @ tiny_model.W_cls + tiny_model.b_cls[None, :]
        entropies.append(entropy_from_logits(logits))
    assert entropies[0] >= entropies[1] >= entropies[2]


@pytest.mark.parametrize("lr", [0.02, 5.0, 1e6])
def test_tent_never_returns_a_worse_affine(tiny_model, cache_and_op, lr):
    # The strict-decrease guard reverts any step that fails to lower the mean
    # entropy, so whatever the rate, the returned affine is at least as
    # confident as the model's own.
    cache, _ = cache_and_op

    def affine_entropy(scale, shift):
        Z = aggregate(cache, tiny_model.gamma, scale, shift)
        logits = Z @ tiny_model.W_cls + tiny_model.b_cls[None, :]
        return entropy_from_logits(logits)

    scale, shift = tent_lite_affine(
        BaseTtaKind("tent", steps=4, lr=lr), tiny_model, cache
    )
    assert np.all(np.isfinite(scale)) and np.all(np.isfinite(shift))
    before = affine_entropy(tiny_model.scale, tiny_model.shift)
    after = affine_entropy(scale, shift)
    assert after <= before + 1e-12


@pytest.mark.parametrize("steps, lr", [(0, 0.05), (3, 0.05), (3, 1e3)])
def test_tent_prediction_is_classify_of_the_accepted_affine(
    tiny_model, tiny_target, cache_and_op, steps, lr
):
    # The prediction reuses the logits of the affine tent accepted; they must
    # be the very bits a second aggregate + classify would rebuild.
    cache, _ = cache_and_op
    kind = BaseTtaKind("tent", steps=steps, lr=lr)
    scale, shift = tent_lite_affine(kind, tiny_model, cache)
    _, expected = classify(aggregate(cache, tiny_model.gamma, scale, shift), tiny_model)
    tent = base_predict(kind, tiny_model, cache, tiny_target)
    np.testing.assert_array_equal(tent.probs, expected.probs)


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

    Z = aggregate(cache, tiny_model.gamma, tiny_model.scale, tiny_model.shift)
    _, base = classify(Z, tiny_model)
    probs = np.clip(base.probs, 1e-300, None)
    node_entropy = -(base.probs * np.log(probs)).sum(axis=1)
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