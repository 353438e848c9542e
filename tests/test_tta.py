"""Base TTA predictors: passthrough, entropy descent, prototype classifier."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    BaseTtaKind,
    Dataset,
    PropagationOperator,
    StaleCacheError,
    aggregate,
    base_predict,
    build_graph,
    featurize_hops,
)
from adarc import tta
from adarc.losses import _entropy_grad_logits, _entropy_terms
from adarc.model import SoftPrediction, affine_matrix, log_softmax, softmax
from adarc.tta import BASE_TTA_NAMES, _entropy_grad_affine, tent_lite

from oracle_utils import fd_grad, relative_error, softmax_ranked_t3a, tent_affine_grad_z


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
    # The bits are the softmax of the logit form mix·(A·W_cls) + b_cls; the
    # classifier Z·W_cls + b_cls on Z = aggregate(…) sums in another order, so
    # it agrees to round-off with the same hard labels.
    cache, _ = cache_and_op
    pred = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    logits = affine_logits(cache, tiny_model, tiny_model.scale, tiny_model.shift)
    np.testing.assert_array_equal(pred.probs, softmax(logits))
    Z = aggregate(cache, tiny_model.gamma, tiny_model.scale, tiny_model.shift)
    direct = SoftPrediction(softmax(Z @ tiny_model.W_cls + tiny_model.b_cls))
    np.testing.assert_allclose(pred.probs, direct.probs, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(pred.hard, direct.hard)


def test_tent_zero_steps_equals_erm(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    erm = base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_target)
    tent = base_predict(
        BaseTtaKind("tent", steps=0), tiny_model, cache, tiny_target
    )
    np.testing.assert_array_equal(tent.probs, erm.probs)


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
    """Mean entropy at (scale, shift), through Z = aggregate(…) and the classifier."""
    logits = aggregate(cache, model.gamma, scale, shift) @ model.W_cls + model.b_cls
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
    """Tent's logits at (scale, shift): mix·(A·W_cls) + b_cls.

    At the model's own affine they are the cache's class-score logits; at any
    other, one Horner pass on [X̂ | 1]·A·W_cls.
    """
    if np.array_equal(scale, model.scale) and np.array_equal(shift, model.shift):
        return cache.logits(model)
    return cache.mix_dot(model.gamma, affine_matrix(scale, shift) @ model.W_cls) + model.b_cls


@pytest.mark.parametrize("steps, lr", [(0, 0.05), (3, 0.05), (3, 1e3)])
def test_tent_prediction_is_classify_of_the_accepted_affine(
    tiny_model, tiny_target, cache_and_op, steps, lr
):
    # The prediction is the softmax of the logits tent accepted: the very bits
    # a rebuild from the returned affine gives, and the classifier's
    # probabilities softmax(Z·W_cls + b_cls) of that affine's Z to round-off.
    cache, _ = cache_and_op
    kind = BaseTtaKind("tent", steps=steps, lr=lr)
    scale, shift, logits = tent_lite(kind, tiny_model, cache)
    np.testing.assert_array_equal(logits, affine_logits(cache, tiny_model, scale, shift))
    tent = base_predict(kind, tiny_model, cache, tiny_target)
    np.testing.assert_array_equal(tent.probs, softmax(logits))
    Z = aggregate(cache, tiny_model.gamma, scale, shift)
    expected = SoftPrediction(softmax(Z @ tiny_model.W_cls + tiny_model.b_cls))
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
    scale, shift = tiny_model.scale, tiny_model.shift
    logits = affine_logits(cache, tiny_model, scale, shift)
    entropy, terms = _entropy_terms(logits)
    grad = _entropy_grad_affine(cache, terms, tiny_model)
    tried = 0
    for _ in range(steps):
        tried += 1
        new_scale, new_shift = scale - lr * grad[0], shift - lr * grad[1]
        new_logits = affine_logits(cache, tiny_model, new_scale, new_shift)
        new_entropy, terms = _entropy_terms(new_logits)
        grad = _entropy_grad_affine(cache, terms, tiny_model)
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
    mix = cache.mix_dot(tiny_model.gamma, np.eye(h + 1))
    _, terms = _entropy_terms(affine_logits(cache, tiny_model, scale, shift))
    d_scale, d_shift = _entropy_grad_affine(cache, terms, tiny_model)

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


def z_space_t3a(model, cache, keep_per_class, empty_class_expected=False):
    """T3A's probabilities from Z = aggregate(…): softmax(−‖Z − p_c‖²), as a reference."""
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    logits = Z @ model.W_cls + model.b_cls
    base = SoftPrediction(softmax(logits))
    node_entropy = -(base.probs * log_softmax(logits)).sum(axis=1)
    prototypes = []
    for c in range(model.W_cls.shape[1]):
        members = np.flatnonzero(base.hard == c)
        if members.size == 0:
            assert empty_class_expected, f"class {c} is empty"
            prototypes.append(model.W_cls[:, c])
            continue
        order = members[np.argsort(node_entropy[members], kind="stable")]
        prototypes.append(Z[order[:keep_per_class]].mean(axis=0))
    prototypes = np.stack(prototypes)
    return softmax(-((Z[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2))


def test_t3a_probs_follow_prototype_distances(tiny_model, tiny_target, cache_and_op):
    cache, _ = cache_and_op
    pred = base_predict(
        BaseTtaKind("t3a", keep_per_class=15), tiny_model, cache, tiny_target
    )
    np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)
    expected = z_space_t3a(tiny_model, cache, keep_per_class=15)
    np.testing.assert_allclose(pred.probs, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(pred.hard, expected.argmax(axis=1))


def test_t3a_empty_class_falls_back_to_the_classifier_direction(
    tiny_model, tiny_target, cache_and_op
):
    # A bias that sends every node to class 0, by a margin of 1 in the logits,
    # leaves class 1 with no members, so its prototype is W_cls[:, 1]; the
    # scores still match the distances.
    cache, _ = cache_and_op
    model = tiny_model.copy()
    logits = affine_logits(cache, model, model.scale, model.shift)
    model.b_cls[0] += (logits[:, 1] - logits[:, 0]).max() + 1.0
    assert np.all(base_predict(BaseTtaKind("erm"), model, cache, tiny_target).hard == 0)
    pred = base_predict(BaseTtaKind("t3a", keep_per_class=15), model, cache, tiny_target)
    expected = z_space_t3a(model, cache, keep_per_class=15, empty_class_expected=True)
    # Relative, because class 1's probabilities are tiny (7e-15 measured).
    np.testing.assert_allclose(pred.probs, expected, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(pred.hard, expected.argmax(axis=1))


@pytest.mark.parametrize("keep", [1, 5, 15, 20])
def test_t3a_ranks_nodes_as_the_softmax_entropy_formula(
    tiny_model, tiny_target, cache_and_op, keep
):
    # The entropies of ``_entropy_terms`` keep the same nodes as those of
    # softmax(L)·log_softmax(L), so every output bit is the same.
    cache, _ = cache_and_op
    pred = tta._t3a_predict(BaseTtaKind("t3a", keep_per_class=keep), tiny_model, cache)
    expected = softmax_ranked_t3a(tiny_model, cache, keep)
    np.testing.assert_array_equal(pred.probs, expected)


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


def test_base_predict_rejects_a_cache_of_another_mode(tiny_model, tiny_target, cache_and_op):
    # The cache propagates under sym: a row-mode model must not predict with it.
    cache, _ = cache_and_op
    with pytest.raises(StaleCacheError):
        base_predict(BaseTtaKind("erm"), replace(tiny_model, prop_mode="row"), cache, tiny_target)


def test_base_predict_rejects_a_cache_of_another_graph(
    tiny_model, tiny_source, tiny_target, cache_and_op
):
    # Both graphs have 320 nodes and one featurizer: only the graph tells them apart.
    cache, _ = cache_and_op
    assert tiny_source.num_nodes == tiny_target.num_nodes
    with pytest.raises(StaleCacheError):
        base_predict(BaseTtaKind("erm"), tiny_model, cache, tiny_source)


def test_base_predict_uses_no_propagate_calls(tiny_model, tiny_target, monkeypatch):
    """Exact propagate calls of each base prediction on a cache of the model's head.

    erm reads the class scores and makes none; tent makes 2K per step it
    tries (a transpose pass for the gradient, a pass for the trial logits);
    t3a makes 2K (the prototypes' transpose pass and the scores' pass).
    """
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    k = tiny_model.num_hops
    assert op.calls == k
    tried = []
    grad_logits = tta._entropy_grad_logits
    monkeypatch.setattr(
        tta, "_entropy_grad_logits", lambda *a: tried.append(a) or grad_logits(*a)
    )
    # Three steps that each lower the entropy, then at lr=1e6 a first step
    # that nearly zeroes it and a second that is reverted: 3 and 2 tried.
    for kind, steps_tried in [
        (BaseTtaKind("erm"), 0),
        (BaseTtaKind("tent"), 1),
        (BaseTtaKind("tent", steps=3, lr=0.05), 3),
        (BaseTtaKind("tent", steps=3, lr=1e6), 2),
    ]:
        tried.clear()
        before = op.calls
        base_predict(kind, tiny_model, cache, tiny_target)
        assert len(tried) == steps_tried, kind
        assert op.calls - before == 2 * k * steps_tried, kind
    before = op.calls
    base_predict(BaseTtaKind("t3a"), tiny_model, cache, tiny_target)
    assert op.calls - before == 2 * k

def relabelled(dataset, order):
    """``dataset`` with node ``order[i]`` renamed i."""
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    graph = build_graph(new_id[dataset.graph.edge_list()], dataset.num_nodes)
    return Dataset(
        graph, dataset.features[order], dataset.labels[order], dataset.num_classes
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_base_predictions_do_not_depend_on_node_ids(tiny_model, tiny_target, seed):
    # Renaming the nodes only reorders sums over nodes (the normalization
    # statistics, T3A's prototype means), so each prediction, mapped back,
    # agrees to round-off with the same hard labels.
    order = np.random.default_rng(seed).permutation(tiny_target.num_nodes)
    renamed = relabelled(tiny_target, order)
    caches = [
        featurize_hops(tiny_model, data, PropagationOperator(data.graph, "sym"))
        for data in (tiny_target, renamed)
    ]
    for variant in BASE_TTA_NAMES:
        kind = BaseTtaKind(variant)
        original = base_predict(kind, tiny_model, caches[0], tiny_target)
        moved = base_predict(kind, tiny_model, caches[1], renamed)
        np.testing.assert_allclose(moved.probs, original.probs[order], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(moved.hard, original.hard[order])


@pytest.mark.parametrize("k", [1, 2, 5, 9, 12])
def test_t3a_keeps_the_stable_argsort_set_with_ties_at_the_cut(k):
    # Few distinct values force ties at the k-th lowest.
    for seed in range(50):
        values = np.random.default_rng(seed).integers(0, 4, size=10) / 7.0
        expected = np.sort(np.argsort(values, kind="stable")[:k])
        np.testing.assert_array_equal(np.sort(tta._lowest(values, k)), expected)
