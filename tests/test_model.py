"""GPR model: initialization, hop cache, aggregation, classifier, gradients."""

from __future__ import annotations

from dataclasses import replace

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
    init_model,
    prediction_accuracy,
    softmax,
)
from adarc.model import (
    backward_ce,
    cross_entropy,
    gamma_grad_from_dz,
    log_softmax,
    mix_hops,
)

from oracle_utils import fd_grad, relative_error


def test_init_model_ppr_gamma():
    model = init_model(dim=10, hidden=6, num_classes=2, num_hops=4, seed=0, alpha=0.1)
    expected = 0.1 * (0.9 ** np.arange(5))
    np.testing.assert_allclose(model.gamma, expected)
    assert model.W1.shape == (10, 6)
    np.testing.assert_array_equal(model.scale, 1.0)
    np.testing.assert_array_equal(model.shift, 0.0)
    np.testing.assert_array_equal(model.running_mean, 0.0)
    np.testing.assert_array_equal(model.running_var, 1.0)
    assert model.prop_mode == "sym"


def test_model_rejects_unknown_prop_mode(tiny_model):
    with pytest.raises(ValueError, match="prop_mode"):
        replace(tiny_model, prop_mode="col")


def hop(cache, k, scale, shift):
    """H^(k) under (scale, shift), read through aggregate with a one-hot γ."""
    return aggregate(cache, np.eye(cache.num_hops + 1)[k], scale, shift)


def test_featurize_uses_exactly_k_propagate_calls(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    featurize_hops(tiny_model, tiny_target, op)
    assert op.calls == tiny_model.num_hops


def test_featurize_hops_does_not_mutate_the_model(tiny_model, tiny_target, tiny_op):
    before = [array.copy() for array in tiny_model.arrays()]
    cache = featurize_hops(tiny_model, tiny_target, tiny_op)
    for old, new in zip(before, tiny_model.arrays()):
        np.testing.assert_array_equal(new, old)
    # The target statistics live on the cache instead.
    pre = tiny_target.features @ tiny_model.W1 + tiny_model.b1[None, :]
    np.testing.assert_allclose(cache.mean, pre.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cache.var, pre.var(axis=0), rtol=1e-12)
    np.testing.assert_allclose(cache.used_std, np.sqrt(cache.var + 1e-5), rtol=1e-12)


def test_hop_cache_matches_manual_propagation(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    scale, shift = tiny_model.scale, tiny_model.shift
    hops = [hop(cache, k, scale, shift) for k in range(cache.num_hops + 1)]

    # manual pipeline: linear, batch-norm on target statistics, then K hops
    X = tiny_target.features.astype(np.float64)
    H0 = X @ tiny_model.W1 + tiny_model.b1[None, :]
    mean, var = H0.mean(axis=0), H0.var(axis=0)
    H0 = (H0 - mean) / np.sqrt(var + 1e-5)
    H0 = H0 * tiny_model.scale[None, :] + tiny_model.shift[None, :]
    ref = PropagationOperator(tiny_target.graph, "sym")
    level = H0
    np.testing.assert_allclose(hops[0], H0, atol=1e-9)
    for k in range(1, tiny_model.num_hops + 1):
        level = ref.apply(level)
        np.testing.assert_allclose(hops[k], level, atol=1e-9)


def test_aggregate_is_gamma_weighted_sum(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    scale, shift = tiny_model.scale, tiny_model.shift
    gamma = np.linspace(-0.5, 0.8, tiny_model.num_hops + 1)
    manual = sum(g * hop(cache, k, scale, shift) for k, g in enumerate(gamma))
    np.testing.assert_allclose(aggregate(cache, gamma, scale, shift), manual, atol=1e-12)


def test_cache_affine_factorization(tiny_model, tiny_target):
    # hops read under a new affine must equal a fresh featurization's
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    bumped = tiny_model.copy()
    bumped.scale[:] = np.linspace(0.5, 1.5, bumped.scale.size)
    bumped.shift[:] = np.linspace(-0.3, 0.4, bumped.shift.size)
    fresh = featurize_hops(bumped, tiny_target, PropagationOperator(tiny_target.graph))
    for k in range(cache.num_hops + 1):
        via_affine = hop(cache, k, bumped.scale, bumped.shift)
        expected = hop(fresh, k, bumped.scale, bumped.shift)
        np.testing.assert_allclose(via_affine, expected, atol=1e-9)


def test_aggregate_splits_into_scale_and_shift_parts(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    gamma = tiny_model.gamma
    Z = aggregate(cache, gamma, tiny_model.scale, tiny_model.shift)
    # Z decomposes as scale⊙(Σγ_k B_k) + (Σγ_k o_k)·shiftᵀ
    mix = mix_hops(cache, gamma)
    s_b, t_o = mix[:, :-1], mix[:, -1]
    rebuilt = tiny_model.scale[None, :] * s_b + np.outer(t_o, tiny_model.shift)
    np.testing.assert_allclose(Z, rebuilt, atol=1e-12)


def test_hop_cache_holds_one_stack(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    n, k, h = tiny_target.num_nodes, tiny_model.num_hops, tiny_model.W1.shape[1]
    arrays = [
        value
        for value in vars(cache).values()
        if isinstance(value, np.ndarray) and value.size >= n
    ]
    assert len(arrays) == 1
    assert arrays[0] is cache.hops
    assert cache.hops.shape == (k + 1, n, h + 1)
    assert cache.hops.dtype == np.float64
    assert np.shares_memory(cache.xhat, cache.hops)
    np.testing.assert_array_equal(cache.hops[0, :, -1], 1.0)


def test_hop_moments_give_the_centered_gram(tiny_model, tiny_target):
    # 320 nodes span a full and a partial block of hop_moments' row blocks.
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    rng = np.random.default_rng(7)
    scale = rng.uniform(0.5, 1.5, size=tiny_model.scale.shape)
    shift = rng.normal(size=tiny_model.shift.shape)
    affine = np.vstack([np.diag(scale), shift[None, :]])
    centered = [hop @ affine - (hop @ affine).mean(axis=0) for hop in cache.hops]
    expected = np.array([[(a * b).sum() for b in centered] for a in centered])
    gram = cache.moments.total_gram(scale, shift)
    np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=1e-12 * abs(expected).max())
    np.testing.assert_array_equal(cache.moments.mean, cache.hops.mean(axis=1))
    # The moments are built once and hold nothing N-sized beside the stack.
    assert cache.moments is cache.moments
    k1, _, h1 = cache.hops.shape
    assert cache.moments.mean.shape == (k1, h1)
    assert cache.moments.diag.shape == (h1, k1, k1)
    assert cache.moments.cross.shape == (h1 - 1, k1, k1)


def test_cache_freshness_fingerprint(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    assert cache.is_fresh(tiny_model, tiny_target.graph)
    changed = tiny_model.copy()
    changed.W1[0, 0] += 1.0
    assert not cache.is_fresh(changed, tiny_target.graph)
    affine_only = tiny_model.copy()
    affine_only.scale[0] += 0.5
    assert cache.is_fresh(affine_only, tiny_target.graph), (
        "affine changes must not invalidate the cache; aggregate applies them"
    )


def test_classify_and_predict_agree(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    Z = aggregate(cache, tiny_model.gamma, tiny_model.scale, tiny_model.shift)
    logits, soft = classify(Z, tiny_model)
    np.testing.assert_allclose(
        soft.probs.sum(axis=1), 1.0, atol=1e-12
    )
    np.testing.assert_allclose(softmax(logits), soft.probs, atol=1e-15)
    fresh = featurize_hops(tiny_model, tiny_target, op)
    direct = base_predict(BaseTtaKind(), tiny_model, fresh, tiny_target)
    np.testing.assert_allclose(direct.probs, soft.probs, atol=1e-12)


def test_prediction_accuracy_and_evaluate(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    soft = base_predict(
        BaseTtaKind(), tiny_model, featurize_hops(tiny_model, tiny_target, op), tiny_target
    )
    acc = prediction_accuracy(soft, tiny_target.labels)
    manual = float(np.mean(soft.hard == tiny_target.labels))
    assert acc == pytest.approx(manual)
    again = base_predict(
        BaseTtaKind(), tiny_model, featurize_hops(tiny_model, tiny_target, op), tiny_target
    )
    assert prediction_accuracy(again, tiny_target.labels) == pytest.approx(manual)
    mask = np.zeros(tiny_target.num_nodes, dtype=bool)
    mask[:50] = True
    masked = prediction_accuracy(soft, tiny_target.labels, mask)
    assert masked == pytest.approx(float(np.mean(soft.hard[:50] == tiny_target.labels[:50])))
    with pytest.raises(ValueError):
        prediction_accuracy(soft, tiny_target.labels, np.zeros(tiny_target.num_nodes, bool))


def test_cross_entropy_value_and_gradient():
    rng = np.random.default_rng(4)
    logits = 3.0 * rng.normal(size=(7, 3))
    labels = rng.integers(0, 3, size=7)
    loss, dlogits = cross_entropy(logits, labels)
    onehot = np.eye(3)[labels]
    expected = -float(np.mean((log_softmax(logits) * onehot).sum(axis=1)))
    assert loss == pytest.approx(expected, rel=1e-12)
    np.testing.assert_allclose(dlogits, (softmax(logits) - onehot) / 7, atol=1e-15)
    numeric = fd_grad(lambda z: cross_entropy(z, labels)[0], logits)
    assert relative_error(dlogits, numeric) < 1e-6


def test_gamma_grad_from_dz_is_exact_adjoint(tiny_model, tiny_target):
    op = PropagationOperator(tiny_target.graph, "sym")
    cache = featurize_hops(tiny_model, tiny_target, op)
    scale, shift = tiny_model.scale, tiny_model.shift
    rng = np.random.default_rng(0)
    dZ = rng.normal(size=(tiny_target.num_nodes, scale.size))
    grad = gamma_grad_from_dz(cache, dZ, scale, shift)
    manual = np.array(
        [float((hop(cache, k, scale, shift) * dZ).sum()) for k in range(cache.num_hops + 1)]
    )
    np.testing.assert_allclose(grad, manual, rtol=1e-12)


def test_backward_ce_matches_finite_differences(tiny_source):
    # full-model cross-entropy gradient on a tiny instance, checked by FD
    model = init_model(dim=48, hidden=5, num_classes=2, num_hops=3, seed=3)
    op = PropagationOperator(tiny_source.graph, "sym")
    mask = tiny_source.masks["train"]

    def loss_at(model_in):
        cache = featurize_hops(model_in, tiny_source, PropagationOperator(tiny_source.graph))
        Z = aggregate(cache, model_in.gamma, model_in.scale, model_in.shift)
        logits, _ = classify(Z, model_in)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.arange(tiny_source.num_nodes)[mask]
        return -float(np.mean(logp[rows, tiny_source.labels[mask]]))

    cache = featurize_hops(model, tiny_source, op)
    loss, grads, logits = backward_ce(model, tiny_source, cache, mask, op)
    assert loss == pytest.approx(loss_at(model), rel=1e-10)
    # The returned logits are classify's, on every node.
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    np.testing.assert_array_equal(logits, classify(Z, model)[0])

    for name in ("gamma", "W_cls", "b_cls", "b1"):
        def value(arr, _name=name):
            probe = model.copy()
            getattr(probe, _name)[:] = arr
            return loss_at(probe)

        numeric = fd_grad(value, getattr(model, name).copy(), step=1e-5)
        assert relative_error(np.asarray(grads[name]), numeric) < 1e-5, name

    # W1 is large; check a random slice of coordinates instead of all of them
    rng = np.random.default_rng(1)
    coords = [(int(r), int(c)) for r, c in zip(rng.integers(0, 48, 8), rng.integers(0, 5, 8))]
    for r, c in coords:
        def value_w1(x, r=r, c=c):
            probe = model.copy()
            probe.W1[r, c] = x
            return loss_at(probe)

        step = 1e-5
        numeric = (value_w1(model.W1[r, c] + step) - value_w1(model.W1[r, c] - step)) / (
            2 * step
        )
        assert grads["W1"][r, c] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


def test_stale_cache_error_has_helpful_type():
    assert issubclass(StaleCacheError, RuntimeError)