"""GPR model: initialization, hop cache, aggregation, classifier, gradients."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    BaseTtaKind,
    PropagationOperator,
    ScenarioSpec,
    StaleCacheError,
    TrainConfig,
    aggregate,
    base_predict,
    build_scenario_datasets,
    classify,
    featurize_hops,
    init_model,
    prediction_accuracy,
    pretrain_on,
    softmax,
)
from adarc.losses import _entropy_terms
from adarc.model import (
    SoftPrediction,
    affine_matrix,
    backward_ce,
    cross_entropy,
    log_softmax,
    mix_hops,
)

from oracle_utils import (
    fd_grad,
    relative_error,
    row_cross_entropy,
    row_entropy,
    row_log_softmax,
    row_softmax,
    stack_backward_ce,
    with_f64_features,
)


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
    target = with_f64_features(tiny_target)
    before = [array.copy() for array in tiny_model.arrays()]
    cache = featurize_hops(tiny_model, target, tiny_op)
    for old, new in zip(before, tiny_model.arrays()):
        np.testing.assert_array_equal(new, old)
    # The target statistics live on the cache instead.
    pre = target.features @ tiny_model.W1 + tiny_model.b1[None, :]
    np.testing.assert_allclose(cache.mean, pre.mean(axis=0), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(cache.var, pre.var(axis=0), rtol=1e-12)


def test_hop_cache_matches_manual_propagation(tiny_model, tiny_target):
    target = with_f64_features(tiny_target)
    op = PropagationOperator(target.graph, "sym")
    cache = featurize_hops(tiny_model, target, op)
    scale, shift = tiny_model.scale, tiny_model.shift
    hops = [hop(cache, k, scale, shift) for k in range(cache.num_hops + 1)]

    # manual pipeline: linear, batch-norm on target statistics, then K hops
    X = target.features
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


def test_backward_ce_matches_finite_differences(tiny_source):
    # full-model cross-entropy gradient on a tiny instance, checked by FD
    source = with_f64_features(tiny_source)
    model = init_model(dim=48, hidden=5, num_classes=2, num_hops=3, seed=3)
    op = PropagationOperator(source.graph, "sym")
    mask = source.masks["train"]

    def loss_at(model_in):
        cache = featurize_hops(model_in, source, PropagationOperator(source.graph))
        Z = aggregate(cache, model_in.gamma, model_in.scale, model_in.shift)
        logits, _ = classify(Z, model_in)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.arange(source.num_nodes)[mask]
        return -float(np.mean(logp[rows, source.labels[mask]]))

    loss, grads, logits, mean, var = backward_ce(model, source, mask, op)
    assert loss == pytest.approx(loss_at(model), rel=1e-10)
    # The returned logits are classify's, on every node, and the statistics
    # are the hop cache's.
    cache = featurize_hops(model, source, op)
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    np.testing.assert_allclose(logits, classify(Z, model)[0], rtol=1e-12, atol=1e-15)
    np.testing.assert_array_equal(mean, cache.mean)
    np.testing.assert_array_equal(var, cache.var)

    for name in ("gamma", "W_cls", "b_cls", "b1", "scale", "shift"):
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


#: Largest relative difference between ``backward_ce`` and the hop-stack path:
#: the two reorder the same sums. Measured on the four cases below: at most
#: 1.1e-15 for every output but ``b1``. ``b1`` cannot move the normalized
#: features, so its exact gradient is 0 and both paths leave round-off, at
#: most 1.5e-16 absolute against gradients of order 0.1.
STACK_PATH_TOLERANCE = 1e-12
B1_ROUND_OFF = 1e-14


@pytest.mark.parametrize("num_hops", [0, 3])
@pytest.mark.parametrize("mode", ["sym", "row"])
def test_backward_ce_equals_the_hop_stack_path(tiny_source, mode, num_hops):
    source = with_f64_features(tiny_source)
    model = init_model(dim=48, hidden=5, num_classes=2, num_hops=num_hops, seed=3)
    rng = np.random.default_rng(num_hops)
    model.b1 = rng.normal(size=5)
    model.scale = rng.uniform(0.5, 1.5, size=5)
    model.shift = rng.normal(size=5)
    model.gamma = rng.normal(size=num_hops + 1)
    mask = source.masks["train"]
    op = PropagationOperator(source.graph, mode)
    loss, grads, logits, mean, var = backward_ce(model, source, mask, op)
    assert op.calls == 2 * num_hops
    ref_loss, ref_grads, ref_logits, ref_mean, ref_var = stack_backward_ce(
        model, source, mask, PropagationOperator(source.graph, mode)
    )

    def relative(value, reference):
        return np.abs(value - reference).max() / np.abs(reference).max()

    assert abs(loss - ref_loss) <= STACK_PATH_TOLERANCE * ref_loss
    assert relative(logits, ref_logits) <= STACK_PATH_TOLERANCE
    np.testing.assert_array_equal(mean, ref_mean)
    np.testing.assert_array_equal(var, ref_var)
    for name, reference in ref_grads.items():
        if name == "b1":
            assert np.abs(grads[name] - reference).max() <= B1_ROUND_OFF
        else:
            assert relative(grads[name], reference) <= STACK_PATH_TOLERANCE, name


#: Largest max|f32 − f64| / max|f64| that the f32 feature GEMMs may leave in
#: the hops, the loss and each gradient of ``backward_ce``. Measured on the
#: four cases below: at most 5.0e-7 for the hops, 3.0e-8 for the loss and
#: 9.2e-7 for a gradient, except 2.7e-6 for ``b_cls`` of the initial model on
#: the target, a sum over nodes that nearly cancels (4.4e-4, against 1e-2 and
#: more in the other cases).
F32_GEMM_TOLERANCE = 5e-6


@pytest.fixture(scope="module")
def desk_width_models():
    """(initial model, 10-epoch model, source, target) of homo2hetero at D=2000."""
    spec = ScenarioSpec("homo2hetero", n=600, dim=2000)
    source, target = build_scenario_datasets(spec, 0)
    train = TrainConfig(epochs=10, patience=10, learning_rate=2.0)
    trained, _ = pretrain_on(source, train)
    initial = init_model(2000, train.hidden, 2, train.num_hops, seed=train.seed)
    return initial, trained, source, target


@pytest.mark.parametrize("role", ["source", "target"])
@pytest.mark.parametrize("which", ["initial", "trained"])
def test_f32_feature_gemms_match_the_f64_path_to_round_off(
    desk_width_models, which, role
):
    initial, trained, source, target = desk_width_models
    model = initial if which == "initial" else trained
    dataset = source if role == "source" else target
    assert dataset.features.dtype == np.float32
    mask = dataset.masks.get("train", np.ones(dataset.num_nodes, dtype=bool))
    runs = []
    for data in (dataset, with_f64_features(dataset)):
        op = PropagationOperator(data.graph, model.prop_mode)
        hops = featurize_hops(model, data, op).hops
        runs.append((hops, *backward_ce(model, data, mask, op)[:3]))
    (hops32, loss32, grads32, logits32), (hops64, loss64, grads64, logits64) = runs

    def relative(value, reference, scale):
        return np.abs(value - reference).max() / np.abs(scale).max()

    assert relative(hops32, hops64, hops64) <= F32_GEMM_TOLERANCE
    assert abs(loss32 - loss64) <= F32_GEMM_TOLERANCE * abs(loss64)
    for name, grad64 in grads64.items():
        # b1 cannot move the normalized features, so its gradient is zero up
        # to round-off on both paths; measure its difference on W1's scale.
        scale = grads64["W1"] if name == "b1" else grad64
        assert relative(grads32[name], grad64, scale) <= F32_GEMM_TOLERANCE, name
    np.testing.assert_array_equal(logits32.argmax(axis=1), logits64.argmax(axis=1))


def test_stale_cache_error_has_helpful_type():
    assert issubclass(StaleCacheError, RuntimeError)

# Logits over C ∈ {2, …, 7} classes, drawn from a pool with repeated values
# (ties) and ±700 (exp under- and overflow without the max shift).
_LOGIT = st.one_of(
    st.sampled_from([-700.0, -1.5, 0.0, 0.25, 1.5, 700.0]),
    st.floats(-60.0, 60.0, allow_nan=False),
)
_LOGITS = st.integers(2, 7).flatmap(
    lambda c: st.lists(st.lists(_LOGIT, min_size=c, max_size=c), min_size=1, max_size=40)
).map(np.array)


@settings(max_examples=150, deadline=None)
@given(_LOGITS, st.data())
def test_class_major_reductions_match_the_row_wise_bits(logits, data):
    n, c = logits.shape
    probs = softmax(logits)
    np.testing.assert_array_equal(probs, row_softmax(logits))
    assert probs.flags.c_contiguous
    log_probs = log_softmax(logits)
    np.testing.assert_array_equal(log_probs, row_log_softmax(logits))
    assert log_probs.flags.c_contiguous

    labels = np.array(data.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    loss, dlogits = cross_entropy(logits, labels)
    expected_loss, expected_dlogits = row_cross_entropy(logits, labels)
    assert loss == expected_loss
    np.testing.assert_array_equal(dlogits, expected_dlogits)

    np.testing.assert_array_equal(SoftPrediction(probs).hard, probs.argmax(axis=1))
    entropy, (probs_e, log_probs_e, entropies) = _entropy_terms(logits)
    np.testing.assert_array_equal(entropies, row_entropy(probs_e, log_probs_e))
    assert entropy == float(row_entropy(probs_e, log_probs_e).mean())


@pytest.mark.parametrize("c", [8, 13])
def test_class_major_reductions_agree_to_round_off_from_eight_classes(c):
    # From 8 terms numpy's row-wise sum is pairwise, so the order differs.
    logits = 20.0 * np.random.default_rng(c).normal(size=(300, c))
    np.testing.assert_allclose(softmax(logits), row_softmax(logits), rtol=1e-14, atol=0)
    np.testing.assert_allclose(
        log_softmax(logits), row_log_softmax(logits), rtol=1e-13, atol=1e-13
    )
    probs = softmax(logits)
    np.testing.assert_array_equal(SoftPrediction(probs).hard, probs.argmax(axis=1))


def row_wise_prediction(variant, model, cache, keep_per_class=20):
    """erm or t3a with every class reduction taken row by row, as a reference.

    Both score linear heads on Z = mix·A without building Z: the classifier,
    and T3A's 2Pᵀ with bias −‖p_c‖² (softmax(−‖z − p_c‖²) without ‖z‖²).
    """
    mix = mix_hops(cache, model.gamma)
    affine = affine_matrix(model.scale, model.shift)
    logits = mix @ (affine @ model.W_cls) + model.b_cls
    probs = row_softmax(logits)
    if variant == "erm":
        return probs
    hard = probs.argmax(axis=1)
    node_entropy = row_entropy(probs, row_log_softmax(logits))
    prototypes = []
    for c in range(model.W_cls.shape[1]):
        members = np.flatnonzero(hard == c)
        order = members[np.argsort(node_entropy[members], kind="stable")]
        prototypes.append(mix[order[:keep_per_class]].mean(axis=0) @ affine)
    prototypes = np.stack(prototypes)
    norms = (prototypes**2).sum(axis=1)
    return row_softmax(mix @ (affine @ (2.0 * prototypes.T)) - norms)


@pytest.mark.parametrize("variant", ["erm", "t3a"])
def test_base_predict_matches_the_row_wise_pipeline_bits(tiny_model, tiny_target, variant):
    cache = featurize_hops(tiny_model, tiny_target, PropagationOperator(tiny_target.graph))
    got = base_predict(BaseTtaKind(variant), tiny_model, cache, tiny_target)
    np.testing.assert_array_equal(got.probs, row_wise_prediction(variant, tiny_model, cache))
