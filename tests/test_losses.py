"""Surrogate losses: variance decomposition, gradients, invariances, bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    LOSS_KINDS,
    BaseTtaKind,
    DegenerateRepresentationError,
    HopCache,
    PropagationOperator,
    aggregate,
    base_predict,
    build_graph,
    featurize_hops,
    init_model,
    softmax,
    surrogate_loss_and_grad_gamma,
)

from oracle_utils import (
    brute_variances,
    dense_hops,
    extended_variance_ratio,
    fd_grad,
    random_instance,
    relative_error,
    with_f64_features,
)


def given_cache(features, num_hops=0, graph=None, mode="sym"):
    """A hop cache whose hop 0 is [features | 1] on ``graph`` (edgeless by default).

    The losses read only hop 0, the operator and K.
    """
    n, h = features.shape
    graph = graph if graph is not None else build_graph([], n)
    return HopCache(
        hop0=np.concatenate([features, np.ones((n, 1))], axis=1),
        mean=np.zeros(h),
        var=np.ones(h),
        theta=(),
        op=PropagationOperator(graph, mode),
        num_hops=num_hops,
    )


def z_space(Z, num_classes=2):
    """(model, cache) whose surrogate acts on exactly Z.

    The cache is K=0 with the single hop [Z | 1]; at γ=[1], scale 1 and
    shift 0 it aggregates to Z itself.
    """
    Z = np.asarray(Z, dtype=np.float64)
    model = init_model(1, Z.shape[1], num_classes, 0, seed=0)
    model.gamma[:] = 1.0
    return model, given_cache(Z)


def z_space_losses(Z, probs):
    """(PIC, diff) of exactly Z under ``probs``."""
    model, cache = z_space(Z, probs.shape[1])
    return tuple(
        surrogate_loss_and_grad_gamma(kind, model, cache, probs)[0]
        for kind in ("pic", "diff")
    )


def random_stack_problem(rng):
    """(model, cache, probs): random features, graph, operator, γ, affine and predictions."""
    n, h, c, k = (int(rng.integers(lo, hi)) for lo, hi in ((4, 13), (1, 5), (2, 5), (1, 4)))
    model = init_model(1, h, c, k, seed=int(rng.integers(1 << 30)))
    model.gamma[:] = rng.normal(size=k + 1)
    model.scale[:] = rng.uniform(0.5, 1.5, size=h)
    model.shift[:] = rng.normal(scale=0.5, size=h)
    graph = build_graph(rng.integers(0, n, size=(2 * n, 2)), n)
    mode = str(rng.choice(["row", "sym"]))
    cache = given_cache(rng.normal(size=(n, h)), k, graph, mode)
    probs = rng.dirichlet(np.full(c, rng.uniform(0.3, 3.0)), size=n)
    return model, cache, probs


def test_pic_hand_example():
    # four points on a line, two hard clusters {0,1} and {3,4}:
    # σ²_intra = 4·0.25 = 1, σ² = 4+1+1+4 = 10, σ²_inter = 9, loss = 0.1
    Z = np.array([[0.0], [1.0], [3.0], [4.0]])
    probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    model, cache = z_space(Z)
    pic, pic_grad = surrogate_loss_and_grad_gamma("pic", model, cache, probs)
    diff, diff_grad = surrogate_loss_and_grad_gamma("diff", model, cache, probs)
    assert pic == pytest.approx(0.1)
    assert diff == pytest.approx(1.0 - 9.0)
    # PIC is scale invariant in the single γ; diff = γ²(σ²_intra − σ²_inter).
    np.testing.assert_allclose(pic_grad, [0.0], atol=1e-15)
    np.testing.assert_allclose(diff_grad, [2.0 * (1.0 - 9.0)])


def test_variance_terms_match_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(50):
        Z, probs = random_instance(rng, hard=bool(trial % 2))
        pic, diff = z_space_losses(Z, probs)
        intra, inter, total = brute_variances(Z, probs)
        assert pic == pytest.approx(intra / total, rel=1e-9, abs=1e-12)
        assert abs(diff - (intra - inter)) <= 1e-9 * total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_variance_decomposition_property(seed, hard):
    # The hop-space path takes σ²_intra as σ² − σ²_inter; the oracle sums
    # σ²_intra directly, so agreement certifies the decomposition.
    Z, probs = random_instance(np.random.default_rng(seed), hard=hard)
    pic, _ = z_space_losses(Z, probs)
    intra, _, total = brute_variances(Z, probs)
    assert pic == pytest.approx(intra / total, rel=1e-9, abs=1e-12)
    assert 0.0 <= pic <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pic_scale_and_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    Z, probs = random_instance(rng)
    base = z_space_losses(Z, probs)[0]
    c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
    t = rng.normal(size=Z.shape[1])
    assert z_space_losses(c * Z, probs)[0] == pytest.approx(base, rel=1e-10)
    assert z_space_losses(Z + t[None, :], probs)[0] == pytest.approx(base, rel=1e-10)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_surrogate_gamma_grad_matches_fd_on_random_stacks(kind):
    rng = np.random.default_rng(1)
    for _ in range(20):
        model, cache, probs = random_stack_problem(rng)

        def value(gamma):
            probe = model.copy()
            probe.gamma[:] = gamma
            return surrogate_loss_and_grad_gamma(kind, probe, cache, probs)[0]

        analytic = surrogate_loss_and_grad_gamma(kind, model, cache, probs)[1]
        numeric = fd_grad(value, model.gamma)
        assert relative_error(analytic, numeric) < 1e-4


def test_pic_and_diff_grad_gamma_euler_relations():
    # PIC is invariant to scaling γ and diff is quadratic in it, so by Euler's
    # relation γ·∇PIC = 0 and γ·∇diff = 2·diff.
    rng = np.random.default_rng(2)
    for _ in range(200):
        model, cache, probs = random_stack_problem(rng)
        scale = np.linalg.norm(model.gamma)
        _, g = surrogate_loss_and_grad_gamma("pic", model, cache, probs)
        assert abs(float(g @ model.gamma)) <= 1e-10 + 1e-8 * np.linalg.norm(g) * scale
        diff, g = surrogate_loss_and_grad_gamma("diff", model, cache, probs)
        assert float(g @ model.gamma) == pytest.approx(2.0 * diff, rel=1e-8, abs=1e-10)


def test_surrogate_gamma_gradients_fd(tiny_model, tiny_target, tiny_op):
    cache = featurize_hops(tiny_model, tiny_target, tiny_op)
    prediction = base_predict(BaseTtaKind(), tiny_model, cache, tiny_target)

    for kind in LOSS_KINDS:
        model = tiny_model.copy()
        _, analytic = surrogate_loss_and_grad_gamma(kind, model, cache, prediction)

        def value(gamma):
            probe = tiny_model.copy()
            probe.gamma[:] = gamma
            return surrogate_loss_and_grad_gamma(kind, probe, cache, prediction)[0]

        numeric = fd_grad(value, model.gamma)
        assert relative_error(analytic, numeric) < 1e-4, kind


def test_entropy_and_pseudo_hand_values():
    logits = np.log(np.array([[0.5, 0.5], [0.9, 0.1]]))
    model, cache = z_space(logits)
    model.W_cls[:] = np.eye(2)  # so Z is the logits; b_cls is zero
    probs = softmax(logits)
    expected = (np.log(2.0) + -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))) / 2.0
    entropy = surrogate_loss_and_grad_gamma("entropy", model, cache, probs)[0]
    assert entropy == pytest.approx(expected)
    # pseudo-label CE against the argmax of the prediction; ties at 0.5 break low
    expected_pl = (-np.log(0.5) - np.log(0.9)) / 2.0
    pseudo = surrogate_loss_and_grad_gamma("pseudo", model, cache, probs)[0]
    assert pseudo == pytest.approx(expected_pl)


def test_degenerate_representations_raise():
    model, cache = z_space(np.ones((8, 3)))  # zero variance
    probs = np.full((8, 2), 0.5)
    for kind in ("pic", "diff"):
        with pytest.raises(DegenerateRepresentationError):
            surrogate_loss_and_grad_gamma(kind, model, cache, probs)


def test_empty_class_is_tolerated():
    Z = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, -1.0]])
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    model, cache = z_space(Z, num_classes=3)  # class 2 has zero mass
    intra, _, total = brute_variances(Z, probs)
    loss, g = surrogate_loss_and_grad_gamma("pic", model, cache, probs)
    assert loss == pytest.approx(intra / total, rel=1e-12)
    assert np.all(np.isfinite(g))


def test_unknown_loss_kind_rejected():
    model, cache = z_space(np.eye(3, 2))
    with pytest.raises(ValueError, match="unknown loss kind"):
        surrogate_loss_and_grad_gamma("nosuch", model, cache, np.full((3, 2), 0.5))


# --- hop-space surrogate: pic and diff from the hop cache's moments ---


def shifted_affine_model(tiny_model):
    """A copy with a non-identity scale and a nonzero shift."""
    rng = np.random.default_rng(5)
    model = tiny_model.copy()
    model.scale[:] = rng.uniform(0.5, 1.5, size=model.scale.shape)
    model.shift[:] = rng.normal(scale=0.5, size=model.shift.shape)
    return model


def hop_space_predictions(model, cache, target):
    """The ERM prediction, a soft random one and one with an empty class."""
    rng = np.random.default_rng(6)
    n = target.num_nodes
    erm = base_predict(BaseTtaKind(), model, cache, target).probs
    soft = rng.dirichlet(np.ones(3), size=n)
    empty = np.zeros((n, 3))
    empty[:, :2] = rng.dirichlet(np.ones(2), size=n)  # class 2 has W_c = 0
    return {"erm": erm, "soft": soft, "empty-class": empty}


def extended_reference(kind, model, target, probs):
    """Loss and γ-gradient of ``kind`` from ``extended_variance_ratio`` on the dense stack."""
    total, inter, d_total, d_inter = extended_variance_ratio(
        dense_hops(model, target), model.gamma, model.scale, model.shift, probs
    )
    if kind == "pic":
        loss = (total - inter) / total
        grad = (inter * d_total - total * d_inter) / total**2
    else:
        loss = total - 2 * inter
        grad = d_total - 2 * d_inter
    return float(loss), grad.astype(np.float64)


@pytest.mark.parametrize("kind", ["pic", "diff"])
def test_hop_space_surrogate_matches_references(kind, tiny_model, tiny_target, tiny_op):
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("the extended-precision oracle needs an 80-bit long double")
    model = shifted_affine_model(tiny_model)
    target = with_f64_features(tiny_target)
    cache = featurize_hops(model, target, tiny_op)
    for name, probs in hop_space_predictions(model, cache, target).items():
        loss, grad = surrogate_loss_and_grad_gamma(kind, model, cache, probs)
        true_loss, true_grad = extended_reference(kind, model, target, probs)
        assert abs(loss - true_loss) <= 1e-12 * abs(true_loss), name
        assert relative_error(grad, true_grad) <= 1e-12, name


def test_hop_space_surrogate_matches_brute_force_variances(tiny_model, tiny_target, tiny_op):
    # The f64 loops of ``brute_variances`` on the built Z: a check that needs
    # no 80-bit long double, so it runs on every platform.
    model = shifted_affine_model(tiny_model)
    cache = featurize_hops(model, tiny_target, tiny_op)
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    for name, probs in hop_space_predictions(model, cache, tiny_target).items():
        intra, inter, total = brute_variances(Z, probs)
        pic = surrogate_loss_and_grad_gamma("pic", model, cache, probs)[0]
        diff = surrogate_loss_and_grad_gamma("diff", model, cache, probs)[0]
        assert abs(pic - intra / total) <= 1e-9 * (intra / total), name
        assert abs(diff - (intra - inter)) <= 1e-9 * abs(intra - inter), name


def test_hop_space_surrogate_skips_an_empty_class(tiny_model, tiny_target, tiny_op):
    # A zero-mass class contributes nothing: the loss is that of the two
    # occupied columns alone, and W_c = 0 is never divided by (a 0/0 would
    # be a RuntimeWarning, which the suite turns into an error).
    model = shifted_affine_model(tiny_model)
    cache = featurize_hops(model, tiny_target, tiny_op)
    probs = hop_space_predictions(model, cache, tiny_target)["empty-class"]
    for kind in ("pic", "diff"):
        with_empty = surrogate_loss_and_grad_gamma(kind, model, cache, probs)
        without = surrogate_loss_and_grad_gamma(kind, model, cache, probs[:, :2])
        assert with_empty[0] == pytest.approx(without[0], rel=1e-14)
        np.testing.assert_allclose(with_empty[1], without[1], rtol=1e-13, atol=0)


def test_hop_space_surrogate_degeneracy_threshold(tiny_model, tiny_target, tiny_op):
    model = shifted_affine_model(tiny_model)
    cache = featurize_hops(model, tiny_target, tiny_op)
    probs = np.full((tiny_target.num_nodes, 2), 0.5)
    eps = 1e-12 * tiny_target.num_nodes * model.scale.shape[0]  # 1e-12·N·H
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    sigma_sq = float(((Z - Z.mean(axis=0)) ** 2).sum())
    unit = model.gamma / np.sqrt(sigma_sq)  # σ² = 1 at this γ
    for kind in ("pic", "diff"):
        # σ² is quadratic in γ: zero, half the threshold, then twice it.
        for gamma in (0.0 * unit, np.sqrt(0.5 * eps) * unit):
            model.gamma[:] = gamma
            with pytest.raises(DegenerateRepresentationError):
                surrogate_loss_and_grad_gamma(kind, model, cache, probs)
        model.gamma[:] = np.sqrt(2.0 * eps) * unit
        surrogate_loss_and_grad_gamma(kind, model, cache, probs)


@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_surrogate_rejects_rows_that_do_not_sum_to_one(
    kind, tiny_model, tiny_target, tiny_op
):
    cache = featurize_hops(tiny_model, tiny_target, tiny_op)
    probs = np.full((tiny_target.num_nodes, 2), 0.55)
    with pytest.raises(ValueError, match="sum to 1"):
        surrogate_loss_and_grad_gamma(kind, tiny_model, cache, probs)


def test_surrogate_propagate_calls(tiny_model, tiny_target, tiny_op):
    # On a cache of the model's head whose moments are built: pic and diff
    # propagate Ŷ, K calls per call; entropy and pseudo read the class scores.
    cache = featurize_hops(tiny_model, tiny_target, tiny_op)
    prediction = base_predict(BaseTtaKind(), tiny_model, cache, tiny_target)
    cache.moments
    for kind, calls in [("pic", 1), ("diff", 1), ("entropy", 0), ("pseudo", 0)]:
        before = tiny_op.calls
        surrogate_loss_and_grad_gamma(kind, tiny_model, cache, prediction)
        assert tiny_op.calls - before == calls * tiny_model.num_hops, kind


def test_one_occupied_class_has_no_between_class_variance():
    # Every node in one class: σ²_inter = 0, so PIC is 1 with a zero gradient
    # and diff is σ²; no class is left to propagate.
    rng = np.random.default_rng(4)
    model, cache, probs = random_stack_problem(rng)
    one = np.zeros_like(probs)
    one[:, -1] = 1.0
    pic, pic_grad = surrogate_loss_and_grad_gamma("pic", model, cache, one)
    diff, _ = surrogate_loss_and_grad_gamma("diff", model, cache, one)
    assert pic == 1.0
    np.testing.assert_array_equal(pic_grad, 0.0)
    total_gram = cache.moments.total_gram(model.scale, model.shift)
    assert diff == pytest.approx(float(model.gamma @ total_gram @ model.gamma), rel=1e-12)
