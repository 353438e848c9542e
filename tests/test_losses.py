"""Surrogate losses: variance decomposition, gradients, invariances, bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    BaseTtaKind,
    DegenerateRepresentationError,
    aggregate,
    base_predict,
    entropy_from_logits,
    featurize_hops,
    init_model,
    pic_loss,
    softmax,
    surrogate_loss_and_grad_gamma,
)
from adarc.losses import LOSS_KINDS, loss_and_grad_z
from adarc.model import gamma_grad_from_dz

from oracle_utils import (
    brute_variances,
    extended_variance_ratio,
    fd_grad,
    random_instance,
    relative_error,
)


def test_pic_hand_example(tiny_model):
    # four points on a line, two hard clusters {0,1} and {3,4}:
    # σ²_intra = 4·0.25 = 1, σ² = 4+1+1+4 = 10, loss = 0.1
    Z = np.array([[0.0], [1.0], [3.0], [4.0]])
    probs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    out = pic_loss(Z, probs)
    assert out.sigma_intra_sq == pytest.approx(1.0)
    assert out.sigma_sq == pytest.approx(10.0)
    assert out.sigma_inter_sq == pytest.approx(9.0)
    assert out.loss == pytest.approx(0.1)
    np.testing.assert_allclose(out.centroids, [[0.5], [3.5]])
    assert loss_and_grad_z("diff", Z, probs, tiny_model)[0] == pytest.approx(1.0 - 9.0)


def test_variance_terms_match_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(50):
        Z, probs = random_instance(rng, hard=bool(trial % 2))
        out = pic_loss(Z, probs)
        intra, inter, total = brute_variances(Z, probs)
        assert out.sigma_intra_sq == pytest.approx(intra, rel=1e-9, abs=1e-12)
        assert out.sigma_inter_sq == pytest.approx(inter, rel=1e-9, abs=1e-12)
        assert out.sigma_sq == pytest.approx(total, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_variance_decomposition_property(seed, hard):
    Z, probs = random_instance(np.random.default_rng(seed), hard=hard)
    out = pic_loss(Z, probs)
    assert out.sigma_intra_sq + out.sigma_inter_sq == pytest.approx(
        out.sigma_sq, rel=1e-9
    )
    assert 0.0 <= out.loss <= 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pic_scale_and_translation_invariance(seed):
    rng = np.random.default_rng(seed)
    Z, probs = random_instance(rng)
    base = pic_loss(Z, probs).loss
    c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
    t = rng.normal(size=Z.shape[1])
    assert pic_loss(c * Z, probs).loss == pytest.approx(base, rel=1e-10)
    assert pic_loss(Z + t[None, :], probs).loss == pytest.approx(base, rel=1e-10)


def test_pic_grad_z_matches_finite_differences(tiny_model):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        Z, probs = random_instance(rng, max_nodes=12, max_dim=4)
        analytic = loss_and_grad_z("pic", Z, probs, tiny_model)[1]
        numeric = fd_grad(lambda z: pic_loss(z, probs).loss, Z)
        worst = max(worst, relative_error(analytic, numeric))
    assert worst < 1e-4


def test_pic_grad_z_euler_orthogonality(tiny_model):
    # scale invariance makes the gradient orthogonal to Z (Euler's relation)
    rng = np.random.default_rng(2)
    for _ in range(200):
        Z, probs = random_instance(rng)
        g = loss_and_grad_z("pic", Z, probs, tiny_model)[1]
        scale = np.linalg.norm(g) * np.linalg.norm(Z)
        assert abs(float((g * Z).sum())) <= 1e-10 + 1e-8 * scale


def test_diff_grad_z_matches_finite_differences(tiny_model):
    rng = np.random.default_rng(3)
    for _ in range(20):
        Z, probs = random_instance(rng, max_nodes=10, max_dim=3)
        analytic = loss_and_grad_z("diff", Z, probs, tiny_model)[1]
        numeric = fd_grad(lambda z: loss_and_grad_z("diff", z, probs, tiny_model)[0], Z)
        assert relative_error(analytic, numeric) < 1e-4


def test_loss_and_grad_z_all_kinds_fd(tiny_model):
    rng = np.random.default_rng(4)
    for kind in LOSS_KINDS:
        for _ in range(10):
            n = int(rng.integers(4, 12))
            Z = rng.normal(size=(n, tiny_model.W_cls.shape[0]))
            logits = Z @ tiny_model.W_cls + tiny_model.b_cls[None, :]
            probs = softmax(logits)
            analytic = loss_and_grad_z(kind, Z, probs, tiny_model)[1]
            numeric = fd_grad(
                lambda z: loss_and_grad_z(kind, z, probs, tiny_model)[0], Z
            )
            assert relative_error(analytic, numeric) < 1e-4, kind


def test_surrogate_gamma_gradients_fd(tiny_model, tiny_target, tiny_op):
    cache = featurize_hops(tiny_model, tiny_target, tiny_op)
    prediction = base_predict(BaseTtaKind(), tiny_model, cache, tiny_target)

    for kind in LOSS_KINDS:
        model = tiny_model.copy()
        _, analytic = surrogate_loss_and_grad_gamma(kind, model, cache, prediction)

        def value(gamma):
            probe = tiny_model.copy()
            probe.gamma[:] = gamma
            Z = aggregate(cache, probe.gamma, probe.scale, probe.shift)
            return loss_and_grad_z(kind, Z, prediction, probe)[0]

        numeric = fd_grad(value, model.gamma)
        assert relative_error(analytic, numeric) < 1e-4, kind


def test_entropy_and_pseudo_hand_values():
    logits = np.log(np.array([[0.5, 0.5], [0.9, 0.1]]))
    expected = (np.log(2.0) + -(0.9 * np.log(0.9) + 0.1 * np.log(0.1))) / 2.0
    assert entropy_from_logits(logits) == pytest.approx(expected)
    probs = softmax(logits)
    # pseudo-label CE against the argmax of the prediction; ties at 0.5 break low
    expected_pl = (-np.log(0.5) - np.log(0.9)) / 2.0
    identity_head = init_model(1, 2, 2, 1, seed=0)
    identity_head.W_cls[:] = np.eye(2)  # so Z is the logits; b_cls is zero
    pseudo = loss_and_grad_z("pseudo", logits, probs, identity_head)[0]
    assert pseudo == pytest.approx(expected_pl)


def test_degenerate_representations_raise(tiny_model):
    Z = np.ones((8, 3))  # zero variance
    probs = np.full((8, 2), 0.5)
    with pytest.raises(DegenerateRepresentationError):
        pic_loss(Z, probs)
    with pytest.raises(DegenerateRepresentationError):
        loss_and_grad_z("pic", Z, probs, tiny_model)


def test_empty_class_is_tolerated(tiny_model):
    Z = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, -1.0]])
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = pic_loss(Z, probs)  # class 2 has zero mass
    assert np.isfinite(out.loss)
    np.testing.assert_array_equal(out.centroids[2], 0.0)
    g = loss_and_grad_z("pic", Z, probs, tiny_model)[1]
    assert np.all(np.isfinite(g))


def test_unknown_loss_kind_rejected(tiny_model):
    with pytest.raises(ValueError):
        loss_and_grad_z("nosuch", np.ones((3, 2)), np.full((3, 2), 0.5), tiny_model)


# --- hop-space surrogate: pic and diff from the hop cache's moments ---


def shifted_affine_model(tiny_model):
    """A copy with a non-identity scale and a nonzero shift."""
    rng = np.random.default_rng(5)
    model = tiny_model.copy()
    model.scale[:] = rng.uniform(0.5, 1.5, size=model.scale.shape)
    model.shift[:] = rng.normal(scale=0.5, size=model.shift.shape)
    return model


def z_space_reference(kind, model, cache, probs):
    """``loss_and_grad_z`` on the built Z, chained back to γ."""
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    loss, dZ = loss_and_grad_z(kind, Z, probs, model)
    return loss, gamma_grad_from_dz(cache, dZ, model.scale, model.shift)


def hop_space_predictions(model, cache, target):
    """The ERM prediction, a soft random one and one with an empty class."""
    rng = np.random.default_rng(6)
    n = target.num_nodes
    erm = base_predict(BaseTtaKind(), model, cache, target).probs
    soft = rng.dirichlet(np.ones(3), size=n)
    empty = np.zeros((n, 3))
    empty[:, :2] = rng.dirichlet(np.ones(2), size=n)  # class 2 has W_c = 0
    return {"erm": erm, "soft": soft, "empty-class": empty}


def extended_reference(kind, model, cache, probs):
    """Loss and γ-gradient of ``kind`` from ``extended_variance_ratio``."""
    total, inter, d_total, d_inter = extended_variance_ratio(
        cache.hops, model.gamma, model.scale, model.shift, probs
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
    cache = featurize_hops(model, tiny_target, tiny_op)
    for name, probs in hop_space_predictions(model, cache, tiny_target).items():
        loss, grad = surrogate_loss_and_grad_gamma(kind, model, cache, probs)
        true_loss, true_grad = extended_reference(kind, model, cache, probs)
        assert abs(loss - true_loss) <= 1e-12 * abs(true_loss), name
        assert relative_error(grad, true_grad) <= 1e-12, name
        # The Z-space path is itself up to ~5e-12 off the extended-precision
        # gradient here (its PIC gradient subtracts L·(Z − z̄) from a nearly
        # equal term), so it is held to a looser bound than the oracle.
        ref_loss, ref_grad = z_space_reference(kind, model, cache, probs)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss), name
        assert relative_error(grad, ref_grad) <= 1e-11, name


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
    unit = model.gamma / np.sqrt(pic_loss(Z, probs).sigma_sq)  # σ² = 1 at this γ
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
