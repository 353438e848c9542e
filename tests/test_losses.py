"""Surrogate losses: variance decomposition, gradients, invariances, bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    BaseTtaKind,
    DegenerateRepresentationError,
    base_predict,
    diff_loss,
    entropy_from_logits,
    featurize_hops,
    pic_grad_z,
    pic_loss,
    pseudo_from_logits,
    softmax,
    surrogate_loss_and_grad_gamma,
)
from adarc.losses import LOSS_KINDS, diff_grad_z, loss_and_grad_z

from oracle_utils import brute_variances, fd_grad, random_instance, relative_error


def test_pic_hand_example():
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
    assert diff_loss(Z, probs) == pytest.approx(1.0 - 9.0)


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


def test_pic_grad_z_matches_finite_differences():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(30):
        Z, probs = random_instance(rng, max_nodes=12, max_dim=4)
        analytic = pic_grad_z(Z, probs)
        numeric = fd_grad(lambda z: pic_loss(z, probs).loss, Z)
        worst = max(worst, relative_error(analytic, numeric))
    assert worst < 1e-4


def test_pic_grad_z_euler_orthogonality():
    # scale invariance makes the gradient orthogonal to Z (Euler's relation)
    rng = np.random.default_rng(2)
    for _ in range(200):
        Z, probs = random_instance(rng)
        g = pic_grad_z(Z, probs)
        scale = np.linalg.norm(g) * np.linalg.norm(Z)
        assert abs(float((g * Z).sum())) <= 1e-10 + 1e-8 * scale


def test_diff_grad_z_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        Z, probs = random_instance(rng, max_nodes=10, max_dim=3)
        analytic = diff_grad_z(Z, probs)
        numeric = fd_grad(lambda z: diff_loss(z, probs), Z)
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
    from adarc import aggregate, classify

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
    assert pseudo_from_logits(logits, probs) == pytest.approx(expected_pl)


def test_degenerate_representations_raise():
    Z = np.ones((8, 3))  # zero variance
    probs = np.full((8, 2), 0.5)
    with pytest.raises(DegenerateRepresentationError):
        pic_loss(Z, probs)
    with pytest.raises(DegenerateRepresentationError):
        pic_grad_z(Z, probs)


def test_empty_class_is_tolerated():
    Z = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, -1.0]])
    probs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    out = pic_loss(Z, probs)  # class 2 has zero mass
    assert np.isfinite(out.loss)
    np.testing.assert_array_equal(out.centroids[2], 0.0)
    g = pic_grad_z(Z, probs)
    assert np.all(np.isfinite(g))


def test_unknown_loss_kind_rejected(tiny_model):
    with pytest.raises(ValueError):
        loss_and_grad_z("nosuch", np.ones((3, 2)), np.full((3, 2), 0.5), tiny_model)