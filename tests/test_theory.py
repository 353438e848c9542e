"""Closed-form accuracy oracle vs independent anchors and simulation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from adarc import (
    TheoryPoint,
    attribute_shift_accuracy,
    closed_form_accuracy,
    monte_carlo_accuracy,
    optimal_gamma,
)
from adarc.theory import _representation_distribution, std_normal_cdf


def phi(x: float) -> float:
    """Independent Φ via erf, for hand anchors."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_std_normal_cdf_matches_erf():
    for x in (-3.0, -0.5, 0.0, 0.7, 2.5):
        assert std_normal_cdf(x) == pytest.approx(phi(x), abs=1e-12)


def test_gamma_zero_reduces_to_raw_feature_bayes():
    # with no propagation the representation is the raw feature, so the
    # accuracy is exactly Φ(‖μ‖) regardless of d and h
    for m in (0.3, 1.0, 1.5):
        for d, h in ((2.0, 0.1), (5.0, 0.8), (50.0, 0.5)):
            point = TheoryPoint(mu_norm=m, d=d, h=h, gamma=0.0)
            assert closed_form_accuracy(point) == pytest.approx(phi(m), abs=1e-12)


def test_representation_distribution_moments():
    mu = np.array([0.6, -0.2, 0.1])
    point = TheoryPoint(mu_norm=float(np.linalg.norm(mu)), d=4.0, h=0.7, gamma=1.5)
    mean_pos, var = _representation_distribution(point, 1, mu)
    mean_neg, var_neg = _representation_distribution(point, -1, mu)
    coeff = 1.0 + 1.5 * (2 * 0.7 - 1.0)
    np.testing.assert_allclose(mean_pos, coeff * mu, atol=1e-12)
    np.testing.assert_allclose(mean_neg, -coeff * mu, atol=1e-12)
    assert var == var_neg == pytest.approx(1.0 + 1.5**2 / 4.0)
    with pytest.raises(ValueError):
        _representation_distribution(point, 0, mu)


def test_optimal_gamma_is_grid_argmax():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = float(rng.uniform(1.0, 20.0))
        h = float(rng.uniform(0.0, 1.0))
        m = float(rng.uniform(0.2, 2.0))
        gamma_star = optimal_gamma(d, h)
        span = max(3.0 * abs(gamma_star), 3.0)
        grid = np.linspace(gamma_star - span, gamma_star + span, 400)
        accs = [
            closed_form_accuracy(TheoryPoint(mu_norm=m, d=d, h=h, gamma=g))
            for g in grid
        ]
        best = grid[int(np.argmax(accs))]
        step = grid[1] - grid[0]
        assert abs(best - gamma_star) <= step + 1e-12


def test_optimal_gamma_formula_and_edge_cases():
    assert optimal_gamma(5.0, 0.8) == pytest.approx(3.0)
    assert optimal_gamma(5.0, 0.2) == pytest.approx(-3.0)
    assert optimal_gamma(7.0, 0.5) == 0.0
    with pytest.raises(ValueError):
        optimal_gamma(0.5, 0.8)
    # docstring identity: accuracy at γ* is Φ(√(1+(2h−1)²d)·‖μ‖)
    d, h, m = 6.0, 0.75, 0.8
    point = TheoryPoint(mu_norm=m, d=d, h=h, gamma=optimal_gamma(d, h))
    expected = phi(math.sqrt(1.0 + (2 * h - 1) ** 2 * d) * m)
    assert closed_form_accuracy(point) == pytest.approx(expected, abs=1e-12)


def test_monte_carlo_agrees_with_closed_form():
    rng = np.random.default_rng(1)
    for trial in range(8):
        d = float(rng.uniform(1.5, 15.0))
        h = float(rng.uniform(0.05, 0.95))
        gamma = float(rng.uniform(-3.0, 3.0))
        dim = int(rng.integers(2, 10))
        mu = rng.normal(size=dim)
        mu *= rng.uniform(0.3, 1.5) / np.linalg.norm(mu)
        point = TheoryPoint(mu_norm=float(np.linalg.norm(mu)), d=d, h=h, gamma=gamma)
        trials = 40_000
        acc_mc = monte_carlo_accuracy(point, mu, trials=trials, seed=trial)
        acc_cf = closed_form_accuracy(point)
        sigma = math.sqrt(max(acc_cf * (1 - acc_cf), 1e-12) / trials)
        assert abs(acc_mc - acc_cf) <= 4.0 * sigma + 1e-9


def test_closed_form_against_explicit_neighborhood_simulation():
    # simulate the actual generative story: a node with exactly d neighbors,
    # each same-class with probability h, features N(±μ, I), representation
    # x + γ·(neighbor mean). Mean-field label mixing is the only
    # approximation, so with a moderate μ the match is sub-percent.
    rng = np.random.default_rng(7)
    d, h, gamma = 8, 0.7, 1.2
    mu = np.array([0.4, -0.25, 0.1, 0.05])
    m = float(np.linalg.norm(mu))
    point = TheoryPoint(mu_norm=m, d=float(d), h=h, gamma=gamma)
    w = mu / m
    trials = 200_000
    correct = 0
    for sign in (1, -1):
        count = trials // 2
        same = rng.random((count, d)) < h
        neighbor_signs = np.where(same, sign, -sign)
        neigh_means = (
            neighbor_signs.mean(axis=1)[:, None] * mu[None, :]
            + rng.standard_normal((count, mu.size)) / math.sqrt(d)
        )
        x = sign * mu[None, :] + rng.standard_normal((count, mu.size))
        z = x + gamma * neigh_means
        correct += int(np.count_nonzero(sign * (z @ w) > 0))
    simulated = correct / trials
    assert closed_form_accuracy(point) == pytest.approx(simulated, abs=0.01)


def test_attribute_shift_hand_anchor_at_gamma_zero():
    m, delta, cos = 1.2, 0.5, 0.6
    point = TheoryPoint(mu_norm=m, d=5.0, h=0.8, gamma=0.0)
    out = attribute_shift_accuracy(point, cos_sim=cos, delta_mu_norm=delta)
    expected = 0.5 * (phi(m + cos * delta) + phi(m - cos * delta))
    assert out.accuracy == pytest.approx(expected, abs=1e-12)
    assert out.in_regime  # 0.5 < 1.2


def test_attribute_shift_zero_delta_matches_closed_form():
    point = TheoryPoint(mu_norm=0.9, d=4.0, h=0.3, gamma=-0.8)
    out = attribute_shift_accuracy(point, cos_sim=1.0, delta_mu_norm=0.0)
    assert out.accuracy == pytest.approx(closed_form_accuracy(point), abs=1e-12)
    assert out.in_regime


def test_attribute_shift_regime_flag():
    point = TheoryPoint(mu_norm=1.0, d=5.0, h=0.8, gamma=1.0)
    # regime boundary: |1+γ|·δ < |1+γ(2h−1)|·‖μ‖ → 2δ < 1.6
    assert attribute_shift_accuracy(point, 1.0, 0.79).in_regime
    assert not attribute_shift_accuracy(point, 1.0, 0.81).in_regime
    with pytest.raises(ValueError):
        attribute_shift_accuracy(point, 1.0, -0.1)
    for delta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="delta_mu_norm must be finite"):
            attribute_shift_accuracy(point, 1.0, delta)
    for cos_sim in (5.0, -1.5, math.nan):
        with pytest.raises(ValueError, match="cos_sim must lie in"):
            attribute_shift_accuracy(point, cos_sim, 0.5)


def test_attribute_shift_always_hurts_within_regime():
    point = TheoryPoint(mu_norm=1.0, d=5.0, h=0.8, gamma=2.0)
    base = closed_form_accuracy(point)
    for delta in (0.1, 0.3, 0.5):
        shifted = attribute_shift_accuracy(point, 1.0, delta)
        assert shifted.accuracy < base  # Φ is concave right of the mean


def test_theory_point_validation():
    with pytest.raises(ValueError):
        TheoryPoint(mu_norm=-0.1, d=5.0, h=0.5, gamma=0.0)
    with pytest.raises(ValueError):
        TheoryPoint(mu_norm=1.0, d=0.2, h=0.5, gamma=0.0)
    with pytest.raises(ValueError):
        TheoryPoint(mu_norm=1.0, d=5.0, h=1.5, gamma=0.0)
    for field in ("mu_norm", "d", "gamma"):
        for value in (math.nan, math.inf, -math.inf):
            values = {"mu_norm": 1.0, "d": 5.0, "h": 0.5, "gamma": 0.0, field: value}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TheoryPoint(**values)



def test_monte_carlo_validation():
    point = TheoryPoint(mu_norm=1.0, d=5.0, h=0.8, gamma=1.0)
    with pytest.raises(ValueError):
        monte_carlo_accuracy(point, np.array([1.0]), trials=0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_accuracy(point, np.zeros(3), trials=10, seed=0)