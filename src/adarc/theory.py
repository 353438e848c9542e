"""Closed-form accuracy oracle for the single-layer model on the CSBM.

For a row-normalized one-hop aggregation z = x + γ·(mean of neighbor
features) on a two-class CSBM with centers ±μ, average degree d and
homophily h, the class-conditional representation is Gaussian with mean
±(1+γ(2h−1))·μ and isotropic variance 1 + γ²/d. The Bayes-aligned linear
classifier w = sign(1+γ(2h−1))·μ/‖μ‖ then achieves expected accuracy

    Φ( √(d/(d+γ²)) · |1+γ(2h−1)| · ‖μ‖ ),

maximized at γ = d(2h−1). A Monte-Carlo sampler validates the closed
forms independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TheoryPoint",
    "AttributeShiftAccuracy",
    "closed_form_accuracy",
    "optimal_gamma",
    "attribute_shift_accuracy",
    "monte_carlo_accuracy",
]


@dataclass(frozen=True)
class TheoryPoint:
    """One evaluation point of the closed-form oracle."""

    mu_norm: float
    d: float
    h: float
    gamma: float

    def __post_init__(self) -> None:
        if not 0 <= self.mu_norm < math.inf:
            raise ValueError("mu_norm must be finite and >= 0")
        if not 1 <= self.d < math.inf:
            raise ValueError("d must be finite and >= 1")
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must lie in [0, 1]")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        try:
            self.gamma**2
        except OverflowError:
            raise ValueError(f"gamma={self.gamma!r} is too large: gamma**2 overflows") from None


def std_normal_cdf(x: float) -> float:
    """Φ(x) via erfc; absolute error below 1e-7 everywhere."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _signal_coefficient(point: TheoryPoint) -> float:
    return 1.0 + point.gamma * (2.0 * point.h - 1.0)


def _representation_distribution(
    point: TheoryPoint, class_sign: int, mu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Mean vector and isotropic variance scale of one class's representation.

    mean = (1+γh)·(sign·μ) + γ(1−h)·(−sign·μ); variance_scale = 1 + γ²/d.
    """
    if class_sign not in (1, -1):
        raise ValueError("class_sign must be +1 or -1")
    mu = np.asarray(mu, dtype=np.float64)
    g, h = point.gamma, point.h
    mean = (1.0 + g * h) * (class_sign * mu) + g * (1.0 - h) * (-class_sign * mu)
    variance_scale = 1.0 + g * g / point.d
    return mean, variance_scale


def closed_form_accuracy(point: TheoryPoint) -> float:
    """Expected accuracy of the Bayes-aligned linear classifier."""
    snr = math.sqrt(point.d / (point.d + point.gamma**2))
    return std_normal_cdf(snr * abs(_signal_coefficient(point)) * point.mu_norm)


def optimal_gamma(d: float, h: float) -> float:
    """Accuracy-maximizing hop weight γ* = d(2h−1).

    At γ*, closed_form_accuracy equals Φ(√(1+(2h−1)²d)·‖μ‖).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return d * (2.0 * h - 1.0)


@dataclass(frozen=True)
class AttributeShiftAccuracy:
    """Accuracy under a translation Δμ of both centers, with regime flag."""

    accuracy: float
    in_regime: bool


def attribute_shift_accuracy(
    point: TheoryPoint, cos_sim: float, delta_mu_norm: float
) -> AttributeShiftAccuracy:
    """Accuracy of the stale source classifier under attribute shift.

    Averages the two class-conditional accuracies: ½Φ(x₀+Δx) + ½Φ(x₀−Δx)
    with x₀ the unshifted argument and Δx = √(d/(d+γ²))·|1+γ|·cos_sim·‖Δμ‖.
    The admissible regime is ‖Δμ‖ < |1+γ(2h−1)|/|1+γ|·‖μ‖; outside it the
    value is still returned but flagged. ``cos_sim`` must lie in [−1, 1].
    """
    if not 0 <= delta_mu_norm < math.inf:
        raise ValueError("delta_mu_norm must be finite and >= 0")
    if not -1.0 <= cos_sim <= 1.0:
        raise ValueError("cos_sim must lie in [-1, 1]")
    snr = math.sqrt(point.d / (point.d + point.gamma**2))
    coeff = abs(_signal_coefficient(point))
    shift_gain = abs(1.0 + point.gamma)
    x0 = snr * coeff * point.mu_norm
    dx = snr * shift_gain * cos_sim * delta_mu_norm
    accuracy = 0.5 * std_normal_cdf(x0 + dx) + 0.5 * std_normal_cdf(x0 - dx)
    in_regime = shift_gain * delta_mu_norm < coeff * point.mu_norm
    return AttributeShiftAccuracy(accuracy=float(accuracy), in_regime=in_regime)


def monte_carlo_accuracy(
    point: TheoryPoint, mu: np.ndarray, trials: int, seed: int
) -> float:
    """Sampled accuracy of the closed form's classifier; independent oracle.

    Draws balanced classes from the representation distribution and
    classifies with w = sign(1+γ(2h−1))·μ/‖μ‖, b = 0.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    mu = np.asarray(mu, dtype=np.float64)
    norm = float(np.linalg.norm(mu))
    if norm == 0.0:
        raise ValueError("monte_carlo_accuracy requires ‖μ‖ > 0")
    rng = np.random.default_rng(seed)
    w = math.copysign(1.0, _signal_coefficient(point)) * mu / norm

    n_pos = trials // 2 + trials % 2
    n_neg = trials // 2
    correct = 0
    for sign, count in ((1, n_pos), (-1, n_neg)):
        if count == 0:
            continue
        mean, variance_scale = _representation_distribution(point, sign, mu)
        z = mean[None, :] + math.sqrt(variance_scale) * rng.standard_normal(
            (count, mu.shape[0])
        )
        scores = z @ w
        correct += int(np.count_nonzero(sign * scores > 0))
    return correct / trials

