"""Surrogate losses over representations and soft predictions.

The prediction-informed clustering (PIC) loss is the ratio
σ²_intra/σ² of soft-prediction-weighted intra-class variance to total
variance; the decomposition σ² = σ²_intra + σ²_inter holds exactly. It is
invariant to scaling and translation of the representations, so it cannot
be gamed by shrinking or shifting them.

All gradients treat the soft prediction Ŷ as a constant (no gradient flows
through the prediction branch). For the PIC loss this constant-centroid
gradient equals the full gradient: the centroid paths vanish identically,
which is exactly what the finite-difference oracle tests certify.

``loss_and_grad_z`` is the Z-space reference. For ``pic`` and ``diff``,
``surrogate_loss_and_grad_gamma`` never builds Z: with B_k = Ã^k [X̂ | 1] A,
b̄_k the mean row of B_k and Z = Σ_k γ_k B_k, each variance is a quadratic
form in γ (Fisher's LDA criterion over K+1 hop directions):

- σ² = γᵀ S_t γ, with S_t the Gram matrix of the centered B_k. It does not
  depend on Ŷ and comes from the hop cache's per-run moments
  (``HopCache.moments``) under any scale and shift.
- σ²_inter = Σ_c ‖Σ_k γ_k (Ŷ_cᵀ B_k − W_c b̄_k)‖² / W_c, with W_c = Σ_i Ŷ_ic.
  Ŷᵀ·hops is the one C×(K+1)×(H+1) contraction over N per call; classes with
  W_c = 0 are skipped.
- σ²_intra = σ² − σ²_inter, because the rows of Ŷ sum to 1 (checked at entry).

The γ-gradients are closed-form in (K+1)-space and agree with the Z-space
reference chained through ``gamma_grad_from_dz`` to round-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    aggregate,
    cross_entropy,
    gamma_grad_from_dz,
    log_softmax,
)

__all__ = [
    "LOSS_KINDS",
    "PicBreakdown",
    "DegenerateRepresentationError",
    "pic_loss",
    "entropy_from_logits",
    "entropy_grad_logits",
    "loss_and_grad_z",
    "surrogate_loss_and_grad_gamma",
]

LOSS_KINDS = ("pic", "entropy", "pseudo", "diff")


class DegenerateRepresentationError(ValueError):
    """Total variance too small for variance-ratio losses."""


@dataclass(frozen=True)
class PicBreakdown:
    """PIC loss value with its variance decomposition."""

    loss: float
    sigma_intra_sq: float
    sigma_inter_sq: float
    sigma_sq: float
    centroids: np.ndarray  # C×H; rows of skipped (empty) classes are zero
    global_centroid: np.ndarray  # H
    class_weights: np.ndarray  # C, Σ_i Ŷ_ic


def _as_probs(prediction: SoftPrediction | np.ndarray) -> np.ndarray:
    return prediction.probs if isinstance(prediction, SoftPrediction) else prediction


def _variance_terms(Z: np.ndarray, probs: np.ndarray) -> PicBreakdown:
    n, h = Z.shape
    weights = probs.sum(axis=0)  # C
    occupied = weights > 0.0
    centroids = np.zeros((probs.shape[1], h))
    if occupied.any():
        centroids[occupied] = (probs.T[occupied] @ Z) / weights[occupied, None]
    global_centroid = Z.mean(axis=0)

    diff_global = Z - global_centroid[None, :]
    sigma_sq = float((diff_global * diff_global).sum())

    # Direct difference forms: numerically stable under translation, and
    # arithmetically independent of each other so the decomposition identity
    # σ² = σ²_intra + σ²_inter is a genuine check rather than a tautology.
    sigma_intra_sq = 0.0
    sigma_inter_sq = 0.0
    for c in np.flatnonzero(occupied):
        diff_c = Z - centroids[c][None, :]
        sigma_intra_sq += float(probs[:, c] @ (diff_c * diff_c).sum(axis=1))
        cent_diff = centroids[c] - global_centroid
        sigma_inter_sq += float(weights[c] * (cent_diff @ cent_diff))

    eps = 1e-12 * n * h
    if sigma_sq < eps:
        raise DegenerateRepresentationError(
            f"total variance {sigma_sq:.3e} below degeneracy threshold {eps:.3e}"
        )
    return PicBreakdown(
        # The ratio is clamped to its mathematical range to absorb last-ulp
        # rounding; the sigma fields stay as computed.
        loss=min(max(sigma_intra_sq / sigma_sq, 0.0), 1.0),
        sigma_intra_sq=sigma_intra_sq,
        sigma_inter_sq=sigma_inter_sq,
        sigma_sq=sigma_sq,
        centroids=centroids,
        global_centroid=global_centroid,
        class_weights=weights,
    )


def pic_loss(Z: np.ndarray, prediction: SoftPrediction | np.ndarray) -> PicBreakdown:
    """σ²_intra/σ² with the full variance breakdown.

    Classes with zero prediction mass are skipped (they contribute nothing
    to either variance). Requires rows of ``prediction`` to sum to 1.
    """
    return _variance_terms(np.asarray(Z, dtype=np.float64), _as_probs(prediction))


def _pic_grad(Z: np.ndarray, probs: np.ndarray, terms: PicBreakdown) -> np.ndarray:
    # ∂σ²_intra/∂z_i = 2 Σ_c Ŷ_ic (z_i − μ_c) = 2(z_i·Σ_cŶ_ic − Σ_c Ŷ_ic μ_c)
    # minus L·(z_i − μ_*), all times 2/σ²; built in one N×H buffer.
    out = Z * probs.sum(axis=1)[:, None]
    out -= probs @ terms.centroids
    out -= terms.loss * (Z - terms.global_centroid[None, :])
    out *= 2.0 / terms.sigma_sq
    return out


def _diff_grad(Z: np.ndarray, probs: np.ndarray, terms: PicBreakdown) -> np.ndarray:
    row_mass = probs.sum(axis=1)[:, None]
    weighted_cent = probs @ terms.centroids
    # ∂σ²_intra/∂z_i = 2 Σ_c Ŷ_ic (z_i − μ_c);
    # ∂σ²_inter/∂z_i = 2 Σ_c Ŷ_ic (μ_c − μ_*) through the centroid paths.
    d_intra = 2.0 * (Z * row_mass - weighted_cent)
    d_inter = 2.0 * (weighted_cent - row_mass * terms.global_centroid[None, :])
    return d_intra - d_inter


def entropy_from_logits(logits: np.ndarray) -> float:
    """Mean per-row softmax entropy."""
    log_probs = log_softmax(logits)
    probs = np.exp(log_probs)
    return float(-(probs * log_probs).sum(axis=1).mean())


def entropy_grad_logits(logits: np.ndarray) -> np.ndarray:
    """∂(mean entropy)/∂logits = −P ⊙ (log P + H_row) / N."""
    n = logits.shape[0]
    log_probs = log_softmax(logits)
    probs = np.exp(log_probs)
    row_entropy = -(probs * log_probs).sum(axis=1, keepdims=True)
    return -probs * (log_probs + row_entropy) / n


def loss_and_grad_z(
    kind: str,
    Z: np.ndarray,
    prediction: SoftPrediction | np.ndarray,
    model: GprModel,
) -> tuple[float, np.ndarray]:
    """Loss value and ∂L/∂Z for any surrogate kind.

    ``pic`` and ``diff`` act on Z directly; ``entropy`` and ``pseudo`` act
    on classifier logits, chained back through the linear classifier.
    """
    if kind in ("pic", "diff"):
        Z = np.asarray(Z, dtype=np.float64)
        probs = _as_probs(prediction)
        terms = _variance_terms(Z, probs)
        if kind == "pic":
            return terms.loss, _pic_grad(Z, probs, terms)
        return terms.sigma_intra_sq - terms.sigma_inter_sq, _diff_grad(Z, probs, terms)
    if kind in ("entropy", "pseudo"):
        logits = Z @ model.W_cls + model.b_cls[None, :]
        if kind == "entropy":
            loss = entropy_from_logits(logits)
            dlogits = entropy_grad_logits(logits)
        else:
            loss, dlogits = cross_entropy(logits, _as_probs(prediction).argmax(axis=1))
        return loss, dlogits @ model.W_cls.T
    raise ValueError(f"unknown loss kind {kind!r}; choose from {LOSS_KINDS}")


def _hop_space_loss_and_grad(
    kind: str, model: GprModel, cache: HopCache, probs: np.ndarray
) -> tuple[float, np.ndarray]:
    """``pic`` or ``diff`` at Z = aggregate(cache, γ, scale, shift), from hop moments."""
    gamma, scale, shift = model.gamma, model.scale, model.shift
    moments = cache.moments
    total_grad = moments.total_gram(scale, shift) @ gamma  # S_t γ
    sigma_sq = float(gamma @ total_grad)
    n, h = cache.hops.shape[1], scale.shape[0]
    eps = 1e-12 * n * h
    if sigma_sq < eps:
        raise DegenerateRepresentationError(
            f"total variance {sigma_sq:.3e} below degeneracy threshold {eps:.3e}"
        )

    weights = probs.sum(axis=0)
    occupied = np.flatnonzero(weights > 0.0)
    # Ŷ_cᵀ Ã^k [X̂|1] − W_c·mean_k per occupied class c and hop k, then A applied:
    # moved[c, k] @ A = Ŷ_cᵀ B_k − W_c b̄_k.
    moved = np.matmul(probs.T[occupied], cache.hops).transpose(1, 0, 2)
    moved -= weights[occupied, None, None] * moments.mean[None, :, :]
    between = moved[:, :, :-1] * scale + moved[:, :, -1:] * shift  # C'×(K+1)×H
    offsets = np.tensordot(gamma, between, axes=([0], [1]))  # C'×H, W_c(μ_c − z̄)
    per_mass = offsets / weights[occupied, None]
    sigma_inter_sq = float((offsets * per_mass).sum())
    inter_grad = np.tensordot(between, per_mass, axes=([0, 2], [0, 1]))  # S_b γ

    if kind == "pic":
        # L = 1 − r with r = γᵀS_bγ / γᵀS_tγ, clamped like ``pic_loss``;
        # ∇L = 2(r·S_tγ − S_bγ)/σ², with r taken directly rather than as 1 − L.
        ratio = sigma_inter_sq / sigma_sq
        loss = min(max(1.0 - ratio, 0.0), 1.0)
        return loss, (2.0 / sigma_sq) * (ratio * total_grad - inter_grad)
    # σ²_intra − σ²_inter = γᵀ(S_t − 2S_b)γ.
    return sigma_sq - 2.0 * sigma_inter_sq, 2.0 * total_grad - 4.0 * inter_grad


def surrogate_loss_and_grad_gamma(
    kind: str,
    model: GprModel,
    cache: HopCache,
    prediction: SoftPrediction | np.ndarray,
) -> tuple[float, np.ndarray]:
    """Loss at Z = aggregate(cache, γ, scale, shift) and its analytic γ-gradient.

    ``pic`` and ``diff`` are computed in hop space (see the module docstring);
    ``entropy`` and ``pseudo`` build Z and chain ``loss_and_grad_z`` back
    through ``gamma_grad_from_dz``. An array ``prediction`` must pass
    ``SoftPrediction``'s checks: rows that do not sum to 1 are a ValueError.
    """
    if not isinstance(prediction, SoftPrediction):
        prediction = SoftPrediction(np.asarray(prediction, dtype=np.float64))
    if kind in ("pic", "diff"):
        return _hop_space_loss_and_grad(kind, model, cache, prediction.probs)
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    loss, dZ = loss_and_grad_z(kind, Z, prediction, model)
    return loss, gamma_grad_from_dz(cache, dZ, model.scale, model.shift)
