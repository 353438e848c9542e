"""Surrogate losses over representations and soft predictions.

The prediction-informed clustering (PIC) loss is the ratio
σ²_intra/σ² of soft-prediction-weighted intra-class variance to total
variance; the decomposition σ² = σ²_intra + σ²_inter holds exactly. It is
invariant to scaling and translation of the representations, so it cannot
be gamed by shrinking or shifting them.

All gradients treat the soft prediction Ŷ as a constant (no gradient flows
through the prediction branch), which is how the finite-difference tests
hold it.

``surrogate_loss_and_grad_gamma`` is the one loss entry point, and each kind
takes one path:

- ``entropy`` and ``pseudo`` never build Z. Their logits are the cache's
  Σ_k γ_k P_k + b_cls, from the per-hop class scores
  P_k = Ã^k [X̂ | 1]·A·W_cls that every base predictor reads, so component k
  of the γ-gradient is ⟨P_k, ∂L/∂logits⟩ and no propagate call is made while
  the head is unchanged. ``_entropy_terms`` is the lab's one entropy
  routine: with ``_entropy_grad_logits`` it is this surrogate and Tent's
  objective (``tta.tent_lite`` descends them over the norm affine, and a
  trial step computes no gradient), and its probabilities and row entropies
  are T3A's ranking (``tta._t3a_predict``).
- ``pic`` and ``diff`` never build Z. With B_k = Ã^k [X̂ | 1] A, b̄_k the mean
  row of B_k and Z = Σ_k γ_k B_k, each variance is a quadratic form in γ
  (Fisher's LDA criterion over K+1 hop directions):

  - σ² = γᵀ S_t γ, with S_t the Gram matrix of the centered B_k. It does not
    depend on Ŷ and comes from the hop cache's per-run moments
    (``HopCache.moments``) under any scale and shift.
  - σ²_inter = Σ_c ‖Σ_k γ_k (Ŷ_cᵀ B_k − W_c b̄_k)‖² / W_c, with W_c = Σ_i Ŷ_ic.
    Ŷᵀ·hops is taken as ((Ãᵀ)^k Ŷ)ᵀ [X̂ | 1] (``HopCache.hops_tdot``): K
    transpose propagations of Ŷ per call, each hop then multiplied into
    [X̂ | 1]. Classes with W_c = 0 are skipped, and the heaviest class is
    not propagated: the centered Ŷ_cᵀ·hops sum to 0 over classes.
  - σ²_intra = σ² − σ²_inter, because the rows of Ŷ sum to 1 (checked at
    entry).

  Their γ-gradients are closed-form in (K+1)-space.
"""

from __future__ import annotations

import numpy as np

from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    class_sum,
    cross_entropy,
    log_softmax,
)

__all__ = [
    "LOSS_KINDS",
    "DegenerateRepresentationError",
    "surrogate_loss_and_grad_gamma",
]

LOSS_KINDS = ("pic", "entropy", "pseudo", "diff")


class DegenerateRepresentationError(ValueError):
    """Total variance too small for variance-ratio losses."""


def _entropy_terms(logits: np.ndarray) -> tuple[float, tuple]:
    """Mean row entropy H̄ of softmax(logits), and the N×C terms its gradient reads."""
    log_probs = log_softmax(logits)
    probs = np.exp(log_probs)
    row_entropy = -class_sum(probs * log_probs)
    return float(row_entropy.mean()), (probs, log_probs, row_entropy)


def _entropy_grad_logits(terms: tuple) -> np.ndarray:
    """∂H̄/∂logits from ``_entropy_terms``: −P ⊙ (log P + H_row)/N."""
    probs, log_probs, row_entropy = terms
    return -probs * (log_probs + row_entropy[:, None]) / probs.shape[0]


def _hop_space_loss_and_grad(
    kind: str, model: GprModel, cache: HopCache, probs: np.ndarray
) -> tuple[float, np.ndarray]:
    """``pic`` or ``diff`` at Z = aggregate(cache, γ, scale, shift), from hop moments."""
    gamma, scale, shift = model.gamma, model.scale, model.shift
    moments = cache.moments
    total_grad = moments.total_gram(scale, shift) @ gamma  # S_t γ
    sigma_sq = float(gamma @ total_grad)
    n, h = cache.hop0.shape[0], scale.shape[0]
    eps = 1e-12 * n * h
    if sigma_sq < eps:
        raise DegenerateRepresentationError(
            f"total variance {sigma_sq:.3e} below degeneracy threshold {eps:.3e}"
        )

    weights = probs.sum(axis=0)
    occupied = np.flatnonzero(weights > 0.0)
    # Ŷ_cᵀ Ã^k [X̂|1] − W_c·mean_k per occupied class c and hop k, then A applied:
    # moved[c, k] @ A = Ŷ_cᵀ B_k − W_c b̄_k. The rows of Ŷ sum to 1, so the rows
    # of moved sum to 0: the heaviest class's is minus the others', and only the
    # others' predictions are propagated.
    heaviest = occupied[np.argmax(weights[occupied])]
    others = occupied[occupied != heaviest]
    moved = cache.hops_tdot(probs[:, others]).transpose(1, 0, 2)
    moved -= weights[others, None, None] * moments.mean[None, :, :]
    moved = np.concatenate([moved, -moved.sum(axis=0, keepdims=True)])
    mass = weights[np.r_[others, heaviest]]
    between = moved[:, :, :-1] * scale + moved[:, :, -1:] * shift  # C'×(K+1)×H
    offsets = np.tensordot(gamma, between, axes=([0], [1]))  # C'×H, W_c(μ_c − z̄)
    per_mass = offsets / mass[:, None]
    sigma_inter_sq = float((offsets * per_mass).sum())
    inter_grad = np.tensordot(between, per_mass, axes=([0, 2], [0, 1]))  # S_b γ

    if kind == "pic":
        # L = 1 − r with r = γᵀS_bγ / γᵀS_tγ, clamped to [0, 1] to absorb
        # last-ulp rounding; ∇L = 2(r·S_tγ − S_bγ)/σ², with r taken directly
        # rather than as 1 − L.
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

    ``pic`` and ``diff`` are computed from hop moments, ``entropy`` and
    ``pseudo`` from the logits Σ_k γ_k P_k + b_cls (see the module
    docstring). An array ``prediction`` must pass ``SoftPrediction``'s
    checks: rows that do not sum to 1 are a ValueError.
    """
    if not isinstance(prediction, SoftPrediction):
        prediction = SoftPrediction(np.asarray(prediction, dtype=np.float64))
    if kind in ("pic", "diff"):
        return _hop_space_loss_and_grad(kind, model, cache, prediction.probs)
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}; choose from {LOSS_KINDS}")
    logits = cache.logits(model)
    if kind == "entropy":
        loss, terms = _entropy_terms(logits)
        dlogits = _entropy_grad_logits(terms)
    else:
        loss, dlogits = cross_entropy(logits, prediction.hard)
    scores = cache.class_scores(model)
    return loss, np.tensordot(scores, dlogits, axes=([1, 2], [0, 1]))
