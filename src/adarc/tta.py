"""Base test-time-adaptation predictors, interchangeable inside the outer loop.

No variant builds Z = mix·A (mix = Σ_k γ_k Ã^k [X̂ | 1], A =
``affine_matrix(scale, shift)``) or a hop stack. The classifier's logits come
from the hop cache's per-hop class scores (``HopCache.logits``); any other
linear head (W, b) on Z is scored as mix·(A·W) + b by one Horner pass on N×C
arrays (``HopCache.mix_dot``), and mixᵀ·G by one transpose pass
(``HopCache.mix_tdot``).

Every entropy here comes from ``losses._entropy_terms``, the one entropy
routine, which the ``entropy`` surrogate also reads. ``tent_lite`` takes a few
steps on its mean over the classifier's logits, over cloned scale/shift
(Tent's norm-affine-only update). Its prediction is the softmax of the
accepted logits, and ``adapt`` calls it directly to write that affine back.
``erm`` is ``tent_lite`` with no step. ``t3a`` takes the probabilities and
row entropies of those logits from the same routine, ranks nodes by entropy,
takes each class's prototype p_c as the mean of its most confident mix rows
times A (W_cls[:, c] for an empty class) and predicts softmax(−‖z_i − p_c‖²).
‖z_i‖² is the same for every class, so that is softmax(2 z_i·p_c − ‖p_c‖²): a
linear head.

None of the variants mutates γ. Propagate calls, for K hops and a cache whose
class scores match the model's head: ``erm`` makes none; ``tent`` makes 2K per
step it tries (the gradient's transpose pass and the trial logits' pass);
``t3a`` makes 2K (the prototypes' transpose pass and the scores' pass).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Dataset
from .losses import _entropy_grad_logits, _entropy_terms
from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    StaleCacheError,
    affine_matrix,
    softmax,
)

__all__ = ["BaseTtaKind", "base_predict", "tent_lite"]

BASE_TTA_NAMES = ("erm", "tent", "t3a")


@dataclass(frozen=True)
class BaseTtaKind:
    """Variant selector with variant-specific options."""

    variant: str = "erm"
    steps: int = 1  # TentLite
    lr: float = 0.01  # TentLite
    keep_per_class: int = 20  # T3aLite

    def __post_init__(self) -> None:
        if self.variant not in BASE_TTA_NAMES:
            raise ValueError(
                f"variant must be one of {BASE_TTA_NAMES}, got {self.variant!r}"
            )
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.keep_per_class < 1:
            raise ValueError("keep_per_class must be >= 1")


def _entropy_grad_affine(
    cache: HopCache, terms: tuple, model: GprModel
) -> tuple[np.ndarray, np.ndarray]:
    """(∂H̄/∂scale, ∂H̄/∂shift) at the logits ``terms`` came from.

    logits(s, t) = mix·(A(s, t)·W_cls) + b_cls is linear in A, so with
    G = mixᵀ·∂H̄/∂logits, an (H+1)×C array from one transpose Horner pass,
    ∂H̄/∂scale = Σ_c G[:H] ⊙ W_cls and ∂H̄/∂shift = W_cls·G[H]; no N×H array
    is built. Each row of ∂H̄/∂logits sums to 0, so the pass skips the last
    class: its column of G is minus the others'.
    """
    G = cache.mix_tdot(model.gamma, _entropy_grad_logits(terms)[:, :-1])
    G = np.column_stack([G, -G.sum(axis=1)])
    return (G[:-1] * model.W_cls).sum(axis=1), model.W_cls @ G[-1]


def tent_lite(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy-minimized (scale, shift) and the N×C logits they give.

    The logits at the model's own affine are the cache's (``HopCache.logits``);
    a trial affine's are mix·(A(scale, shift)·W_cls) + b_cls by one Horner
    pass, so no step builds Z. Takes ``kind.steps`` descent steps on the mean
    entropy of ``_entropy_terms``, with ``_entropy_grad_affine``'s gradient,
    over clones of the model's affine; a step that fails to strictly decrease
    the mean entropy is reverted and iteration stops early. A trial reads only
    the entropy: a gradient is built only for a step taken.
    """
    scale = model.scale.copy()
    shift = model.shift.copy()
    logits = cache.logits(model)
    if kind.steps == 0:
        return scale, shift, logits
    entropy, terms = _entropy_terms(logits)
    for _ in range(kind.steps):
        d_scale, d_shift = _entropy_grad_affine(cache, terms, model)
        new_scale = scale - kind.lr * d_scale
        new_shift = shift - kind.lr * d_shift
        head = affine_matrix(new_scale, new_shift) @ model.W_cls
        new_logits = cache.mix_dot(model.gamma, head) + model.b_cls
        new_entropy, terms = _entropy_terms(new_logits)
        if not new_entropy < entropy:
            break
        scale, shift, logits, entropy = new_scale, new_shift, new_logits, new_entropy
    return scale, shift, logits


def _lowest(values: np.ndarray, k: int) -> np.ndarray:
    """The set of ``np.argsort(values, kind="stable")[:k]`` by one partition:
    the positions below the k-th lowest value, then the first ties with it."""
    if values.size <= k:
        return np.arange(values.size)
    cut = np.partition(values, k - 1)[k - 1]
    below = np.flatnonzero(values < cut)
    return np.concatenate([below, np.flatnonzero(values == cut)[: k - below.size]])


def _t3a_predict(kind: BaseTtaKind, model: GprModel, cache: HopCache) -> SoftPrediction:
    _, (probs, _, node_entropy) = _entropy_terms(cache.logits(model))
    hard = SoftPrediction(probs).hard

    # Column c of ``weights`` averages the kept nodes of class c, so
    # mixᵀ·weights holds each class's mean mix row.
    weights = np.zeros_like(probs)
    for c in range(weights.shape[1]):
        members = np.flatnonzero(hard == c)
        kept = members[_lowest(node_entropy[members], kind.keep_per_class)]
        weights[kept, c] = 1.0 / max(kept.size, 1)
    affine = affine_matrix(model.scale, model.shift)
    prototypes = cache.mix_tdot(model.gamma, weights).T @ affine
    empty = ~weights.any(axis=0)
    prototypes[empty] = model.W_cls.T[empty]  # an empty class keeps W_cls[:, c]
    # −‖z − p_c‖² but for per-node constants, which softmax drops: −‖z‖² and
    # the last class's score, so the last class scores 0 and is not propagated.
    head = affine @ (2.0 * prototypes.T)
    bias = -(prototypes * prototypes).sum(axis=1)
    scores = np.zeros_like(probs)
    scores[:, :-1] = cache.mix_dot(model.gamma, head[:, :-1] - head[:, -1:])
    scores[:, :-1] += bias[:-1] - bias[-1]
    return SoftPrediction(softmax(scores))


def base_predict(
    kind: BaseTtaKind, model: GprModel, cache: HopCache, dataset: Dataset
) -> SoftPrediction:
    """Algorithm step Ŷ ← BaseTTA(…); never mutates γ or the model."""
    if not cache.is_fresh(model, dataset.graph):
        raise StaleCacheError("hop cache is stale for the current parameters")
    if kind.variant == "t3a":
        return _t3a_predict(kind, model, cache)
    if kind.variant == "erm":
        kind = replace(kind, steps=0)
    return SoftPrediction(softmax(tent_lite(kind, model, cache)[2]))
