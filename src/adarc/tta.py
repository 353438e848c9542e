"""Base test-time-adaptation predictors, interchangeable inside the outer loop.

``erm`` and ``t3a`` build Z = mix_hops(cache, γ)·A at the model's own norm
affine and classify it once with ``model.classify``. ``erm`` is the
passthrough: softmax of the classifier's logits. ``t3a`` classifies by
distance to per-class prototypes built from the most confident ERM
predictions, ranked by each node's entropy from classify's logits.

``tent`` never builds Z. Its logits are linear in the norm affine, so
``tent_lite`` takes a few steps on the mean prediction entropy over cloned
scale/shift (Tent's norm-affine-only update) in logit space: a step costs
two products of mix with an (H+1)×C array plus N×C work. The entropy is
``losses._entropy_terms``, the ``entropy`` surrogate's own routine. The
prediction is the softmax of the accepted logits; ``adapt`` calls
``tent_lite`` directly to write that affine back.

None of the variants mutates γ, and none triggers new propagate calls:
every prediction is rebuilt from the cache's pre-affine hop stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .losses import _entropy_grad_logits, _entropy_terms
from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    StaleCacheError,
    affine_matrix,
    aggregate,
    class_sum,
    classify,
    log_softmax,
    mix_hops,
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
    mix: np.ndarray, terms: tuple, model: GprModel
) -> tuple[np.ndarray, np.ndarray]:
    """(∂H̄/∂scale, ∂H̄/∂shift) at the logits ``terms`` came from.

    logits(s, t) = mix·(A(s, t)·W_cls) + b_cls is linear in A, so with
    G = mixᵀ·∂H̄/∂logits, an (H+1)×C array, ∂H̄/∂scale = Σ_c G[:H] ⊙ W_cls
    and ∂H̄/∂shift = W_cls·G[H]; no N×H array is built.
    """
    G = mix.T @ _entropy_grad_logits(terms)
    return (G[:-1] * model.W_cls).sum(axis=1), model.W_cls @ G[-1]


def tent_lite(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy-minimized (scale, shift) and the N×C logits they give.

    The logits are mix·(A(scale, shift)·W_cls) + b_cls with
    mix = ``mix_hops(cache, γ)``, so no step builds Z. Takes ``kind.steps``
    descent steps on the mean entropy of ``_entropy_terms``, with
    ``_entropy_grad_affine``'s gradient, over clones of the model's affine; a
    step that fails to strictly decrease the mean entropy is reverted and
    iteration stops early. A trial reads only the entropy: a gradient is built
    only for a step taken.
    """
    scale = model.scale.copy()
    shift = model.shift.copy()
    mix = mix_hops(cache, model.gamma)

    def logits_at(scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
        return mix @ (affine_matrix(scale, shift) @ model.W_cls) + model.b_cls

    logits = logits_at(scale, shift)
    if kind.steps == 0:
        return scale, shift, logits
    entropy, terms = _entropy_terms(logits)
    for _ in range(kind.steps):
        d_scale, d_shift = _entropy_grad_affine(mix, terms, model)
        new_scale = scale - kind.lr * d_scale
        new_shift = shift - kind.lr * d_shift
        new_logits = logits_at(new_scale, new_shift)
        new_entropy, terms = _entropy_terms(new_logits)
        if not new_entropy < entropy:
            break
        scale, shift, logits, entropy = new_scale, new_shift, new_logits, new_entropy
    return scale, shift, logits


def _t3a_predict(
    kind: BaseTtaKind,
    model: GprModel,
    Z: np.ndarray,
    logits: np.ndarray,
    prediction: SoftPrediction,
) -> SoftPrediction:
    hard = prediction.hard
    node_entropy = -class_sum(prediction.probs * log_softmax(logits))

    num_classes = model.W_cls.shape[1]
    prototypes = np.empty((num_classes, Z.shape[1]))
    for c in range(num_classes):
        members = np.flatnonzero(hard == c)
        if members.size == 0:
            # Empty support: fall back to the classifier's class direction.
            prototypes[c] = model.W_cls[:, c]
            continue
        order = members[np.argsort(node_entropy[members], kind="stable")]
        prototypes[c] = Z[order[: kind.keep_per_class]].mean(axis=0)

    # One class at a time: each row still sums its H squares in one contiguous
    # reduction, so the bits match the N×C×H broadcast without building it.
    sq_dist = np.empty((num_classes, Z.shape[0]))
    offset = np.empty_like(Z)
    for c, prototype in enumerate(prototypes):
        np.subtract(Z, prototype, out=offset)
        offset *= offset
        offset.sum(axis=1, out=sq_dist[c])
    return SoftPrediction(softmax(-sq_dist.T))


def base_predict(
    kind: BaseTtaKind, model: GprModel, cache: HopCache, dataset: Dataset
) -> SoftPrediction:
    """Algorithm step Ŷ ← BaseTTA(…); never mutates γ or the model."""
    if not cache.is_fresh(model, dataset.graph):
        raise StaleCacheError("hop cache is stale for the current parameters")
    if kind.variant == "tent":
        return SoftPrediction(softmax(tent_lite(kind, model, cache)[2]))
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    logits, prediction = classify(Z, model)
    if kind.variant == "t3a":
        return _t3a_predict(kind, model, Z, logits, prediction)
    return prediction
