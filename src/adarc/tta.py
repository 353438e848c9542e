"""Base test-time-adaptation predictors, interchangeable inside the outer loop.

``Erm`` is the passthrough (softmax of the classifier's logits). ``TentLite``
runs a few entropy-minimization gradient steps on the normalization
scale/shift only, on cloned parameters. ``T3aLite`` classifies by distance
to per-class prototypes built from the most confident predictions.

None of the variants mutates γ, and none triggers new propagate calls:
norm-affine variants rebuild Z from the cache's pre-affine hop stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    StaleCacheError,
    affine_grad_from_dz,
    affine_matrix,
    aggregate,
    classify,
    mix_hops,
    softmax,
)
from .losses import entropy_from_logits, entropy_grad_logits

__all__ = ["BaseTtaKind", "base_predict", "tent_lite_affine"]

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


def _erm_predict(model: GprModel, cache: HopCache) -> SoftPrediction:
    _, prediction = classify(
        aggregate(cache, model.gamma, model.scale, model.shift), model
    )
    return prediction


def _tent_lite(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``tent_lite_affine``'s (scale, shift) and the logits they give."""
    scale = model.scale.copy()
    shift = model.shift.copy()
    mix = mix_hops(cache, model.gamma)
    Z = mix @ affine_matrix(scale, shift)
    logits = Z @ model.W_cls + model.b_cls[None, :]
    entropy = entropy_from_logits(logits)
    for _ in range(kind.steps):
        dZ = entropy_grad_logits(logits) @ model.W_cls.T
        d_scale, d_shift = affine_grad_from_dz(mix, dZ)
        new_scale = scale - kind.lr * d_scale
        new_shift = shift - kind.lr * d_shift
        Z = mix @ affine_matrix(new_scale, new_shift)
        new_logits = Z @ model.W_cls + model.b_cls[None, :]
        new_entropy = entropy_from_logits(new_logits)
        if not new_entropy < entropy:
            break
        scale, shift, logits, entropy = new_scale, new_shift, new_logits, new_entropy
    return scale, shift, logits


def tent_lite_affine(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> tuple[np.ndarray, np.ndarray]:
    """Entropy-minimized (scale, shift) after ``kind.steps`` descent steps.

    Cloned from the model; a step that fails to strictly decrease the mean
    entropy is reverted and iteration stops early.
    """
    scale, shift, _ = _tent_lite(kind, model, cache)
    return scale, shift


def _tent_predict(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> SoftPrediction:
    # The logits of the accepted affine are those classify would rebuild.
    _, _, logits = _tent_lite(kind, model, cache)
    return SoftPrediction(softmax(logits))


def _t3a_predict(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> SoftPrediction:
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    _, prediction = classify(Z, model)
    probs = prediction.probs
    hard = prediction.hard
    log_probs = np.log(np.clip(probs, 1e-300, None))
    node_entropy = -(probs * log_probs).sum(axis=1)

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

    sq_dist = ((Z[:, None, :] - prototypes[None, :, :]) ** 2).sum(axis=2)
    return SoftPrediction(softmax(-sq_dist))


def base_predict(
    kind: BaseTtaKind, model: GprModel, cache: HopCache, dataset: Dataset
) -> SoftPrediction:
    """Algorithm step Ŷ ← BaseTTA(…); never mutates γ or the model."""
    if not cache.is_fresh(model, dataset.graph):
        raise StaleCacheError("hop cache is stale for the current parameters")
    if kind.variant == "erm":
        return _erm_predict(model, cache)
    if kind.variant == "tent":
        return _tent_predict(kind, model, cache)
    return _t3a_predict(kind, model, cache)
