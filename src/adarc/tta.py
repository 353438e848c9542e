"""Base test-time-adaptation predictors, interchangeable inside the outer loop.

Every variant builds its Z with one routine, ``tent_lite``, and classifies it
with one ``model.classify``. ``erm`` is the passthrough: softmax of the
classifier's logits at the model's own norm affine. ``tent`` first takes a
few steps on the mean prediction entropy (``losses._entropy_terms`` and
``losses._entropy_grad_z``) over cloned scale/shift (Tent's norm-affine-only
update); ``adapt`` calls ``tent_lite`` directly to write that affine back.
``t3a`` classifies by distance to per-class prototypes built from the most
confident ERM predictions, ranked by each node's entropy from classify's
logits.

None of the variants mutates γ, and none triggers new propagate calls:
Z is rebuilt from the cache's pre-affine hop stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Dataset
from .losses import _entropy_grad_z, _entropy_terms
from .model import (
    GprModel,
    HopCache,
    SoftPrediction,
    StaleCacheError,
    affine_matrix,
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


def tent_lite(
    kind: BaseTtaKind, model: GprModel, cache: HopCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entropy-minimized (scale, shift) and the Z = mix_hops(…) @ A they give.

    Takes ``kind.steps`` descent steps on the mean entropy of
    ``_entropy_terms``, with ``_entropy_grad_z``'s gradient, over clones of
    the model's affine; a step that fails to strictly decrease the mean
    entropy is reverted and iteration stops early. Any variant but
    ``tent`` takes no step, so its Z is the model's own.
    """
    scale = model.scale.copy()
    shift = model.shift.copy()
    mix = mix_hops(cache, model.gamma)
    Z = mix @ affine_matrix(scale, shift)
    if kind.variant != "tent" or kind.steps == 0:
        return scale, shift, Z
    # A trial reads only the entropy; its N×H gradient is built only for a
    # next step, from the accepted point's N×C terms.
    entropy, terms = _entropy_terms(Z, model)
    for _ in range(kind.steps):
        # ∂H̄/∂scale = Σ_i mix[i, :-1] ⊙ dZ[i] and ∂H̄/∂shift = Σ_i mix[i, -1] dZ[i];
        # the product is taken in dZ, which this step owns.
        dZ = _entropy_grad_z(terms, model)
        d_shift = mix[:, -1] @ dZ
        dZ *= mix[:, :-1]
        d_scale = dZ.sum(axis=0)
        del dZ
        new_scale = scale - kind.lr * d_scale
        new_shift = shift - kind.lr * d_shift
        new_Z = mix @ affine_matrix(new_scale, new_shift)
        new_entropy, terms = _entropy_terms(new_Z, model)
        if not new_entropy < entropy:
            break
        scale, shift, Z, entropy = new_scale, new_shift, new_Z, new_entropy
    return scale, shift, Z


def _t3a_predict(
    kind: BaseTtaKind,
    model: GprModel,
    Z: np.ndarray,
    logits: np.ndarray,
    prediction: SoftPrediction,
) -> SoftPrediction:
    hard = prediction.hard
    node_entropy = -(prediction.probs * log_softmax(logits)).sum(axis=1)

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
    _, _, Z = tent_lite(kind, model, cache)
    logits, prediction = classify(Z, model)
    if kind.variant == "t3a":
        return _t3a_predict(kind, model, Z, logits, prediction)
    return prediction
