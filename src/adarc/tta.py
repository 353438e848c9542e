"""Base test-time-adaptation predictors, interchangeable inside the outer loop.

No variant builds Z = mix·A. With mix = ``mix_hops(cache, γ)`` and
A = ``affine_matrix(scale, shift)``, each scores a linear head (W, b) on Z as
mix·(A·W) + b: two products with an (H+1)×C array.

``tent_lite`` takes a few steps on the mean entropy of the classifier's logits
over cloned scale/shift (Tent's norm-affine-only update); the entropy is
``losses._entropy_terms``, the ``entropy`` surrogate's own routine. Its
prediction is the softmax of the accepted logits, and ``adapt`` calls it
directly to write that affine back. ``erm`` is ``tent_lite`` with no step.
``t3a`` ranks nodes by the entropy of those logits, takes each class's
prototype p_c as the mean of its most confident mix rows times A (W_cls[:, c]
for an empty class) and predicts softmax(−‖z_i − p_c‖²). ‖z_i‖² is the same
for every class, so that is softmax(2 z_i·p_c − ‖p_c‖²): a linear head.

None of the variants mutates γ, and none triggers new propagate calls:
every prediction is rebuilt from the cache's pre-affine hop stack.
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
    class_sum,
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


def _t3a_predict(kind: BaseTtaKind, model: GprModel, cache: HopCache) -> SoftPrediction:
    mix = mix_hops(cache, model.gamma)
    affine = affine_matrix(model.scale, model.shift)
    logits = mix @ (affine @ model.W_cls) + model.b_cls
    probs = softmax(logits)
    hard = SoftPrediction(probs).hard
    node_entropy = -class_sum(probs * log_softmax(logits))

    prototypes = model.W_cls.T.copy()  # an empty class keeps W_cls[:, c]
    for c in range(prototypes.shape[0]):
        members = np.flatnonzero(hard == c)
        if members.size:
            order = members[np.argsort(node_entropy[members], kind="stable")]
            prototypes[c] = mix[order[: kind.keep_per_class]].mean(axis=0) @ affine
    # −‖z − p_c‖² but for the per-node constant −‖z‖², which softmax drops.
    scores = mix @ (affine @ (2.0 * prototypes.T)) - (prototypes * prototypes).sum(axis=1)
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
