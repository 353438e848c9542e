"""Outer adaptation loop: gradient descent on the hop-aggregation vector γ.

Each epoch obtains a soft prediction from the base predictor, then takes one
descent step on γ through the chosen unsupervised surrogate while holding
that prediction constant. Hop representations are cached up front, so the
whole run touches the propagation operator exactly once per hop.

The ``theta`` and ``joint`` ablations and ``persist_base_tta`` (with a
``tent`` base) also write a norm affine back each epoch, after the γ step:
one ``tta.tent_lite`` call at the base's rate with n steps, one for the θ
ablation plus the base's ``steps`` for a persisted Tent. ``tent_lite`` stops
at its first rejected step, so those n steps are the θ step followed by the
base Tent.

For ``pic`` and ``diff`` the surrogate never builds Z. The first epoch
computes the cache's per-column hop moments once (``HopCache.moments``),
which give σ² = γᵀS_tγ under whatever scale and shift the epoch holds, so
the ``theta`` and ``joint`` ablations and ``persist_base_tta`` take the same
path as ``gamma``. Each epoch then makes one Ŷᵀ·hops contraction for σ²_inter
and solves the rest in (K+1)-space (see ``losses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Dataset, PropagationOperator
from .losses import LOSS_KINDS, surrogate_loss_and_grad_gamma
from .model import (
    EpochRecord,
    GprModel,
    SoftPrediction,
    featurize_hops,
    prediction_accuracy,
)
from .tta import BaseTtaKind, base_predict, tent_lite

__all__ = [
    "AdaptConfig",
    "AdaptResult",
    "AdaptationDivergedError",
    "ABLATION_NAMES",
    "adapt",
    "convergence_report",
]

ABLATION_NAMES = ("gamma", "theta", "joint")


@dataclass(frozen=True)
class AdaptConfig:
    """Settings for one adaptation run."""

    learning_rate: float = 0.15
    epochs: int = 15
    loss: str = "pic"
    base: BaseTtaKind = field(default_factory=BaseTtaKind)
    ablation: str = "gamma"
    persist_base_tta: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.ablation not in ABLATION_NAMES:
            raise ValueError(
                f"ablation must be one of {ABLATION_NAMES}, got {self.ablation!r}"
            )


@dataclass(frozen=True)
class AdaptResult:
    """Adapted model plus the full per-epoch trace."""

    model: GprModel
    prediction: SoftPrediction
    trace: tuple[EpochRecord, ...]


class AdaptationDivergedError(RuntimeError):
    """Raised when the surrogate loss or gradient becomes non-finite."""

    def __init__(self, message: str, trace: tuple[EpochRecord, ...]):
        super().__init__(message)
        self.trace = trace


def adapt(
    model: GprModel,
    dataset: Dataset,
    op: PropagationOperator,
    config: AdaptConfig,
) -> AdaptResult:
    """Adapt ``model`` to ``dataset`` and return a copy with the result.

    The input model is never mutated. Each trace record holds the surrogate
    loss, the all-node accuracy of that epoch's base prediction and ‖∇γL‖,
    all before the epoch's step, and the γ after it; the returned prediction
    comes from one final base-predictor call after the last step.
    """
    model = model.copy()
    cache = featurize_hops(model, dataset, op)

    trace: list[EpochRecord] = []
    update_gamma = config.ablation in ("gamma", "joint")
    # Norm-affine write-back: the θ step, then the persisted Tent, in one call.
    affine_steps = int(config.ablation in ("theta", "joint"))
    if config.persist_base_tta and config.base.variant == "tent":
        affine_steps += config.base.steps
    affine_kind = replace(config.base, variant="tent", steps=affine_steps)

    for epoch in range(config.epochs):
        prediction = base_predict(config.base, model, cache, dataset)

        loss, grad = surrogate_loss_and_grad_gamma(
            config.loss, model, cache, prediction
        )

        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise AdaptationDivergedError(
                f"non-finite surrogate at epoch {epoch}: loss={loss!r}",
                tuple(trace),
            )

        if update_gamma:
            model.gamma[:] = model.gamma - config.learning_rate * grad
        if affine_steps:
            model.scale[:], model.shift[:] = tent_lite(affine_kind, model, cache)[:2]

        trace.append(
            EpochRecord(
                epoch=epoch,
                loss=float(loss),
                accuracy=prediction_accuracy(prediction, dataset.labels),
                grad_norm=float(np.linalg.norm(grad)),
                gamma=model.gamma.copy(),
            )
        )

    prediction = base_predict(config.base, model, cache, dataset)

    return AdaptResult(model=model, prediction=prediction, trace=tuple(trace))


def convergence_report(trace: tuple[EpochRecord, ...]) -> dict:
    """Summary statistics of an adaptation trace.

    ``mean_sq_grad_norm`` is (1/T)Σ‖∇γ L‖²; ``grad_running_mean_decreasing``
    asks whether the running mean of the squared gradient norms keeps
    decreasing over the final half of the trace.
    """
    if not trace:
        raise ValueError("trace is empty")
    sq_grads = np.array([r.grad_norm for r in trace]) ** 2
    losses = np.array([r.loss for r in trace])
    running_mean = np.cumsum(sq_grads) / np.arange(1, sq_grads.size + 1)
    half = sq_grads.size // 2
    tail = running_mean[half:]
    decreasing = bool(np.all(np.diff(tail) <= 1e-12)) if tail.size > 1 else True
    return {
        "epochs": len(trace),
        "mean_sq_grad_norm": float(np.mean(sq_grads)),
        "final_loss": float(losses[-1]),
        "final_grad_norm": float(np.sqrt(sq_grads[-1])),
        "loss_curve": [float(v) for v in losses],
        "grad_running_mean_decreasing": decreasing,
    }
