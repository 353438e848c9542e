"""Outer adaptation loop: gradient descent on the hop-aggregation vector γ.

Each epoch obtains a soft prediction from the base predictor, then takes one
descent step on γ through the chosen unsupervised surrogate while holding
that prediction constant. Hop representations are cached up front, so the
whole run touches the propagation operator exactly once per hop.

For ``pic`` and ``diff`` the surrogate never builds Z. The first epoch
computes the cache's per-column hop moments once (``HopCache.moments``),
which give σ² = γᵀS_tγ under whatever scale and shift the epoch holds, so
the ``theta`` and ``joint`` ablations and ``persist_base_tta`` take the same
path as ``gamma``. Each epoch then makes one Ŷᵀ·hops contraction for σ²_inter
and solves the rest in (K+1)-space (see ``losses``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

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
from .tta import BaseTtaKind, base_predict, tent_lite_affine

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
    affine_lr: float = 0.01

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
        if self.affine_lr <= 0:
            raise ValueError("affine_lr must be > 0")


@dataclass(frozen=True)
class AdaptResult:
    """Adapted model plus the full per-epoch trace."""

    model: GprModel
    prediction: SoftPrediction
    trace: tuple[EpochRecord, ...]
    stage_seconds: dict[str, float]


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
    stage = {"featurize": 0.0, "base_predict": 0.0, "surrogate": 0.0, "update": 0.0}

    t0 = time.perf_counter()
    cache = featurize_hops(model, dataset, op)
    stage["featurize"] += time.perf_counter() - t0

    trace: list[EpochRecord] = []
    update_gamma = config.ablation in ("gamma", "joint")
    update_affine = config.ablation in ("theta", "joint")
    persist_tent = config.persist_base_tta and config.base.variant == "tent"
    affine_kind = BaseTtaKind(variant="tent", steps=1, lr=config.affine_lr)

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        prediction = base_predict(config.base, model, cache, dataset)
        stage["base_predict"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        loss, grad = surrogate_loss_and_grad_gamma(
            config.loss, model, cache, prediction
        )
        stage["surrogate"] += time.perf_counter() - t0

        if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
            raise AdaptationDivergedError(
                f"non-finite surrogate at epoch {epoch}: loss={loss!r}",
                tuple(trace),
            )

        t0 = time.perf_counter()
        if update_gamma:
            model.gamma[:] = model.gamma - config.learning_rate * grad
        if update_affine:
            scale, shift = tent_lite_affine(affine_kind, model, cache)
            model.scale[:] = scale
            model.shift[:] = shift
        if persist_tent:
            scale, shift = tent_lite_affine(config.base, model, cache)
            model.scale[:] = scale
            model.shift[:] = shift
        stage["update"] += time.perf_counter() - t0

        trace.append(
            EpochRecord(
                epoch=epoch,
                loss=float(loss),
                accuracy=prediction_accuracy(prediction, dataset.labels),
                grad_norm=float(np.linalg.norm(grad)),
                gamma=model.gamma.copy(),
            )
        )

    t0 = time.perf_counter()
    prediction = base_predict(config.base, model, cache, dataset)
    stage["base_predict"] += time.perf_counter() - t0

    return AdaptResult(
        model=model,
        prediction=prediction,
        trace=tuple(trace),
        stage_seconds=stage,
    )


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
