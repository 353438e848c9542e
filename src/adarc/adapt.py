"""Outer adaptation loop: gradient descent on the hop-aggregation vector γ.

Each epoch obtains a soft prediction from the base predictor, then takes one
descent step on γ through the chosen unsupervised surrogate while holding
that prediction constant. No hop stack is built: the caller's ``HopCache``
(``featurize_hops``, K propagate calls) holds [X̂ | 1] and the per-hop class
scores of the model's head, and each reader predicts, then propagates. γ and
the norm affine are all that adaptation writes, so [X̂ | 1] and its hop
moments hold for every run on one (model, target): ``sweep`` builds one cache
for all its methods, and the CLI one for ``adapt``. With an ``erm`` base and
``pic``, a run of T epochs makes K((H+1) + T) propagate calls: K per column of
[X̂ | 1] for the hop moments (once per cache) and K per epoch to propagate Ŷ
for σ²_inter. ``tent`` adds 2K and ``t3a`` 2K per base prediction (see
``tta``), and a norm-affine write-back K more per epoch, to rebuild the class
scores of the new head.

The ``theta`` and ``joint`` ablations and ``persist_base_tta`` (with a
``tent`` base) also write a norm affine back each epoch, after the γ step:
one ``tta.tent_lite`` call at the base's rate with n steps, one for the θ
ablation plus the base's ``steps`` for a persisted Tent. ``tent_lite`` stops
at its first rejected step, so those n steps are the θ step followed by the
base Tent.

For ``pic`` and ``diff`` the surrogate never builds Z. The first epoch that
reads them computes the cache's per-column hop moments (``HopCache.moments``),
which give σ² = γᵀS_tγ under whatever scale and shift the epoch holds, so
the ``theta`` and ``joint`` ablations and ``persist_base_tta`` take the same
path as ``gamma``. Each epoch then takes Ŷᵀ·hops for σ²_inter as
((Ãᵀ)^k Ŷ)ᵀ [X̂ | 1] and solves the rest in (K+1)-space (see ``losses``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .graph import Dataset
from .losses import LOSS_KINDS, surrogate_loss_and_grad_gamma
from .model import (
    EpochRecord,
    GprModel,
    HopCache,
    SoftPrediction,
    featurize_hops,  # not called here; perfbench.tracing.PATCHES wraps this binding
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
    cache: HopCache,
    config: AdaptConfig,
) -> AdaptResult:
    """Adapt ``model`` to ``dataset`` on the caller's ``cache`` and return a copy.

    ``cache`` is ``featurize_hops(model, dataset, op)``: ``base_predict``
    raises ``StaleCacheError`` for a cache of another featurizer, graph or
    operator mode. The input model is never mutated: the copy owns its γ,
    scale and shift, the only arrays adaptation writes, and shares the rest.
    The cache is only read, but for its class scores, which a norm-affine
    write-back rebuilds for the new head; the next reader at another head
    rebuilds its own. Each trace record holds the surrogate loss, the all-node
    accuracy of that epoch's base prediction and ‖∇γL‖, all before the
    epoch's step, and the γ after it; the returned prediction comes from one
    final base-predictor call after the last step. So ``trace[0].accuracy`` is
    the accuracy of the unadapted base prediction, before any γ step or affine
    write-back: the CLI reports it as ``accuracy_before``.
    """
    model = replace(model, **{n: getattr(model, n).copy() for n in ("gamma", "scale", "shift")})

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
