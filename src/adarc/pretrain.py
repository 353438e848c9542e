"""Source-graph training: full-batch gradient descent with early stopping.

Plain gradient descent (no momentum) on mean cross-entropy plus L2 weight
decay on W1 and W_cls only. The loop keeps one accepted point: objective,
val accuracy, gradients and a parameter copy (with the feature statistics
taken under it) of the last evaluation that did not raise the objective.
An evaluation that raises it is rejected: the model gets copies of the
accepted parameters back and the rate halves, so the loss history is
non-increasing. Early stopping restores the accepted point with the best
val accuracy.

Each epoch's ``EpochRecord`` holds the accepted point's objective, val
accuracy and ‖∂CE/∂γ‖ (γ is not decayed, so also ‖∂objective/∂γ‖), and the
γ the epoch leaves. An accepted row is the epoch's own forward and backward
pass, then a step. A rejected row keeps the restored γ. The retry after it
steps from the accepted point without evaluating, since the restored
parameters would reproduce that point bit for bit: it costs no propagate
call. Rejected and retry rows count toward patience.

An epoch builds no hop stack: ``backward_ce``'s forward pass is the
``featurize_hops`` cache that every later reader scores with (see ``model``),
and it returns the normalization mean and variance, which are kept for the
best epoch's running statistics.

After restoring, the hop-weight vector is gauge-normalized: logits are
invariant under γ → γ/c, W_cls → c·W_cls, and cross-entropy training
drifts γ to large norms (the bilinear dynamics approximately conserve
‖W_cls‖² − ‖γ‖²). Rescaling γ back to its initialization norm — an exact
function-preserving reparameterization — keeps later γ-space adaptation
steps at a predictable scale instead of one dependent on how long
pretraining happened to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PROP_MODES, Dataset, PropagationOperator
from .model import (
    EpochRecord,
    GprModel,
    SoftPrediction,
    backward_ce,
    featurize_hops,  # not called here; perfbench.tracing.PATCHES wraps this binding
    init_model,
    prediction_accuracy,
    softmax,
)

__all__ = ["TrainConfig", "TrainDivergedError", "train_source", "pretrain_on"]

#: Parameters receiving L2 weight decay.
_DECAYED = ("W1", "W_cls")
_PARAM_NAMES = ("W1", "b1", "scale", "shift", "gamma", "W_cls", "b_cls")


@dataclass(frozen=True)
class TrainConfig:
    """Declared training defaults; every field is overridable via config."""

    learning_rate: float = 0.05
    epochs: int = 500
    weight_decay: float = 5e-4
    patience: int = 50
    seed: int = 0
    hidden: int = 32
    num_hops: int = 9
    gamma_alpha: float = 0.1
    prop_mode: str = "sym"

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.num_hops < 0:
            raise ValueError("num_hops must be >= 0")
        if not 0.0 < self.gamma_alpha <= 1.0:
            raise ValueError("gamma_alpha must lie in (0, 1]")
        if self.prop_mode not in PROP_MODES:
            raise ValueError(
                f"prop_mode must be one of {PROP_MODES}, got {self.prop_mode!r}"
            )


class TrainDivergedError(RuntimeError):
    """Training loss became non-finite."""


def _objective(ce: float, model: GprModel, weight_decay: float) -> float:
    reg = sum(float((getattr(model, n) ** 2).sum()) for n in _DECAYED)
    return ce + 0.5 * weight_decay * reg


def gauge_normalize(model: GprModel, target_norm: float) -> None:
    """Rescale (γ, W_cls) so ‖γ‖ = target_norm; logits are unchanged."""
    current = float(np.linalg.norm(model.gamma))
    if current == 0.0 or target_norm <= 0.0:
        return
    factor = current / target_norm
    model.gamma /= factor
    model.W_cls *= factor


def train_source(
    model: GprModel,
    dataset: Dataset,
    config: TrainConfig,
    op: PropagationOperator | None = None,
) -> tuple[GprModel, list[EpochRecord]]:
    """Train in place; returns (model, one ``EpochRecord`` per epoch run).

    Requires ``train`` and ``val`` masks on the dataset. Deterministic for
    a fixed config and dataset. The returned model holds the accepted point
    with the best val accuracy: its parameters, and as ``running_mean``/
    ``running_var`` the source statistics of its backward pass. Its
    ``prop_mode`` is ``config.prop_mode``. Each row records the accepted
    point: a rejected row the one it restored, a retry row the one it
    stepped from.
    """
    if "train" not in dataset.masks or "val" not in dataset.masks:
        raise ValueError("train_source requires 'train' and 'val' masks")
    if op is None:
        op = PropagationOperator(dataset.graph, config.prop_mode)
    model.prop_mode = config.prop_mode
    train_mask = dataset.masks["train"]
    val_mask = dataset.masks["val"]

    gamma_init_norm = float(np.linalg.norm(model.gamma))
    lr = config.learning_rate
    history: list[EpochRecord] = []
    # The accepted point: (objective, val accuracy, gradients, parameters plus
    # their statistics). Epoch 0 is always accepted, so it is set when read.
    accepted = None
    best_val, best_state = -1.0, {}
    epochs_since_best = 0
    rejected = False

    for epoch in range(config.epochs):
        epochs_since_best += 1
        if rejected:
            # The retry: the model holds the accepted point again; step from it.
            rejected = False
        else:
            ce, grads, logits, mean, var = backward_ce(model, dataset, train_mask, op)
            objective = _objective(ce, model, config.weight_decay)
            if not np.isfinite(objective):
                raise TrainDivergedError(
                    f"training objective became non-finite at epoch {epoch}"
                )
            rejected = accepted is not None and objective > accepted[0]
            if rejected:
                for name in _PARAM_NAMES:
                    setattr(model, name, accepted[3][name].copy())
                lr *= 0.5
            else:
                prediction = SoftPrediction(softmax(logits))
                val_acc = prediction_accuracy(prediction, dataset.labels, val_mask)
                snapshot = {n: getattr(model, n).copy() for n in _PARAM_NAMES}
                snapshot.update(running_mean=mean, running_var=var)
                accepted = (objective, val_acc, grads, snapshot)
                if val_acc > best_val:
                    best_val, best_state, epochs_since_best = val_acc, snapshot, 0

        objective, val_acc, grads, _ = accepted
        if not rejected:
            for name in _PARAM_NAMES:
                grad = grads[name]
                if name in _DECAYED:
                    grad = grad + config.weight_decay * getattr(model, name)
                setattr(model, name, getattr(model, name) - lr * grad)
        grad_norm = float(np.linalg.norm(grads["gamma"]))
        history.append(
            EpochRecord(epoch, objective, val_acc, grad_norm, model.gamma.copy())
        )
        if epochs_since_best > config.patience:
            break

    for name, value in best_state.items():
        setattr(model, name, value)
    gauge_normalize(model, gamma_init_norm)
    return model, history


def pretrain_on(
    dataset: Dataset, config: TrainConfig
) -> tuple[GprModel, list[EpochRecord]]:
    """Initialize a model for ``dataset`` and train it."""
    model = init_model(
        dim=dataset.num_features,
        hidden=config.hidden,
        num_classes=dataset.num_classes,
        num_hops=config.num_hops,
        seed=config.seed,
        alpha=config.gamma_alpha,
    )
    return train_source(model, dataset, config)
