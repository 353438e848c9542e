"""Experiment harness: scenario presets, sweeps and gap decomposition.

A scenario ties together CSBM generation, source pretraining, and one or
more adaptation methods evaluated on the target graph. Seeds are expanded
deterministically: scenario seed ``s`` draws the source graph with ``2s``,
the target graph with ``2s+1``, the train/val split with ``s+777``, and
model initialization with ``s+1``. ``run_scenario`` draws each seed's source,
pretrains on it and releases it before it draws the target, so a run holds
one feature matrix at a time.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .adapt import AdaptConfig, adapt
from .csbm import (
    PRESET_D,
    PRESET_N,
    PRESETS,
    CsbmParams,
    attach_split_masks,
    generate,
    preset_params,
)
from .graph import Dataset, PropagationOperator
from .model import (
    GprModel,
    HopCache,
    aggregate,
    cross_entropy,
    featurize_hops,
    prediction_accuracy,
)
from .pretrain import TrainConfig, pretrain_on
from .tta import BASE_TTA_NAMES, BaseTtaKind, base_predict

__all__ = [
    "METHOD_NAMES",
    "SWEEP_AXES",
    "HEAD_FIT_TOLERANCE",
    "HEAD_FIT_MAX_ITERATIONS",
    "ScenarioSpec",
    "ExperimentReport",
    "GapDecomposition",
    "scenario_seeds",
    "build_scenario_datasets",
    "pretrain_scenario",
    "run_scenario",
    "sweep",
    "fit_linear_head",
    "decompose_gap",
]

METHOD_NAMES = BASE_TTA_NAMES + tuple(f"{base}+adarc" for base in BASE_TTA_NAMES)
SWEEP_AXES = ("shift_level", "lr_epochs", "hops_K", "loss_kind")
#: ``fit_linear_head`` stops below this gradient norm (converged) or at this cap.
HEAD_FIT_TOLERANCE = 1e-6
HEAD_FIT_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class ScenarioSpec:
    """A named source→target shift scenario.

    Construction builds the source and target draws' parameters, so an
    unknown preset, an odd ``n``, an h outside [0, 1] or an infeasible
    p/q raises here, before anything is drawn.
    """

    preset: str = "homo2hetero"
    attribute_shift: bool = False
    n: int = PRESET_N
    dim: int = PRESET_D
    source_h: float | None = None
    source_d: float | None = None

    def __post_init__(self) -> None:
        for role in ("source", "target"):
            self.params(role, seed=0)

    def params(self, role: str, seed: int) -> CsbmParams:
        """CSBM parameters of the ``role`` graph; only the source takes ``source_*``."""
        source = role == "source"
        return preset_params(
            self.preset,
            role,
            seed=seed,
            attribute_shift=self.attribute_shift,
            n=self.n,
            dim=self.dim,
            override_d=self.source_d if source else None,
            override_h=self.source_h if source else None,
        )

    @property
    def scenario_id(self) -> str:
        parts = [self.preset]
        if self.attribute_shift:
            parts.append("attr")
        if self.source_h is not None:
            parts.append(f"source_h={self.source_h:g}")
        if self.source_d is not None:
            parts.append(f"source_d={self.source_d:g}")
        return "+".join(parts)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-seed accuracies for each method, with summary statistics."""

    scenario: str
    seeds: tuple[int, ...]
    methods: tuple[str, ...]
    per_seed: dict[str, tuple[float, ...]]
    mean: dict[str, float]
    sd: dict[str, float]
    config: dict


def scenario_seeds(seed: int) -> dict[str, int]:
    """Derived seeds for one scenario run."""
    return {
        "source_graph": 2 * seed,
        "target_graph": 2 * seed + 1,
        "split": seed + 777,
        "model": seed + 1,
    }


def _parse_method(name: str) -> tuple[str, bool]:
    if name not in METHOD_NAMES:
        raise ValueError(f"unknown method {name!r}; choose from {METHOD_NAMES}")
    base, _, adarc = name.partition("+")
    return base, bool(adarc)


def _draw_scenario(spec: ScenarioSpec, seed: int) -> Iterator[Dataset]:
    """One seed's source with train/val masks, then its target, each drawn when asked for."""
    derived = scenario_seeds(seed)
    source_params = spec.params("source", derived["source_graph"])
    target_params = spec.params("target", derived["target_graph"])
    if (
        spec.attribute_shift
        and source_params.avg_degree == target_params.avg_degree
        and source_params.homophily == target_params.homophily
    ):
        # Structure-equal scenario: the only moving factor is the attribute
        # shift, so hold the graph draw fixed (paired design). Source and
        # target then share adjacency, labels, and feature noise; the target
        # differs by exactly the attribute translation.
        target_params = replace(target_params, seed=source_params.seed)
    yield attach_split_masks(generate(source_params), seed=derived["split"])
    yield generate(target_params)


def build_scenario_datasets(
    spec: ScenarioSpec, seed: int
) -> tuple[Dataset, Dataset]:
    """(source with train/val masks, target) for one scenario seed, drawn in turn."""
    source, target = _draw_scenario(spec, seed)
    return source, target


def pretrain_scenario(
    spec: ScenarioSpec, seed: int, train_config: TrainConfig
) -> tuple[GprModel, Dataset]:
    """A model pretrained on one seed's source under its ``"model"`` seed, and the target.

    The source is released before the target is drawn, so at most one of
    the two feature matrices is held at a time.
    """
    draws = _draw_scenario(spec, seed)
    config = replace(train_config, seed=scenario_seeds(seed)["model"])
    model, _ = pretrain_on(next(draws), config)
    return model, next(draws)


def _config_echo(
    spec: ScenarioSpec,
    methods: tuple[str, ...],
    seeds: tuple[int, ...],
    train_config: TrainConfig,
    adapt_config: AdaptConfig,
) -> dict:
    # Each method's name gives its variant, so only the base options are echoed.
    adapt_echo = asdict(adapt_config)
    del adapt_echo["base"]["variant"]
    return {
        "scenario": asdict(spec),
        "methods": list(methods),
        "seeds": list(seeds),
        "train": asdict(train_config),
        "adapt": adapt_echo,
    }


def run_scenario(
    spec: ScenarioSpec,
    methods: tuple[str, ...] = ("erm", "erm+adarc"),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    train_config: TrainConfig = TrainConfig(),
    adapt_config: AdaptConfig = AdaptConfig(),
) -> ExperimentReport:
    """Generate, pretrain, and evaluate every method on the target graph.

    Each method's variant comes from its name, and its options from
    ``adapt_config.base``. Target accuracy is measured over all target nodes.
    One pretrained model per seed is shared by all methods. A plain method
    whose ``+adarc`` partner also runs reads its accuracy from epoch 0 of
    that run's trace, which scores the same unadapted base prediction; only
    plain methods without a partner featurize the target (once per seed,
    shared). A repeated method or seed is an error.
    """
    for what, values in (("methods", methods), ("seeds", seeds)):
        if not values:
            raise ValueError(f"{what} must be nonempty")
        if len(set(values)) != len(values):
            raise ValueError(f"{what} must not repeat, got {tuple(values)}")
    parsed = [(name, *_parse_method(name)) for name in methods]
    kinds = {base: replace(adapt_config.base, variant=base) for _, base, _ in parsed}

    accs: dict[str, list[float]] = {m: [] for m in methods}

    for seed in seeds:
        model, target = pretrain_scenario(spec, seed, train_config)

        op = PropagationOperator(target.graph, model.prop_mode)
        adapted = {
            base: adapt(model, target, op, replace(adapt_config, base=kinds[base]))
            for _, base, use_adarc in parsed
            if use_adarc
        }
        plain_cache = None
        for name, base, use_adarc in parsed:
            if use_adarc:
                acc = prediction_accuracy(adapted[base].prediction, target.labels)
            elif base in adapted:
                # Epoch 0 of the partner run scored the unadapted base
                # prediction on this model and target: the plain method's.
                acc = adapted[base].trace[0].accuracy
            else:
                if plain_cache is None:
                    plain_cache = featurize_hops(model, target, op)
                prediction = base_predict(kinds[base], model, plain_cache, target)
                acc = prediction_accuracy(prediction, target.labels)
            accs[name].append(acc)
        # Release this seed's graph, model and caches before the next seed draws.
        del target, model, op, adapted, plain_cache

    per_seed = {m: tuple(v) for m, v in accs.items()}
    mean = {m: float(np.mean(v)) for m, v in per_seed.items()}
    sd = {
        m: (float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
        for m, v in per_seed.items()
    }
    return ExperimentReport(
        scenario=spec.scenario_id,
        seeds=tuple(seeds),
        methods=tuple(methods),
        per_seed=per_seed,
        mean=mean,
        sd=sd,
        config=_config_echo(spec, tuple(methods), tuple(seeds), train_config, adapt_config),
    )


def _whole_number(value, what: str) -> int:
    """``value`` as an int: 3.0 is 3, and 2.7 is an error, not 2."""
    number = int(value)
    if number != float(value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return number


def _apply_axis(
    axis: str,
    value,
    spec: ScenarioSpec,
    train_config: TrainConfig,
    adapt_config: AdaptConfig,
) -> tuple[ScenarioSpec, TrainConfig, AdaptConfig, str]:
    if axis == "shift_level":
        level = float(value)
        # PRESETS holds (d, h) per role: sweep d where the preset shifts it, else h.
        preset = PRESETS[spec.preset]
        field = "source_d" if preset["source"][0] != preset["target"][0] else "source_h"
        return replace(spec, **{field: level}), train_config, adapt_config, f"{field}={level:g}"
    if axis == "lr_epochs":
        lr, epochs = float(value[0]), _whole_number(value[1], "epochs")
        new = replace(adapt_config, learning_rate=lr, epochs=epochs)
        return spec, train_config, new, f"lr={lr:g},T={epochs}"
    if axis == "hops_K":
        k = _whole_number(value, "K")
        return spec, replace(train_config, num_hops=k), adapt_config, f"K={k}"
    if axis == "loss_kind":
        kind = str(value)
        return spec, train_config, replace(adapt_config, loss=kind), f"loss={kind}"
    raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def sweep(
    axis: str,
    grid,
    spec: ScenarioSpec,
    methods: tuple[str, ...] = ("erm", "erm+adarc"),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    train_config: TrainConfig = TrainConfig(),
    adapt_config: AdaptConfig = AdaptConfig(),
) -> list[ExperimentReport]:
    """One ``run_scenario`` report per grid value along the chosen axis.

    ``shift_level`` sets whichever of the source's degree or homophily the
    preset shifts, with the target fixed; ``lr_epochs`` takes
    (learning-rate, epochs) pairs; ``hops_K`` re-pretrains with a different
    hop count; ``loss_kind`` switches the surrogate. Epoch and hop counts
    must be whole numbers. Grid values may be strings: every value is
    converted and its scenario and configs built, and so checked, before the
    first arm runs. As in ``run_scenario``, each method's variant comes from
    its name and its options from ``adapt_config.base``.
    """
    arms = [_apply_axis(axis, v, spec, train_config, adapt_config) for v in grid]
    if not arms:
        raise ValueError("grid must be nonempty")
    reports = []
    for spec_v, train_v, adapt_v, tag in arms:
        report = run_scenario(spec_v, methods, seeds, train_v, adapt_v)
        reports.append(replace(report, scenario=f"{spec.scenario_id}[{tag}]"))
    return reports


@dataclass(frozen=True)
class GapDecomposition:
    """Source→target accuracy gap split at the best frozen-featurizer head."""

    delta_f: float
    delta_g: float
    acc_source: float
    sup_g_acc: float
    acc_target: float
    fit_iterations: int
    fit_grad_norm: float
    fit_converged: bool


def fit_linear_head(
    Z: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Multinomial logistic regression on frozen representations.

    Plain gradient descent on the mean cross-entropy from W = 0 at rate 1,
    run until the gradient norm falls below ``HEAD_FIT_TOLERANCE`` or
    ``HEAD_FIT_MAX_ITERATIONS`` is reached. A step that increases the
    objective is rejected and the rate halved.
    Returns (W, b, iterations_used, final_gradient_norm).
    """
    width = Z.shape[1]
    W = np.zeros((width, num_classes))
    b = np.zeros(num_classes)

    def ce_and_grad(W, b):
        ce, g = cross_entropy(Z @ W + b[None, :], labels)
        return ce, Z.T @ g, g.sum(axis=0)

    lr = 1.0
    ce, dW, db = ce_and_grad(W, b)
    grad_norm = float(np.sqrt((dW**2).sum() + (db**2).sum()))
    iterations = 0
    for _ in range(HEAD_FIT_MAX_ITERATIONS):
        if grad_norm < HEAD_FIT_TOLERANCE:
            break
        new_W = W - lr * dW
        new_b = b - lr * db
        new_ce, new_dW, new_db = ce_and_grad(new_W, new_b)
        iterations += 1
        if new_ce > ce:
            lr *= 0.5
            continue
        W, b, ce, dW, db = new_W, new_b, new_ce, new_dW, new_db
        grad_norm = float(np.sqrt((dW**2).sum() + (db**2).sum()))
    return W, b, iterations, grad_norm


def decompose_gap(
    model: GprModel, source: Dataset, target: Dataset
) -> GapDecomposition:
    """Split the source→target accuracy drop into featurizer and head parts.

    All accuracies are measured over every node of their graph — the setting
    is transductive, and keeping both sides on the same footing stops the
    train/test composition of the source split from leaking into the split.
    ``sup_g_acc`` refits a linear head on the frozen target representations
    with target labels — an evaluation-only diagnostic giving the best the
    featurizer allows. Δ_f = acc_source − sup_g_acc and
    Δ_g = sup_g_acc − acc_target. Both graphs propagate under the model's
    ``prop_mode``, and both accuracies are ``base_predict``'s ERM; Z is built
    only for the target, whose head is refit.
    """

    def erm(data: Dataset) -> tuple[HopCache, float]:
        op = PropagationOperator(data.graph, model.prop_mode)
        cache = featurize_hops(model, data, op)
        prediction = base_predict(BaseTtaKind(), model, cache, data)
        return cache, prediction_accuracy(prediction, data.labels)

    _, acc_source = erm(source)
    cache_t, acc_target = erm(target)
    Z_t = aggregate(cache_t, model.gamma, model.scale, model.shift)

    W, b, iterations, grad_norm = fit_linear_head(
        Z_t, target.labels, target.num_classes
    )
    refit_hard = np.argmax(Z_t @ W + b[None, :], axis=1)
    sup_g_acc = float(np.mean(refit_hard == target.labels))

    return GapDecomposition(
        delta_f=acc_source - sup_g_acc,
        delta_g=sup_g_acc - acc_target,
        acc_source=acc_source,
        sup_g_acc=sup_g_acc,
        acc_target=acc_target,
        fit_iterations=iterations,
        fit_grad_norm=grad_norm,
        fit_converged=bool(grad_norm < HEAD_FIT_TOLERANCE),
    )
