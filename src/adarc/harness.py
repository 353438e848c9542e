"""Experiment harness: scenario presets, sweeps and gap decomposition.

A scenario ties together CSBM generation, source pretraining, and one or
more adaptation methods evaluated on the target graph. Seeds are expanded
deterministically: scenario seed ``s`` draws the source graph with ``2s``,
the target graph with ``2s+1``, the train/val split with ``s+777``, and
model initialization with ``s+1``. ``ScenarioSpec.draw`` draws one role of
one seed. ``sweep`` is the one scenario loop; its arms come built, each a
label, a scenario and its two configs, and ``run_scenario`` is a one-arm
sweep. Each seed pretrains once per distinct (scenario, train config), drawing
role by role as ``adarc generate`` does, so it holds one feature matrix at a
time; ``adarc decompose`` holds both graphs, because ``decompose_gap`` reads both.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .adapt import AdaptConfig, adapt
from .csbm import (
    PRESET_D,
    PRESET_N,
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
    "HEAD_FIT_TOLERANCE",
    "HEAD_FIT_MAX_ITERATIONS",
    "ScenarioSpec",
    "ExperimentReport",
    "GapDecomposition",
    "scenario_seeds",
    "run_scenario",
    "sweep",
    "fit_linear_head",
    "decompose_gap",
]

METHOD_NAMES = BASE_TTA_NAMES + tuple(f"{base}+adarc" for base in BASE_TTA_NAMES)
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

    def draw(self, role: str, seed: int) -> Dataset:
        """Scenario seed ``seed``'s ``role`` graph, the source with train/val masks.

        A pure attribute shift draws the target from the source's graph seed
        (paired design), so the two differ by exactly the attribute translation.
        """
        derived = scenario_seeds(seed)
        source = self.params("source", derived["source_graph"])
        if role == "source":
            return attach_split_masks(generate(source), seed=derived["split"])
        target = self.params(role, derived["target_graph"])
        if self.attribute_shift and (source.avg_degree, source.homophily) == (
            target.avg_degree, target.homophily
        ):
            target = replace(target, seed=source.seed)
        return generate(target)

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


def pretrain_scenario(
    spec: ScenarioSpec, seed: int, train_config: TrainConfig
) -> tuple[GprModel, Dataset]:
    """A model pretrained on one seed's source under its ``"model"`` seed, and the target.

    The source is released before the target is drawn: one feature matrix at a time.
    """
    config = replace(train_config, seed=scenario_seeds(seed)["model"])
    model, _ = pretrain_on(spec.draw("source", seed), config)
    return model, spec.draw("target", seed)


def _report(
    arm: tuple[str, ScenarioSpec, TrainConfig, AdaptConfig],
    methods: tuple[str, ...],
    seeds: tuple[int, ...],
    accs: dict[str, list[float]],
) -> ExperimentReport:
    label, spec, train_config, adapt_config = arm
    per_seed = {m: tuple(v) for m, v in accs.items()}
    # Each method's name gives its variant and each seed the model seed, so
    # neither is echoed.
    train_echo, adapt_echo = asdict(train_config), asdict(adapt_config)
    del train_echo["seed"], adapt_echo["base"]["variant"]
    return ExperimentReport(
        scenario=label,
        seeds=seeds,
        methods=methods,
        per_seed=per_seed,
        mean={m: float(np.mean(v)) for m, v in per_seed.items()},
        sd={m: (float(np.std(v, ddof=1)) if len(v) > 1 else 0.0) for m, v in per_seed.items()},
        config={
            "scenario": asdict(spec),
            "methods": list(methods),
            "seeds": list(seeds),
            "train": train_echo,
            "adapt": adapt_echo,
        },
    )


def run_scenario(
    spec: ScenarioSpec,
    methods: tuple[str, ...] = ("erm", "erm+adarc"),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    train_config: TrainConfig = TrainConfig(),
    adapt_config: AdaptConfig = AdaptConfig(),
) -> ExperimentReport:
    """Generate, pretrain, and evaluate every method on the target graph.

    A one-arm ``sweep`` labelled ``spec.scenario_id``, so each seed pretrains
    once and that model serves every method. Each method's variant comes from
    its name, its options from ``adapt_config.base``. Target accuracy is
    measured over all target nodes. A repeated method or seed is an error.
    """
    return sweep([(spec.scenario_id, spec, train_config, adapt_config)], methods, seeds)[0]


def sweep(
    arms: list[tuple[str, ScenarioSpec, TrainConfig, AdaptConfig]],
    methods: tuple[str, ...] = ("erm", "erm+adarc"),
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
) -> list[ExperimentReport]:
    """One report per ``(label, spec, train, adapt)`` arm, named by its label.

    The methods and seeds are checked, and the arms come built, before the
    first pretraining. Each seed pretrains once per distinct (scenario, train
    config), in the order its first arm appears, featurizes that target once,
    and releases that model, target and cache before the next draw. Every
    method of every arm in the group reads that one cache and its hop moments
    (see ``adapt``): a plain method is ``base_predict`` on it. A method names
    its variant and a seed the model's seed.
    """
    if not arms:
        raise ValueError("arms must be nonempty")
    for what, values in (("methods", methods), ("seeds", seeds)):
        if not values:
            raise ValueError(f"{what} must be nonempty")
        if len(set(values)) != len(values):
            raise ValueError(f"{what} must not repeat, got {tuple(values)}")
    parsed = [(name, *_parse_method(name)) for name in methods]
    accs: list[dict[str, list[float]]] = [{m: [] for m in methods} for _ in arms]
    groups: dict[tuple[ScenarioSpec, TrainConfig], list[tuple[AdaptConfig, dict]]] = {}
    for (_, spec, train_config, adapt_config), arm_accs in zip(arms, accs):
        groups.setdefault((spec, train_config), []).append((adapt_config, arm_accs))

    for seed in seeds:
        for (spec, train_config), members in groups.items():
            model, target = pretrain_scenario(spec, seed, train_config)
            op = PropagationOperator(target.graph, model.prop_mode)
            cache = featurize_hops(model, target, op)
            for adapt_config, arm_accs in members:
                for name, base, use_adarc in parsed:
                    kind = replace(adapt_config.base, variant=base)
                    if use_adarc:
                        config = replace(adapt_config, base=kind)
                        prediction = adapt(model, target, cache, config).prediction
                    else:
                        prediction = base_predict(kind, model, cache, target)
                    arm_accs[name].append(prediction_accuracy(prediction, target.labels))
            # Release this draw's graph, model and cache before the next one.
            del target, model, op, cache

    return [_report(arm, tuple(methods), tuple(seeds), a) for arm, a in zip(arms, accs)]


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
