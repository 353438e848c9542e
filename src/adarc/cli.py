"""Command-line interface.

Seven subcommands: ``generate``, ``pretrain``, ``adapt``, ``eval``,
``sweep``, ``decompose``, ``theory``. Every subcommand takes ``--out``;
``--seed`` (default 0) is declared only where it seeds a draw (``generate``,
``pretrain``, ``decompose``, ``theory``) and ``--config FILE`` everywhere
but ``theory``. FILE holds ``key=value`` lines (``#`` comments allowed).
Recognized keys use prefixes ``scenario.``, ``train.``, ``adapt.``,
``base.`` over the corresponding config dataclasses. Each flag that sets a
run setting names one key (``--lr`` is ``adapt.learning_rate``,
``--base-tta`` is ``base.variant``, ``pretrain --seed`` is ``train.seed``)
and is merged over the file in one place, so flags win. Every command that
takes ``--config`` builds every section, so a bad value is an input error
even in a section the command does not read. ``sweep`` builds one arm per
point of its ``--vary KEY=V1,V2,...`` product, with the point's keys over the
merged ones, before it runs the first. It rejects ``base.variant`` (each method
names it), and it and ``decompose`` reject ``train.seed`` (each seed derives it).
``adapt`` and ``eval`` propagate under the checkpoint's ``prop_mode``; a
``train.prop_mode`` in ``--config`` that contradicts it is an input error.
``adapt`` featurizes the target once, inside ``adapt.adapt``, and reports
epoch 0 of its trace as ``accuracy_before``. A hop cache holds no hop stack,
only a few N×(H+1) arrays, and each pass over the read features releases the
pages it has read (see ``io``), so ``adapt`` and ``eval`` hold about one row
block of ``features.bin`` and one such cache at a time.
``generate`` draws only the roles it writes, and writes each before the next.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
All output files are byte-deterministic for a fixed seed. No command
measures time; ``perfbench`` times the lab.

Reproducibility contract: ``--out`` files (and checkpoints, datasets and
traces) are byte-identical for a fixed OpenBLAS build, CPU kernel and BLAS
thread count. The two GEMMs that read the features run in f32 (``sgemm``),
the rest of the model in f64, so the bytes are tied to both kernels. Across
thread counts the BLAS sums run in another order, so they agree to round-off
only. Datasets hold no BLAS result: ``generate`` writes the same bytes on any
BLAS. ``tests/byte_identity.py`` hashes the outputs of one fixed script at one
BLAS thread, to compare two source trees.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import textwrap
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from .adapt import (
    ABLATION_NAMES,
    AdaptationDivergedError,
    AdaptConfig,
    adapt,
    convergence_report,
)
from .csbm import PRESET_D, PRESET_N, PRESETS
from .graph import PropagationOperator
from .harness import (
    HEAD_FIT_MAX_ITERATIONS,
    HEAD_FIT_TOLERANCE,
    METHOD_NAMES,
    ScenarioSpec,
    decompose_gap,
    scenario_seeds,
    sweep,
)
from .io import (
    FormatError,
    read_dataset,
    report_text,
    write_csv,
    write_dataset,
    write_json_report,
)
from .losses import LOSS_KINDS, DegenerateRepresentationError
from .model import (
    GprModel,
    featurize_hops,
    load_checkpoint,
    prediction_accuracy,
    save_checkpoint,
)
from .pretrain import TrainConfig, TrainDivergedError, pretrain_on
from .theory import (
    TheoryPoint,
    attribute_shift_accuracy,
    closed_form_accuracy,
    monte_carlo_accuracy,
    optimal_gamma,
)
from .tta import BASE_TTA_NAMES, BaseTtaKind, base_predict

__all__ = ["main"]

#: Config key prefix and the dataclass whose fields it sets.
_SECTIONS = (
    ("scenario", ScenarioSpec),
    ("train", TrainConfig),
    ("adapt", AdaptConfig),
    ("base", BaseTtaKind),
)


def _section_keys(cls) -> list[str]:
    # A factory-built field (``AdaptConfig.base``) has a section of its own.
    return [f.name for f in fields(cls) if f.default_factory is MISSING]


def _known_keys() -> set[str]:
    return {f"{p}.{name}" for p, cls in _SECTIONS for name in _section_keys(cls)}


def _config_help() -> str:
    lines = ["config file keys (key=value per line, # comments; flags win):"]
    for prefix, cls in _SECTIONS:
        keys = f"{prefix}.{' | '.join(_section_keys(cls))}"
        lines.append(textwrap.fill(keys, initial_indent="  ", subsequent_indent="    "))
    return "\n".join(lines) + "\n"


def _parse_config_file(path: str) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line (expected key=value): {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in overrides:
            raise ValueError(f"config key {key} is set twice in {path}")
        overrides[key] = value
    return overrides


_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False
)


def _convert(example, text: str, key: str):
    """``text`` as the type of the field's default (float for an optional one)."""
    if isinstance(example, str):
        return text
    kind = float if example is None else type(example)
    try:
        value = _BOOLEANS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        message = f"config key {key}: expected {kind.__name__}, got {text!r}"
        raise ValueError(message) from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"config key {key}: expected a finite float, got {text!r}")
    return value


def _build(overrides: dict[str, str]) -> tuple[ScenarioSpec, TrainConfig, AdaptConfig]:
    """Each ``_SECTIONS`` dataclass from ``overrides``, ``base`` nested into ``AdaptConfig``.

    Each is built, and so checked, read or not; an unknown key is an error.
    """
    unknown = sorted(set(overrides) - _known_keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    sections = []
    for prefix, cls in _SECTIONS:
        values = {}
        for f in fields(cls):
            key = f"{prefix}.{f.name}"
            if key in overrides:
                values[f.name] = _convert(f.default, overrides[key], key)
        sections.append(cls(**values))
    spec, train_config, adapt_config, base = sections
    return spec, train_config, replace(adapt_config, base=base)


def _settings(args) -> tuple[ScenarioSpec, TrainConfig, AdaptConfig, dict[str, str]]:
    """``_build``'s sections and their keys: each given flag's over the ``--config`` file's."""
    overrides = _parse_config_file(args.config) if args.config else {}
    overrides |= {k: v for k, v in vars(args).items() if "." in k and v is not None}
    return *_build(overrides), overrides


def _reject_derived(keys, *names: str) -> None:
    # The command sets these itself, per scenario seed or per method name.
    for name in names:
        if name in keys:
            raise ValueError(f"config key {name} cannot be given: the command derives it")


def _load_model_and_op(
    args, overrides: dict[str, str], dataset
) -> tuple[GprModel, PropagationOperator]:
    """The checkpoint's model, and its operator on the graph under its own mode."""
    model = load_checkpoint(args.ckpt)
    if dataset.num_classes > model.W_cls.shape[1]:
        raise ValueError(
            f"the dataset has {dataset.num_classes} classes but the checkpoint "
            f"predicts only {model.W_cls.shape[1]}"
        )
    configured = overrides.get("train.prop_mode", model.prop_mode)
    if configured != model.prop_mode:
        raise ValueError(
            f"config key train.prop_mode={configured} contradicts the checkpoint, "
            f"which was trained with prop_mode={model.prop_mode}"
        )
    return model, PropagationOperator(dataset.graph, model.prop_mode)


def _require_out(args, what: str) -> Path:
    if not args.out:
        raise ValueError(f"--out is required for {what}")
    return Path(args.out)


def _emit(args, report: dict) -> None:
    if args.out:
        write_json_report(args.out, report)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report_text(report))


def _cmd_generate(args) -> int:
    spec, _, _, _ = _settings(args)
    out_dir = _require_out(args, "generate")
    roles = ("source", "target") if args.role == "both" else (args.role,)
    for role in roles:
        directory = out_dir / role if args.role == "both" else out_dir
        directory.mkdir(parents=True, exist_ok=True)
        write_dataset(spec.draw(role, args.seed), directory)
        print(f"wrote {role} dataset to {directory}")
    return 0


def _cmd_pretrain(args) -> int:
    _, config, _, _ = _settings(args)
    dataset = read_dataset(args.data)
    model, history = pretrain_on(dataset, config)
    out = _require_out(args, "pretrain")
    save_checkpoint(model, out)
    best_val = max(record.accuracy for record in history)
    print(
        f"wrote {out} after {len(history)} epochs (final objective "
        f"{history[-1].loss:.6f}, best-restored val acc {best_val:.4f})"
    )
    return 0


def _adapt_config_echo(config: AdaptConfig) -> dict:
    """Every ``AdaptConfig`` and ``BaseTtaKind`` field the run used, by config key."""
    return {
        f"{prefix}.{name}": getattr(instance, name)
        for prefix, instance in (("adapt", config), ("base", config.base))
        for name in _section_keys(type(instance))
    }


def _cmd_adapt(args) -> int:
    _, _, config, overrides = _settings(args)
    dataset = read_dataset(args.data)
    model, op = _load_model_and_op(args, overrides, dataset)
    try:
        result = adapt(model, dataset, op, config)
    except AdaptationDivergedError as exc:
        sys.stderr.write(f"adaptation diverged: {exc}\n")
        for record in exc.trace:
            sys.stderr.write(
                f"  epoch {record.epoch}: loss={record.loss!r} "
                f"grad_norm={record.grad_norm!r}\n"
            )
        raise

    report = {
        "accuracy_before": result.trace[0].accuracy,
        "accuracy_after": prediction_accuracy(result.prediction, dataset.labels),
        "gamma_before": [float(v) for v in model.gamma],
        "gamma_after": [float(v) for v in result.model.gamma],
        "convergence": convergence_report(result.trace),
        "config": {**_adapt_config_echo(config), "prop_mode": model.prop_mode},
    }
    _emit(args, report)
    trace_path = args.trace or (
        Path(args.out).with_suffix(".trace.csv") if args.out else None
    )
    if trace_path:
        k = len(model.gamma)
        write_csv(
            trace_path,
            ["epoch", "loss", "grad_norm", "accuracy"]
            + [f"gamma_{i}" for i in range(k)],
            [
                [r.epoch, r.loss, r.grad_norm, r.accuracy] + [float(v) for v in r.gamma]
                for r in result.trace
            ],
        )
        print(f"wrote {trace_path}")
    return 0


def _cmd_eval(args) -> int:
    *_, overrides = _settings(args)
    dataset = read_dataset(args.data)
    model, op = _load_model_and_op(args, overrides, dataset)
    # The ERM prediction: one featurization serves every mask.
    prediction = base_predict(
        BaseTtaKind(), model, featurize_hops(model, dataset, op), dataset
    )
    labels = dataset.labels
    report = {"accuracy_all": prediction_accuracy(prediction, labels)}
    if dataset.masks:
        covered = np.zeros(dataset.num_nodes, dtype=bool)
        for name, mask in sorted(dataset.masks.items()):
            report[f"accuracy_{name}"] = prediction_accuracy(prediction, labels, mask)
            covered |= mask
        if covered.any() and not covered.all():
            report["accuracy_test"] = prediction_accuracy(prediction, labels, ~covered)
    _emit(args, report)
    return 0


def _parse_seeds(text: str) -> tuple[int, ...]:
    seeds = tuple(int(t) for t in text.split(",") if t.strip())
    if not seeds:
        raise ValueError("at least one seed is required")
    return seeds


def _parse_vary(items: list[str]) -> dict[str, list[str]]:
    """Each ``--vary KEY=V1,V2,...`` as key → values, in the order given."""
    vary: dict[str, list[str]] = {}
    for item in items:
        key, _, text = (part.strip() for part in item.partition("="))
        values = [t.strip() for t in text.split(",") if t.strip()]
        if not values or key in vary or len(set(values)) < len(values):
            raise ValueError(f"--vary takes KEY=V1,V2,..., each key and value once, got {item!r}")
        vary[key] = values
    return vary


def _cmd_sweep(args) -> int:
    *_, overrides = _settings(args)
    vary = _parse_vary(args.vary)
    _reject_derived(overrides.keys() | vary.keys(), "train.seed", "base.variant")
    methods = tuple(t.strip() for t in args.methods.split(",") if t.strip())
    seeds = _parse_seeds(args.seeds)
    # Every arm is built, and so checked, before the first one runs.
    arms = []
    for values in itertools.product(*vary.values()):
        point = dict(zip(vary, values))
        tag = ",".join(f"{key}={value}" for key, value in point.items())
        spec, train_config, adapt_config = _build(overrides | point)
        arms.append((f"{spec.scenario_id}[{tag}]", spec, train_config, adapt_config))
    reports = sweep(arms, methods, seeds)
    out = _require_out(args, "sweep")
    write_json_report(out, {"vary": vary, "reports": [asdict(r) for r in reports]})
    rows = [
        [r.scenario, m, r.mean[m], r.sd[m], *r.per_seed[m]] for r in reports for m in r.methods
    ]
    write_csv(
        out.with_suffix(".csv"),
        ["scenario", "method", "mean", "sd"] + [f"seed_{s}" for s in seeds],
        rows,
    )
    print(f"wrote {out} and {out.with_suffix('.csv')}")
    return 0


def _cmd_decompose(args) -> int:
    spec, train_cfg, _, overrides = _settings(args)
    _reject_derived(overrides, "train.seed")
    source = spec.draw("source", args.seed)
    config = replace(train_cfg, seed=scenario_seeds(args.seed)["model"])
    model, _ = pretrain_on(source, config)
    decomposition = decompose_gap(model, source, spec.draw("target", args.seed))
    tolerance = np.format_float_scientific(HEAD_FIT_TOLERANCE, trim="-", exp_digits=1)
    stop = f"gradient norm < {tolerance} or {HEAD_FIT_MAX_ITERATIONS} iterations"
    report = {
        "scenario": spec.scenario_id,
        "seed": args.seed,
        "fit": {
            "method": "multinomial logistic regression, gradient descent",
            "stop": stop,
            "iterations": decomposition.fit_iterations,
            "grad_norm": decomposition.fit_grad_norm,
            "converged": decomposition.fit_converged,
        },
        **{
            k: getattr(decomposition, k)
            for k in ("delta_f", "delta_g", "acc_source", "sup_g_acc", "acc_target")
        },
    }
    _emit(args, report)
    return 0


def _cmd_theory(args) -> int:
    gamma = args.gamma
    best = optimal_gamma(args.d, args.h)
    if gamma is None:
        gamma = best
    point = TheoryPoint(mu_norm=args.mu_norm, d=args.d, h=args.h, gamma=gamma)
    report = {
        "point": {"mu_norm": args.mu_norm, "d": args.d, "h": args.h, "gamma": gamma},
        "accuracy": closed_form_accuracy(point),
        "optimal_gamma": best,
        "accuracy_at_optimal": closed_form_accuracy(
            TheoryPoint(mu_norm=args.mu_norm, d=args.d, h=args.h, gamma=best)
        ),
    }
    if args.delta_mu_norm is not None:
        shifted = attribute_shift_accuracy(point, args.cos_sim, args.delta_mu_norm)
        report["attribute_shift"] = {
            "accuracy": shifted.accuracy,
            "in_regime": shifted.in_regime,
            "cos_sim": args.cos_sim,
            "delta_mu_norm": args.delta_mu_norm,
        }
    if args.mc_trials:
        rng = np.random.default_rng(args.seed)
        direction = rng.standard_normal(args.mc_dim)
        mu = args.mu_norm * direction / np.linalg.norm(direction)
        report["monte_carlo"] = {
            "trials": args.mc_trials,
            "dim": args.mc_dim,
            "accuracy": monte_carlo_accuracy(point, mu, args.mc_trials, args.seed),
        }
    _emit(args, report)
    return 0


def _add_common(
    parser: argparse.ArgumentParser, *, seed: bool = True, config: bool = True
) -> None:
    # A subcommand declares only the flags it reads; any other is an error.
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument("--out", default=None, help="output path")
    if config:
        parser.add_argument(
            "--config", default=None, metavar="FILE", help="key=value config file"
        )


# A flag that sets a config field has that field's key as its dest and keeps
# its text: _settings merges it over the file and _convert converts both.
# A switch stores the text "true".
_SWITCH = {"action": "store_const", "const": "true"}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", dest="scenario.preset", choices=sorted(PRESETS))
    parser.add_argument("--attribute-shift", dest="scenario.attribute_shift", **_SWITCH)
    parser.add_argument("--n", dest="scenario.n", help=f"nodes (default {PRESET_N})")
    parser.add_argument(
        "--dim", dest="scenario.dim", help=f"features (default {PRESET_D})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adarc",
        description="Graph test-time adaptation laboratory.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a CSBM scenario to disk")
    _add_common(p)
    _add_scenario_flags(p)
    p.add_argument("--role", choices=("source", "target", "both"), default="both")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("pretrain", help="train a source model on a dataset directory")
    _add_common(p, seed=False)
    p.add_argument("--seed", dest="train.seed", help="model initialization seed")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("adapt", help="adapt a checkpoint to a target dataset")
    _add_common(p, seed=False)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="target dataset directory")
    p.add_argument("--trace", default=None, metavar="OUT.csv", help="trace CSV path")
    p.add_argument("--lr", dest="adapt.learning_rate", help="step size on gamma")
    p.add_argument("--epochs", dest="adapt.epochs")
    p.add_argument("--loss", dest="adapt.loss", choices=LOSS_KINDS)
    p.add_argument("--base-tta", dest="base.variant", choices=BASE_TTA_NAMES)
    p.add_argument("--ablation", dest="adapt.ablation", choices=ABLATION_NAMES)
    p.add_argument("--persist-base-tta", dest="adapt.persist_base_tta", **_SWITCH)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p, seed=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    # No abbreviations here: ``--seed`` would silently mean ``--seeds``.
    p = sub.add_parser("sweep", help="run a scenario over a config-key grid", allow_abbrev=False)
    _add_common(p, seed=False)
    _add_scenario_flags(p)
    p.add_argument(
        "--vary", action="append", required=True, metavar="KEY=V1,V2,...",
        help="a config key and its values; repeat for the product, in the order given",
    )
    p.add_argument(
        "--methods",
        default="erm,erm+adarc",
        help=f"comma list from {', '.join(METHOD_NAMES)}",
    )
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("decompose", help="empirical gap decomposition on a preset")
    _add_common(p)
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("theory", help="closed-form accuracy oracle")
    _add_common(p, config=False)
    p.add_argument("--d", type=float, required=True, help="average degree")
    p.add_argument("--h", type=float, required=True, help="homophily")
    p.add_argument("--gamma", type=float, default=None, help="default: optimal")
    p.add_argument("--mu-norm", type=float, default=1.0)
    p.add_argument("--delta-mu-norm", type=float, default=None)
    p.add_argument("--cos-sim", type=float, default=1.0)
    p.add_argument("--mc-trials", type=int, default=0)
    p.add_argument("--mc-dim", type=int, default=8)
    p.set_defaults(func=_cmd_theory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        TrainDivergedError,
        AdaptationDivergedError,
        DegenerateRepresentationError,
        FloatingPointError,
        OverflowError,
        ZeroDivisionError,
    ) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError, FormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
