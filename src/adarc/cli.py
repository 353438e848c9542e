"""Command-line interface.

Seven subcommands: ``generate``, ``pretrain``, ``adapt``, ``eval``,
``sweep``, ``decompose``, ``theory``. Shared flags: ``--seed``,
``--out``, ``--config FILE`` where FILE holds ``key=value`` lines (``#``
comments allowed). Recognized keys use prefixes ``scenario.``, ``train.``,
``adapt.``, ``base.`` over the corresponding config dataclasses; explicit
command-line flags take precedence over the file.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
All output files are byte-deterministic for a fixed seed; wall-clock
measurements are printed to stdout/stderr only, never into ``--out`` files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
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
    METHOD_NAMES,
    SWEEP_AXES,
    ScenarioSpec,
    build_scenario_datasets,
    decompose_gap,
    run_scenario,
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

_CONFIG_HELP = """\
config file keys (key=value per line, # comments):
  scenario.preset | attribute_shift | n | dim | source_h | source_d
  train.learning_rate | epochs | weight_decay | patience | seed | hidden |
        num_hops | gamma_alpha | prop_mode | gauge_normalize
  adapt.learning_rate | epochs | loss | ablation | persist_base_tta | affine_lr
  base.variant | steps | lr | keep_per_class
"""


def _parse_config_file(path: str) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _convert(example, text: str, key: str):
    if isinstance(example, bool):
        lowered = text.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {text!r}")
    if isinstance(example, int):
        return int(text)
    if isinstance(example, float) or example is None:
        return float(text)
    return text


def _apply_prefixed(instance, prefix: str, overrides: dict[str, str]):
    updates = {}
    for f in fields(instance):
        key = f"{prefix}.{f.name}"
        if key in overrides:
            current = getattr(instance, f.name)
            updates[f.name] = _convert(current, overrides[key], key)
    return replace(instance, **updates) if updates else instance


def _known_keys() -> set[str]:
    known = set()
    for prefix, cls in (
        ("scenario", ScenarioSpec),
        ("train", TrainConfig),
        ("adapt", AdaptConfig),
        ("base", BaseTtaKind),
    ):
        for f in fields(cls):
            known.add(f"{prefix}.{f.name}")
    return known


def _load_overrides(args) -> dict[str, str]:
    if not getattr(args, "config", None):
        return {}
    overrides = _parse_config_file(args.config)
    unknown = sorted(set(overrides) - _known_keys())
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return overrides


def _scenario_from(args, overrides: dict[str, str]) -> ScenarioSpec:
    preset = getattr(args, "preset", None) or overrides.get(
        "scenario.preset", "homo2hetero"
    )
    spec = ScenarioSpec(preset=preset)
    spec = _apply_prefixed(spec, "scenario", overrides)
    if getattr(args, "attribute_shift", False):
        spec = replace(spec, attribute_shift=True)
    if getattr(args, "n", None) is not None:
        spec = replace(spec, n=args.n)
    if getattr(args, "dim", None) is not None:
        spec = replace(spec, dim=args.dim)
    return spec


def _train_config_from(args, overrides: dict[str, str]) -> TrainConfig:
    config = _apply_prefixed(TrainConfig(), "train", overrides)
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def _adapt_config_from(args, overrides: dict[str, str]) -> AdaptConfig:
    base = _apply_prefixed(BaseTtaKind(), "base", overrides)
    if getattr(args, "base_tta", None) is not None:
        base = replace(base, variant=args.base_tta)
    config = _apply_prefixed(AdaptConfig(), "adapt", overrides)
    config = replace(config, base=base)
    if getattr(args, "lr", None) is not None:
        config = replace(config, learning_rate=args.lr)
    if getattr(args, "epochs", None) is not None:
        config = replace(config, epochs=args.epochs)
    if getattr(args, "loss", None) is not None:
        config = replace(config, loss=args.loss)
    if getattr(args, "ablation", None) is not None:
        config = replace(config, ablation=args.ablation)
    if getattr(args, "persist_base_tta", False):
        config = replace(config, persist_base_tta=True)
    return config


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
    overrides = _load_overrides(args)
    spec = _scenario_from(args, overrides)
    out_dir = _require_out(args, "generate")
    seed = args.seed if args.seed is not None else 0
    source, target = build_scenario_datasets(spec, seed)
    roles = ("source", "target") if args.role == "both" else (args.role,)
    for role in roles:
        dataset = source if role == "source" else target
        directory = out_dir / role if args.role == "both" else out_dir
        directory.mkdir(parents=True, exist_ok=True)
        write_dataset(dataset, directory)
        print(f"wrote {role} dataset to {directory}")
    return 0


def _cmd_pretrain(args) -> int:
    overrides = _load_overrides(args)
    config = _train_config_from(args, overrides)
    dataset = read_dataset(args.data)
    model, history = pretrain_on(dataset, config)
    out = _require_out(args, "pretrain")
    save_checkpoint(model, out)
    best_val = max(val for _, _, val in history)
    print(
        f"wrote {out} after {len(history)} epochs "
        f"(final objective {history[-1][1]:.6f}, best-restored val acc {best_val:.4f})"
    )
    return 0


def _cmd_adapt(args) -> int:
    overrides = _load_overrides(args)
    train_cfg = _apply_prefixed(TrainConfig(), "train", overrides)
    config = _adapt_config_from(args, overrides)
    dataset = read_dataset(args.data)
    model = load_checkpoint(args.ckpt)
    op = PropagationOperator(dataset.graph, train_cfg.prop_mode)

    before_cache = featurize_hops(model, dataset, op)
    before = base_predict(config.base, model, before_cache, dataset)

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
        "accuracy_before": prediction_accuracy(before, dataset.labels),
        "accuracy_after": prediction_accuracy(result.prediction, dataset.labels),
        "gamma_before": [float(v) for v in model.gamma],
        "gamma_after": [float(v) for v in result.model.gamma],
        "convergence": convergence_report(result.trace),
        "config": {
            "learning_rate": config.learning_rate,
            "epochs": config.epochs,
            "loss": config.loss,
            "ablation": config.ablation,
            "base_tta": config.base.variant,
            "prop_mode": train_cfg.prop_mode,
        },
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
    stages = " ".join(f"{k}={v:.3f}s" for k, v in result.stage_seconds.items())
    print(f"stage wall-clock: {stages}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    overrides = _load_overrides(args)
    train_cfg = _apply_prefixed(TrainConfig(), "train", overrides)
    dataset = read_dataset(args.data)
    model = load_checkpoint(args.ckpt)
    op = PropagationOperator(dataset.graph, train_cfg.prop_mode)
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


def _parse_grid(axis: str, text: str) -> list:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("grid must be nonempty")
    if axis == "shift_level":
        return [float(t) for t in items]
    if axis == "hops_K":
        return [int(t) for t in items]
    if axis == "loss_kind":
        return items
    if axis == "lr_epochs":
        pairs = []
        for t in items:
            if ":" not in t:
                raise ValueError(
                    f"lr_epochs grid entries use LR:EPOCHS, got {t!r}"
                )
            lr, epochs = t.split(":", 1)
            pairs.append((float(lr), int(epochs)))
        return pairs
    raise ValueError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def _cmd_sweep(args) -> int:
    overrides = _load_overrides(args)
    spec = _scenario_from(args, overrides)
    # Per-seed model seeds are derived inside run_scenario; --seed is unused here.
    train_cfg = _apply_prefixed(TrainConfig(), "train", overrides)
    adapt_cfg = _adapt_config_from(args, overrides)
    methods = tuple(t.strip() for t in args.methods.split(",") if t.strip())
    seeds = _parse_seeds(args.seeds)
    grid = _parse_grid(args.axis, args.grid)
    reports = sweep(args.axis, grid, spec, methods, seeds, train_cfg, adapt_cfg)
    out = _require_out(args, "sweep")
    write_json_report(out, {"axis": args.axis, "reports": [r.as_dict() for r in reports]})
    rows = []
    for report in reports:
        for method in report.methods:
            rows.append(
                [report.scenario, method, report.mean[method], report.sd[method]]
                + list(report.per_seed[method])
            )
    write_csv(
        out.with_suffix(".csv"),
        ["scenario", "method", "mean", "sd"] + [f"seed_{s}" for s in seeds],
        rows,
    )
    print(f"wrote {out} and {out.with_suffix('.csv')}")
    return 0


def _cmd_decompose(args) -> int:
    overrides = _load_overrides(args)
    spec = _scenario_from(args, overrides)
    train_cfg = _train_config_from(args, overrides)
    seed = args.seed if args.seed is not None else 0
    source, target = build_scenario_datasets(spec, seed)
    train_cfg = replace(train_cfg, seed=scenario_seeds(seed)["model"])
    model, _ = pretrain_on(source, train_cfg)
    decomposition = decompose_gap(model, source, target, train_cfg.prop_mode)
    report = {
        "scenario": spec.scenario_id,
        "seed": seed,
        "fit": {
            "method": "multinomial logistic regression, gradient descent",
            "stop": "gradient norm < 1e-6 or 5000 iterations",
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
        rng = np.random.default_rng(args.seed if args.seed is not None else 0)
        direction = rng.standard_normal(args.mc_dim)
        mu = args.mu_norm * direction / np.linalg.norm(direction)
        report["monte_carlo"] = {
            "trials": args.mc_trials,
            "dim": args.mc_dim,
            "accuracy": monte_carlo_accuracy(
                point, mu, args.mc_trials, args.seed if args.seed is not None else 0
            ),
        }
    _emit(args, report)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="base random seed")
    parser.add_argument("--out", default=None, help="output path")
    parser.add_argument(
        "--config", default=None, metavar="FILE", help="key=value config file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adarc",
        description="Graph test-time adaptation laboratory.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    presets = sorted(PRESETS)

    p = sub.add_parser("generate", help="write a CSBM scenario to disk")
    _add_common(p)
    p.add_argument("--preset", choices=presets, default=None)
    p.add_argument("--role", choices=("source", "target", "both"), default="both")
    p.add_argument("--attribute-shift", action="store_true")
    p.add_argument("--n", type=int, default=None, help=f"nodes (default {PRESET_N})")
    p.add_argument("--dim", type=int, default=None, help=f"features (default {PRESET_D})")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("pretrain", help="train a source model on a dataset directory")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("adapt", help="adapt a checkpoint to a target dataset")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="target dataset directory")
    p.add_argument("--trace", default=None, metavar="OUT.csv", help="trace CSV path")
    p.add_argument("--lr", type=float, default=None, help="step size on gamma")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--loss", choices=LOSS_KINDS, default=None)
    p.add_argument("--base-tta", choices=BASE_TTA_NAMES, default=None)
    p.add_argument("--ablation", choices=ABLATION_NAMES, default=None)
    p.add_argument("--persist-base-tta", action="store_true")
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="run a scenario grid along one axis")
    _add_common(p)
    p.add_argument("--preset", choices=presets, default=None)
    p.add_argument("--attribute-shift", action="store_true")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument(
        "--grid",
        required=True,
        help="comma list; lr_epochs entries use LR:EPOCHS",
    )
    p.add_argument(
        "--methods",
        default="erm,erm+adarc",
        help=f"comma list from {', '.join(METHOD_NAMES)}",
    )
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma list of seeds")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("decompose", help="empirical gap decomposition on a preset")
    _add_common(p)
    p.add_argument("--preset", choices=presets, default=None)
    p.add_argument("--attribute-shift", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("theory", help="closed-form accuracy oracle")
    _add_common(p)
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
