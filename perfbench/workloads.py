"""The three workloads: what one op is, how inputs are set up, and how an op is checked.

Every input derives from the run's ``--seed``; an op only ever sees the
generated inputs. One op index maps to the same inputs in every phase of a
run, so the untraced and traced phases of a traced run time identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

from adarc import cli, csbm, harness, model, pretrain
from adarc import io as adarc_io
from adarc.adapt import AdaptConfig

#: Pretraining step size. The loop halves it whenever the objective rises,
#: so a large start reaches the ROADMAP's desk ERM accuracy (~0.70 on
#: homo2hetero) within a 10-epoch budget; at the 0.05 default it stays at chance.
PRETRAIN_LR = 2.0
#: Op indices at and above this value are reserved for set-up warm-up ops.
WARMUP_INDEX = 900
BASE_TTA_VARIANTS = ("erm", "tent", "t3a")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    desk_n: int
    desk_dim: int
    desk_epochs: int
    cli_n: int
    cli_dim: int
    cli_ckpt_epochs: int
    cli_targets: int
    large_n: int
    large_dim: int
    large_epochs: int
    scale_dim: int
    scale_n: tuple[tuple[str, int], ...]


FULL = Sizes(
    desk_n=csbm.PRESET_N,
    desk_dim=csbm.PRESET_D,
    desk_epochs=10,
    cli_n=csbm.PRESET_N,
    cli_dim=csbm.PRESET_D,
    cli_ckpt_epochs=10,
    cli_targets=3,
    large_n=20000,
    large_dim=128,
    large_epochs=1,
    scale_dim=64,
    scale_n=(("n5k", 5000), ("n20k", 20000), ("n80k", 80000)),
)

TINY = Sizes(
    desk_n=200,
    desk_dim=16,
    desk_epochs=2,
    cli_n=200,
    cli_dim=16,
    cli_ckpt_epochs=2,
    cli_targets=2,
    large_n=400,
    large_dim=16,
    large_epochs=2,
    scale_dim=16,
    scale_n=(("n5k", 200), ("n20k", 400), ("n80k", 800)),
)


class OpCheckError(RuntimeError):
    """An op returned, but its output failed the benchmark's check."""


def check_accuracy(label: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise OpCheckError(f"{label} = {value!r} is not a finite fraction")
    return value


def train_config(epochs: int, seed: int = 0) -> pretrain.TrainConfig:
    """A fixed epoch budget: patience ≥ epochs, so early stopping never fires."""
    return pretrain.TrainConfig(
        epochs=epochs, patience=epochs, learning_rate=PRETRAIN_LR, seed=seed
    )


class ScenarioWorkload:
    """One op = ``harness.run_scenario`` for one seed with ``erm`` and ``erm+adarc``."""

    cycle = 1

    def __init__(self, seed: int, spec: harness.ScenarioSpec, epochs: int):
        self.seed = seed
        self.spec = spec
        self.train = train_config(epochs)

    def setup(self) -> None:
        self.warm_up()

    def warm_up(self) -> None:
        self.check(self.op(WARMUP_INDEX))

    def op(self, index: int) -> harness.ExperimentReport:
        return harness.run_scenario(
            self.spec,
            methods=("erm", "erm+adarc"),
            seeds=(self.seed * 1000 + index,),
            train_config=self.train,
        )

    def check(self, report: harness.ExperimentReport) -> tuple[float, float]:
        return (
            check_accuracy("erm", report.mean["erm"]),
            check_accuracy("erm+adarc", report.mean["erm+adarc"]),
        )

    def close(self) -> None:
        pass


class AdaptCliWorkload:
    """One op = in-process ``adarc adapt`` of a saved checkpoint to a saved target.

    Set-up pretrains the checkpoint on a high2low source (degree 10) and
    writes ``cli_targets`` high2low targets (degree 2). Ops cycle the base
    TTA through erm, tent and t3a, and move to the next target every cycle.
    """

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.ckpt = workdir / "source.ckpt"
        self.targets = [workdir / f"target{k}" for k in range(sizes.cli_targets)]
        self.out = workdir / "adapt.json"
        self.epochs = AdaptConfig().epochs
        # Ops per full pass over every (variant, target) pair.
        self.cycle = len(BASE_TTA_VARIANTS) * len(self.targets)

    def _params(self, role: str, graph_seed: int) -> csbm.CsbmParams:
        return csbm.preset_params(
            "high2low", role, seed=graph_seed, n=self.sizes.cli_n, dim=self.sizes.cli_dim
        )

    def setup(self) -> None:
        """Write the checkpoint and the targets, then run one warm-up op."""
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        base = self.seed * 1000
        source = csbm.attach_split_masks(
            csbm.generate(self._params("source", base)), seed=base + 777
        )
        trained, _history = pretrain.pretrain_on(
            source, train_config(self.sizes.cli_ckpt_epochs, seed=base + 1)
        )
        model.save_checkpoint(trained, self.ckpt)
        for k, directory in enumerate(self.targets):
            adarc_io.write_dataset(
                csbm.generate(self._params("target", base + 1 + k)), directory
            )
        self.warm_up()

    def warm_up(self) -> None:
        """One op on the inputs that ``setup`` left in the workdir."""
        self.check(self.op(WARMUP_INDEX))

    def op(self, index: int) -> int:
        variant = BASE_TTA_VARIANTS[index % len(BASE_TTA_VARIANTS)]
        target = self.targets[(index // len(BASE_TTA_VARIANTS)) % len(self.targets)]
        self.out.unlink(missing_ok=True)
        argv = [
            "adapt", "--ckpt", str(self.ckpt), "--data", str(target),
            "--base-tta", variant, "--out", str(self.out),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def check(self, exit_code: int) -> tuple[float, float]:
        if exit_code != 0:
            raise OpCheckError(f"adarc adapt exited with {exit_code}")
        report = json.loads(self.out.read_text())
        epochs = report["convergence"]["epochs"]
        if epochs != self.epochs:
            raise OpCheckError(f"convergence.epochs {epochs} != {self.epochs}")
        return (
            check_accuracy("accuracy_before", report["accuracy_before"]),
            check_accuracy("accuracy_after", report["accuracy_after"]),
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


NAMES = ("pretrain_desk", "adapt_cli", "large_graph")


def make(name: str, seed: int, sizes: Sizes, workdir: Path):
    if name == "pretrain_desk":
        spec = harness.ScenarioSpec("homo2hetero", n=sizes.desk_n, dim=sizes.desk_dim)
        return ScenarioWorkload(seed, spec, sizes.desk_epochs)
    if name == "adapt_cli":
        return AdaptCliWorkload(seed, sizes, workdir)
    if name == "large_graph":
        spec = harness.ScenarioSpec("high2low", n=sizes.large_n, dim=sizes.large_dim)
        return ScenarioWorkload(seed, spec, sizes.large_epochs)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
