"""Hash every output of one fixed ``adarc`` CLI script, run at one BLAS thread.

Usage::

    python tests/byte_identity.py WORKDIR [--size tiny|small] [--src DIR]
                                          [--against OTHER_SRC]

The script runs in one subprocess whose environment pins the BLAS thread
count to 1 before numpy loads. It generates a high2low scenario, pretrains
on its source, pretrains it again at ``HALVING_LR`` (``halving.cfg``, written
to ``model-halving.bin``), where some steps raise the objective and are
rejected, adapts the first checkpoint to its target for erm, tent and t3a,
each by default and with ``--ablation joint --persist-base-tta``, evaluates
the checkpoint, runs a two-seed sweep over ``adapt.loss`` × ``train.num_hops``
(the two losses of one hop count share a pretraining) and a gap decomposition
on the same scenario, and evaluates the closed-form theory with a Monte Carlo
check. Every adapt writes ``--out`` and ``--trace``. The script then prints one ``sha256  name`` line
per file under WORKDIR, sorted by name, so the outputs of two source trees
(``--src``, default this checkout's ``src``) compare with ``diff``. With
``--against OTHER_SRC`` it runs the script for ``--src`` into WORKDIR/tree and
for OTHER_SRC into WORKDIR/against, prints each file whose hash differs (or
that only one run wrote) and a count, and exits 1 if any file differs.

Hashes hold only for a fixed OpenBLAS build, CPU kernel and thread count
(see ``adarc.cli``), so none are committed: compare two runs on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

#: scenario flags, config-file lines and adapt epochs of each size.
SIZES = {
    "tiny": (
        ["--n", "200", "--dim", "16"],
        ["train.epochs=30", "train.hidden=8", "train.num_hops=3"],
        "6",
    ),
    "small": (
        ["--n", "600", "--dim", "32"],
        ["train.epochs=60", "train.hidden=16", "train.num_hops=4"],
        "20",
    ),
}
BASES = ("erm", "tent", "t3a")
ARMS = {"default": [], "joint": ["--ablation", "joint", "--persist-base-tta"]}
#: A pretraining rate at which both sizes reject some steps (the rate of
#: perfbench's ``pretrain_desk``), so the halving path reaches a checkpoint.
HALVING_LR = "2"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs each argv through ``cli.main`` in one process; stops at the first failure.
_CHILD = """
import json, sys
from adarc import cli
for argv in json.load(sys.stdin):
    code = cli.main(argv)
    if code:
        sys.exit(f"adarc {' '.join(argv)} exited with {code}")
"""


def commands(workdir: Path, size: str) -> list[list[str]]:
    """The script: every ``adarc`` argv, in order, writing under ``workdir``."""
    scenario, config_lines, adapt_epochs = SIZES[size]
    config, halving = workdir / "run.cfg", workdir / "halving.cfg"
    config.write_text("".join(f"{line}\n" for line in config_lines))
    halving_lines = [f"train.learning_rate={HALVING_LR}", *config_lines]
    halving.write_text("".join(f"{line}\n" for line in halving_lines))
    data, ckpt = workdir / "data", str(workdir / "model.bin")
    script = [
        ["generate", "--preset", "high2low", *scenario, "--out", str(data)],
        ["pretrain", "--data", str(data / "source"), "--config", str(config),
         "--out", ckpt],
        ["pretrain", "--data", str(data / "source"), "--config", str(halving),
         "--out", str(workdir / "model-halving.bin")],
    ]
    for base in BASES:
        for arm, flags in ARMS.items():
            out = workdir / f"adapt-{base}-{arm}"
            script.append(
                ["adapt", "--ckpt", ckpt, "--data", str(data / "target"),
                 "--base-tta", base, "--epochs", adapt_epochs, *flags,
                 "--out", f"{out}.json", "--trace", f"{out}.trace.csv"]
            )
    script += [
        ["eval", "--ckpt", ckpt, "--data", str(data / "target"),
         "--out", str(workdir / "eval.json")],
        ["sweep", "--preset", "high2low", *scenario, "--config", str(config),
         "--vary", "adapt.loss=pic,entropy", "--vary", "train.num_hops=2,3",
         "--methods", "erm,tent,t3a+adarc,tent+adarc", "--seeds", "0,1",
         "--out", str(workdir / "sweep.json")],
        ["decompose", "--preset", "high2low", *scenario, "--config", str(config),
         "--out", str(workdir / "decompose.json")],
        ["theory", "--d", "5", "--h", "0.8", "--delta-mu-norm", "0.5",
         "--mc-trials", "200", "--out", str(workdir / "theory.json")],
    ]
    return script


def run(workdir: Path, size: str = "tiny", src: Path = REPO_SRC) -> list[tuple[str, str]]:
    """Run the script into an empty ``workdir``; (sha256, name) of every file in it."""
    workdir.mkdir(parents=True, exist_ok=True)
    if any(workdir.iterdir()):
        raise ValueError(f"{workdir} is not empty")
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=json.dumps(commands(workdir, size)),
        env=env,
        text=True,
        capture_output=True,
    )
    if child.returncode:
        raise RuntimeError(f"the CLI script failed:\n{child.stdout}{child.stderr}")
    files = sorted(p for p in workdir.rglob("*") if p.is_file())
    return [
        (hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(workdir).as_posix())
        for p in files
    ]


def compare(workdir: Path, size: str, src: Path, against: Path) -> list[str]:
    """Run the script for ``src`` and ``against`` into ``workdir``/tree and
    ``workdir``/against; the sorted names whose bytes differ between the two."""
    tree = {name: digest for digest, name in run(workdir / "tree", size, src)}
    other = {name: digest for digest, name in run(workdir / "against", size, against)}
    return sorted(n for n in tree.keys() | other.keys() if tree.get(n) != other.get(n))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", type=Path, help="empty (or new) output directory")
    parser.add_argument("--size", choices=sorted(SIZES), default="tiny")
    parser.add_argument("--src", type=Path, default=REPO_SRC, help="source tree to run")
    parser.add_argument("--against", type=Path, help="source tree to compare --src with")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    try:
        if args.against is None:
            for digest, name in run(args.workdir, args.size, src):
                print(f"{digest}  {name}")
            return 0
        differing = compare(args.workdir, args.size, src, args.against.resolve())
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    for name in differing:
        print(name)
    compared = sum(1 for p in (args.workdir / "tree").rglob("*") if p.is_file())
    print(f"{compared} files, {len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
