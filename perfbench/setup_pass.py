"""One set-up pass of one workload in a fresh interpreter, timed for ``setup_s``.

Each pass runs in a child process of its own, so its time holds what a
user's first run pays: the interpreter start, the imports, the inputs, and
the first, cold op. The parent times the child from spawn to exit. Run
directly, this file is the child; it leaves its inputs in ``--workdir`` for
the parent's ops:
``python3 perfbench/setup_pass.py --workload adapt_cli --seed 0 --workdir DIR --sizes JSON``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--sizes", required=True, help="workloads.Sizes as JSON")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    sizes = workloads.Sizes(**json.loads(args.sizes))
    workloads.make(args.workload, args.seed, sizes, args.workdir).setup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
