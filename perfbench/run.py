"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: the lab is imported from its
``src/`` directory, never from an installed copy. The metric names and
units printed must match ``BENCHMARK.json``; a mismatch is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def declared_metrics(spec: dict, trace: bool) -> dict[str, str]:
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "adarc" / "__init__.py").is_file():
        print(f"perfbench: no lab source at {ROOT / 'src' / 'adarc'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import env  # imports no numpy

    # One client: BLAS may use every core this process may run on, no more.
    # The variables must be set before numpy is first imported.
    threads = env.nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)

    from perfbench import bench

    # Any workload of workloads.NAMES runs; BENCHMARK.json lists the gated ones.
    workdir = WORKDIR / f"work-{os.getpid()}"
    record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    result = record["result"]
    if result["correct"]:
        got = {key: m["unit"] for key, m in result["metrics"].items()}
        want = declared_metrics(spec, bool(args.trace))
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
                  f"undeclared {extra}, wrong unit {wrong}", file=sys.stderr)
            return 1

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, environment=env.environment(ROOT, threads),
    )
    records = WORKDIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": record["environment"], "record": str(path)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
