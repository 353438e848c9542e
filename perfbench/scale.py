"""Scale curve: ``graph.apply`` and ``model.featurize_hops`` at growing N.

Each size runs in a child process of its own, so ``rss_mb`` is the peak
resident set of that size alone. Run directly, this file is the child:
``python3 perfbench/scale.py --n 5000 --dim 64 --seed 0`` prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 150
#: Timed calls per figure, after one untimed warm-up call; the figure is their median.
REPEATS = 3


def probe(n: int, dim: int, seed: int) -> dict[str, float]:
    import statistics
    import time

    import numpy as np

    from adarc import csbm, graph, model, pretrain
    from perfbench.bench import peak_rss_mb
    from perfbench.tracing import hop_stack_mb

    # The high2low source: degree 10, homophily 0.8.
    dataset = csbm.generate(csbm.preset_params("high2low", "source", seed=seed, n=n, dim=dim))
    config = pretrain.TrainConfig()
    gpr = model.init_model(
        dim, config.hidden, dataset.num_classes, config.num_hops, seed=seed
    )
    operator = graph.PropagationOperator(dataset.graph, config.prop_mode)
    dense = np.random.default_rng(seed).standard_normal((n, config.hidden + 1))

    def median_ms(call) -> float:
        call()  # warm-up: first-touch page faults and lazy set-up stay untimed
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            call()
            times.append((time.perf_counter() - t0) * 1e3)
        return statistics.median(times)

    apply_ms = median_ms(lambda: operator.apply(dense))
    featurize_ms = median_ms(lambda: model.featurize_hops(gpr, dataset, operator))
    return {
        "apply_ms": apply_ms,
        "featurize_ms": featurize_ms,
        "rss_mb": peak_rss_mb(),
        "hop_stack_mb": hop_stack_mb(n, config.hidden, config.num_hops),
    }


def scale_curve(sizes, seed: int) -> dict[str, float]:
    """``scale.<label>.<figure>`` for each (label, N) of ``sizes.scale_n``."""
    out: dict[str, float] = {}
    for label, n in sizes.scale_n:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--n", str(n), "--dim", str(sizes.scale_dim), "--seed", str(seed),
        ]
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if done.returncode != 0:
            raise RuntimeError(f"scale probe at N={n} failed:\n{done.stderr}")
        figures = json.loads(done.stdout.strip().splitlines()[-1])
        out.update({f"scale.{label}.{key}": value for key, value in figures.items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--dim", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    print(json.dumps(probe(args.n, args.dim, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
