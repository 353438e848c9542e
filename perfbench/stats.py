"""Order statistics, the sample-count rule and the metric-name check."""

from __future__ import annotations

import math
import re
import statistics

#: A percentile counts as resolved only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th percentile."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def samples_needed(q: float) -> int:
    """Fewest samples for which MIN_TAIL_SAMPLES lie beyond the ``q``-th percentile."""
    n = 1
    while samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        n += 1
    return n


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or workload name, else raise."""
    if not isinstance(name, str) or _NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name

