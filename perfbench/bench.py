"""One benchmark run of one workload: set-up, a closed loop of ops, metrics.

With ``trace=False`` the run reports the end-to-end metrics. With
``trace=True`` it sets up once, runs every op index untraced and then
traced, then runs the scale curve, and reports the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import scale, stats, tracing, workloads

#: Set-up passes per untraced run, each in a fresh child process; setup_s is their median.
SETUP_PASSES = 3
SETUP_PASS = Path(__file__).resolve().with_name("setup_pass.py")
SETUP_TIMEOUT_S = 120
#: op_ms.p90 is resolved only from this many ops on (ten lie beyond it).
P90_MIN_OPS = stats.samples_needed(90)


@dataclass
class OpSample:
    ms: float
    ok: bool
    acc_base: float = float("nan")
    acc_adarc: float = float("nan")


def unit_for(name: str) -> str:
    """Unit of a metric, read off its name."""
    if name == "setup_s":
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith(("_ms", ".ms", ".p50", ".p90")):
        return "ms"
    if name.endswith(("_mb", ".mb_computed")):
        return "MB"
    return "fraction"  # shares, accuracies and trace.overhead


def _time_op(workload, index: int, tracer: tracing.Tracer | None = None) -> OpSample:
    """Run op ``index`` and check its output; with a tracer, inside an ``op`` span.

    An op that raises, or whose output fails the workload's check, gives a
    failed sample; its traceback goes to stderr.
    """
    span = tracer.span(tracing.OP) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = workload.op(index)
        ms = (time.perf_counter() - t0) * 1e3
        acc_base, acc_adarc = workload.check(result)
    except Exception:  # noqa: BLE001 - the loop must count the failure and go on
        traceback.print_exc(file=sys.stderr)
        return OpSample((time.perf_counter() - t0) * 1e3, False)
    return OpSample(ms, True, acc_base, acc_adarc)


def run_ops(
    workload, seconds: float, tracer: tracing.Tracer | None = None
) -> tuple[list[OpSample], list[OpSample]]:
    """Closed loop, one client: start op i+1 when op i ends, until ``seconds`` pass.

    The loop then finishes the workload's current cycle of inputs, so every
    run times the same mix of ops and the median does not shift with it.
    With a tracer, each op index runs twice in a row, untraced and then
    traced, so both sides see the same inputs at nearly the same time.
    Returns the untraced samples and the traced ones.
    """
    plain: list[OpSample] = []
    traced: list[OpSample] = []
    start = time.perf_counter()
    index = 0
    while not plain or time.perf_counter() - start < seconds or index % workload.cycle:
        plain.append(_time_op(workload, index))
        if tracer is not None:
            with tracing.instrument(tracer):
                traced.append(_time_op(workload, index, tracer))
        index += 1
    return plain, traced


def time_setup_passes(
    name: str, seed: int, sizes: workloads.Sizes, workdir: Path
) -> list[float]:
    """Wall seconds of each set-up pass, from the child's spawn to its exit.

    Every pass rebuilds the inputs in ``workdir``; the last pass leaves them
    there for this process's ops.
    """
    command = [
        sys.executable, str(SETUP_PASS), "--workload", name, "--seed", str(seed),
        "--workdir", str(workdir), "--sizes", json.dumps(dataclasses.asdict(sizes)),
    ]
    seconds = []
    for _ in range(SETUP_PASSES):
        t0 = time.perf_counter()
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        seconds.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up pass of {name} failed:\n{done.stderr}")
    return seconds


def _op_ms(samples: list[OpSample]) -> list[float]:
    return [s.ms for s in samples if s.ok]


def peak_rss_mb() -> float:
    """This process's peak resident set, in MiB.

    ``VmHWM`` rather than ``ru_maxrss``: Linux carries ``ru_maxrss`` over
    ``execve``, so a fresh interpreter would inherit its launcher's peak.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(setup_seconds: list[float], samples: list[OpSample]) -> dict[str, float]:
    ok = [s for s in samples if s.ok]
    times = _op_ms(samples)
    return {
        "setup_s": stats.median(setup_seconds),
        "op_ms.p50": stats.median(times),
        "op_ms.p90": stats.percentile(times, 90),
        "peak_rss_mb": peak_rss_mb(),
        "acc.base": sum(s.acc_base for s in ok) / len(ok),
        "acc.adarc": sum(s.acc_adarc for s in ok) / len(ok),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    sizes: workloads.Sizes = workloads.FULL,
) -> dict:
    """Run one workload; returns the record (result line plus detail)."""
    workload = workloads.make(name, seed, sizes, workdir)
    detail: dict = {}
    try:
        if not trace:
            setup_seconds = time_setup_passes(name, seed, sizes, workdir)
            workload.warm_up()
            samples, _ = run_ops(workload, seconds)
            attempted = samples
            detail["setup_s"] = setup_seconds
            detail["op_ms"] = [s.ms for s in samples]
            detail["op_ms.p90_resolved"] = len(_op_ms(samples)) >= P90_MIN_OPS
            metrics = end_to_end(setup_seconds, samples) if _op_ms(samples) else {}
        else:
            workload.setup()
            tracer = tracing.Tracer()
            plain, traced = run_ops(workload, seconds / 2, tracer)
            attempted = plain + traced
            detail["op_ms.untraced"] = [s.ms for s in plain]
            detail["op_ms.traced"] = [s.ms for s in traced]
            metrics = {}
            if _op_ms(plain) and _op_ms(traced):
                metrics = tracing.layer_metrics(tracer)
                metrics["trace.overhead"] = (
                    stats.median(_op_ms(traced)) / stats.median(_op_ms(plain)) - 1.0
                )
                metrics.update(scale.scale_curve(sizes, seed))
    finally:
        workload.close()

    failed = sum(not s.ok for s in attempted)
    detail["error_rate"] = failed / len(attempted)
    result = {
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {
            stats.check_name(key): {"value": float(value), "unit": unit_for(key)}
            for key, value in metrics.items()
        },
    }
    return {"result": result, "detail": detail}
