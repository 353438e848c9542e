"""In-memory spans around the lab's public functions, and their per-layer sums.

Spans are recorded from the benchmark's side: ``instrument`` replaces each
listed function, in every module that imported it, by a wrapper that opens a
span around the call. Nothing inside ``src/adarc`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

from .stats import median

#: Span names of the wrapped layer functions, in report order.
LAYERS = (
    "graph.apply",
    "graph.apply_t",
    "model.featurize_hops",
    "model.backward_ce",
    "model.load_checkpoint",
    "pretrain.train_source",
    "tta.base_predict",
    "losses.surrogate",
    "adapt.adapt",
    "io.read_dataset",
    "csbm.generate",
)

#: (span name, defining module, function, modules that import it by name).
#: Every copy must be replaced, or calls made through it go untraced.
PATCHES = (
    ("model.featurize_hops", "model", "featurize_hops",
     ("pretrain", "adapt", "harness", "cli")),
    ("model.backward_ce", "model", "backward_ce", ("pretrain",)),
    ("model.load_checkpoint", "model", "load_checkpoint", ("cli",)),
    ("pretrain.train_source", "pretrain", "train_source", ()),
    ("tta.base_predict", "tta", "base_predict", ("adapt", "harness", "cli")),
    ("losses.surrogate", "losses", "surrogate_loss_and_grad_gamma", ("adapt",)),
    ("adapt.adapt", "adapt", "adapt", ("harness", "cli")),
    ("io.read_dataset", "io", "read_dataset", ("cli",)),
    ("csbm.generate", "csbm", "generate", ("harness",)),
)

OP = "op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    child_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time its direct children cover."""
        return self.seconds - self.child_seconds


class Tracer:
    """Nested spans of one thread, kept in memory until summarized."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **meta):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent, meta=meta))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            record = self.spans[index]
            record.end = self.clock()
            self._open.pop()
            if parent >= 0:
                self.spans[parent].child_seconds += record.seconds

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent


def hop_stack_mb(n: int, hidden: int, num_hops: int) -> float:
    """Size of the (K+1) x N x (H+1) float64 stack that featurize_hops builds."""
    return (num_hops + 1) * n * (hidden + 1) * 8 / 1e6


def _wrap(tracer: Tracer, name: str, fn):
    if name == "tta.base_predict":

        @functools.wraps(fn)
        def wrapper(kind, *args, **kwargs):
            with tracer.span(name, variant=kind.variant):
                return fn(kind, *args, **kwargs)

    elif name == "model.featurize_hops":

        @functools.wraps(fn)
        def wrapper(model, dataset, *args, **kwargs):
            stack_mb = hop_stack_mb(
                dataset.num_nodes, model.W1.shape[1], len(model.gamma) - 1
            )
            with tracer.span(name, hop_stack_mb=stack_mb):
                return fn(model, dataset, *args, **kwargs)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

    return wrapper


def apply_bytes(nnz: int, rows: int, cols: int) -> int:
    """Bytes a CSR Ã·H must move: indptr, indices, one gathered row per nonzero, output."""
    return 8 * (rows + 1) + 8 * nnz + 8 * nnz * cols + 8 * rows * cols


def _wrap_apply(tracer: Tracer, fn):
    @functools.wraps(fn)
    def apply(self, dense, *args, **kwargs):
        transpose = kwargs.get("transpose", args[0] if args else False)
        cols = dense.shape[1] if getattr(dense, "ndim", 1) == 2 else 1
        moved = apply_bytes(int(self.graph.row_offsets[-1]), dense.shape[0], cols)
        name = "graph.apply_t" if transpose else "graph.apply"
        with tracer.span(name, bytes=moved):
            return fn(self, dense, *args, **kwargs)

    return apply


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer function listed in PATCHES for the duration of the block.

    Raises LookupError when a listed function, or one of its by-name copies,
    is missing or is no longer the original, so that a layer cannot silently
    drop out of the traced run and report 0.
    """
    restore: list[tuple[object, str, object]] = []
    try:
        for name, home, attr, importers in PATCHES:
            original = getattr(importlib.import_module(f"adarc.{home}"), attr, None)
            if original is None:
                raise LookupError(f"adarc.{home}.{attr} not found; {name} cannot be traced")
            wrapper = _wrap(tracer, name, original)
            for module_name in (home, *importers):
                module = importlib.import_module(f"adarc.{module_name}")
                if getattr(module, attr, None) is not original:
                    raise LookupError(
                        f"adarc.{module_name}.{attr} is not adarc.{home}.{attr}; "
                        f"calls through it would go untraced"
                    )
                restore.append((module, attr, original))
                setattr(module, attr, wrapper)
        graph = importlib.import_module("adarc.graph")
        operator = graph.PropagationOperator
        restore.append((operator, "apply", operator.apply))
        operator.apply = _wrap_apply(tracer, operator.apply)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op calls, self time and share of each layer, from spans under ``op`` roots.

    Keys are ``<layer>.calls``, ``<layer>.self_ms`` and ``<layer>.share``
    for each name in LAYERS, plus the derived figures described in the
    README. Requires at least one ``op`` span.
    """
    spans = tracer.spans
    ops = [s for s in spans if s.name == OP]
    if not ops:
        raise ValueError("no op spans recorded")
    n_ops = len(ops)
    op_seconds = sum(s.seconds for s in ops)

    calls = {name: 0 for name in LAYERS}
    self_seconds = {name: 0.0 for name in LAYERS}
    tta_ms: dict[str, list[float]] = {"erm": [], "tent": [], "t3a": []}
    epoch_parts = {"pretrain.train_source": [0.0, 0], "adapt.adapt": [0.0, 0]}
    moved_bytes = 0
    hop_stack_mb = 0.0
    for index, span in enumerate(spans):
        if span.name == OP or span.name not in calls:
            continue
        if not any(a.name == OP for a in tracer.ancestors(index)):
            continue
        calls[span.name] += 1
        self_seconds[span.name] += span.self_seconds
        if span.name in epoch_parts:
            epoch_parts[span.name][0] += span.seconds
        elif span.name == "tta.base_predict":
            tta_ms.setdefault(span.meta["variant"], []).append(span.seconds * 1e3)
        elif span.name in ("graph.apply", "graph.apply_t"):
            moved_bytes += span.meta["bytes"]
        elif span.name == "model.featurize_hops":
            hop_stack_mb = max(hop_stack_mb, span.meta["hop_stack_mb"])
        # One backward_ce per pretrain epoch, one surrogate per adapt epoch.
        owner = {"model.backward_ce": "pretrain.train_source",
                 "losses.surrogate": "adapt.adapt"}.get(span.name)
        if owner and any(a.name == owner for a in tracer.ancestors(index)):
            epoch_parts[owner][1] += 1

    out: dict[str, float] = {}
    for name in LAYERS:
        per_op_ms = self_seconds[name] * 1e3 / n_ops
        out[f"{name}.calls"] = calls[name] / n_ops
        out[f"{name}.self_ms"] = per_op_ms
        out[f"{name}.share"] = self_seconds[name] / op_seconds
    for variant, values in tta_ms.items():
        out[f"tta.{variant}.ms"] = median(values) if values else 0.0
    for owner, key in (("pretrain.train_source", "pretrain.epoch_ms"),
                       ("adapt.adapt", "adapt.epoch_ms")):
        total, epochs = epoch_parts[owner]
        out[key] = total * 1e3 / epochs if epochs else 0.0
    out["graph.apply.mb_computed"] = moved_bytes / 1e6 / n_ops
    out["model.hop_cache_mb"] = hop_stack_mb
    out["untraced.share"] = sum(s.self_seconds for s in ops) / op_seconds
    return out

