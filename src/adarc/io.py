"""On-disk formats: dataset directories and reports.

Dataset directory
-----------------
``edges.csv``     two integer columns, one undirected edge per line
``features.bin``  magic ``ADRC``, u32 version=1, u32 N, u32 D, then N·D
                  little-endian f32 values, row-major
``labels.csv``    one integer per line
``masks.csv``     optional; header ``train,val``, rows of 0/1

In memory, features are the C-ordered N×D f32 matrix whose bytes
``features.bin`` stores; nothing widens them. The writer writes them to a new
file that replaces ``features.bin``, so a dataset read from the old file keeps
its pages. The reader maps the payload read-only, checks its size, then checks
each row block finite by its min and max: a read dataset's features are a
read-only view of the file's pages that holds one dup'd file descriptor.
Rewriting ``features.bin`` in place under it kills the process.

Row blocks: every pass over a feature matrix (the writer, the reader's check,
``model``'s X·W1, ``csbm.generate``'s noise draw) walks ``_row_blocks``: even
blocks of at most 1 MiB of the rows it reads or fills (128 or 129 f32 rows at
N=5000, D=2000), releasing the mapped pages behind each. A read dataset so
holds about one row block of ``features.bin`` resident during a pass and at
most one page after it. ``backward_ce``'s Xᵀ·∂L/∂pre is one GEMM: pretraining
on a read dataset holds the whole payload from that product until the next
featurization.

All writers produce byte-identical files for identical inputs; readers
round-trip f32 payloads bit-exactly, and raise ``FormatError`` on truncated,
padded or non-finite data. The checkpoint format is ``model``'s.

Reports are ``json`` text with sorted keys and ``repr`` floats. A numpy scalar
or array is written as the Python value of its ``tolist`` (an f32 as the f64
it widens to), a tuple as a list; keys follow ``json``'s own rules.
"""

from __future__ import annotations

import csv
import json
import mmap
import os
import struct
import warnings
from pathlib import Path

import numpy as np

from .graph import Dataset, build_graph

__all__ = [
    "FormatError",
    "read_dataset",
    "write_dataset",
    "report_text",
    "write_json_report",
    "write_csv",
]

FEATURES_MAGIC = b"ADRC"
#: ``features.bin`` header: magic, version, N, D.
_FEATURES_HEADER = struct.Struct("<4sIII")
#: The most bytes of rows in one block of ``_row_blocks`` (1 MiB).
_BLOCK_BYTES = 1 << 20


class FormatError(ValueError):
    """A file does not conform to its declared on-disk format."""


class _Mapping(mmap.mmap):
    """The read-only shared mapping of a ``features.bin`` that ``_read_features`` made."""


def _row_blocks(array: np.ndarray, row_bytes: int | None = None):
    """Walk the rows of ``array`` in even blocks: yields slices of whole rows.

    Each block is at least one row and at most ``_BLOCK_BYTES`` of rows of
    ``row_bytes`` each (by default the array's own, ``itemsize`` × columns);
    the blocks of one walk differ by at most one row. When the caller is done
    with a block, the walk releases the whole mapped pages below it if
    ``array`` is a matrix that ``_read_features`` returned. Those pages map the
    file read-only and shared, so a later read faults the same bytes back in
    and no result changes. Any other array is left alone (a copy-on-write
    ``np.memmap`` would lose its writes), and so is every array where ``mmap``
    has no ``madvise``.
    """
    n = len(array)
    if row_bytes is None:
        row_bytes = array.itemsize * array.shape[1]
    blocks = -(-n // max(1, _BLOCK_BYTES // max(row_bytes, 1)))
    payload = array.base
    mapped = isinstance(payload, _Mapping) and hasattr(payload, "madvise")
    for i in range(blocks):
        rows = slice(n * i // blocks, n * (i + 1) // blocks)
        yield rows
        if mapped:
            end = _FEATURES_HEADER.size + rows.stop * array.strides[0]
            payload.madvise(mmap.MADV_DONTNEED, 0, end - end % mmap.PAGESIZE)


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    edges = dataset.graph.edge_list().tolist()
    (directory / "edges.csv").write_text("".join(f"{u},{v}\n" for u, v in edges))

    features = dataset.features
    n, d = features.shape
    partial = directory / "features.bin.partial"
    with open(partial, "wb") as f:
        f.write(_FEATURES_HEADER.pack(FEATURES_MAGIC, 1, n, d))
        for rows in _row_blocks(features):
            f.write(np.ascontiguousarray(features[rows], dtype="<f4"))
    os.replace(partial, directory / "features.bin")

    labels = dataset.labels.tolist()
    (directory / "labels.csv").write_text("".join(f"{int(y)}\n" for y in labels))

    if dataset.masks:
        train = dataset.masks.get("train", np.zeros(n, dtype=bool))
        val = dataset.masks.get("val", np.zeros(n, dtype=bool))
        lines = [
            f"{int(t)},{int(v)}\n" for t, v in zip(train.tolist(), val.tolist())
        ]
        (directory / "masks.csv").write_text("train,val\n" + "".join(lines))


def _read_ints(path: Path, columns: int, **loadtxt_args) -> np.ndarray:
    """The int64 table of an integer CSV with ``columns`` columns.

    A value numpy cannot parse, or a line with another column count, is a
    ``FormatError``. A file with no lines reads as no rows, without a warning.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.int64, ndmin=2, **loadtxt_args)
    except ValueError as exc:
        raise FormatError(f"{path.name}: {exc}") from exc
    if table.shape[1] != columns:
        raise FormatError(
            f"{path.name}: {table.shape[1]} columns per line, the format has {columns}"
        )
    return table


def _read_features(path: Path) -> np.ndarray:
    """The N×D f32 matrix of a ``features.bin``: a read-only view of its mapped payload."""
    with open(path, "rb") as f:
        header = f.read(_FEATURES_HEADER.size)
        if header[:4] != FEATURES_MAGIC:
            raise FormatError(f"features.bin: bad magic {header[:4]!r}")
        if len(header) < _FEATURES_HEADER.size:
            raise FormatError(f"features.bin: truncated header ({len(header)} bytes)")
        _, version, n, d = _FEATURES_HEADER.unpack(header)
        if version != 1:
            raise FormatError(f"features.bin: unsupported version {version}")
        payload = _Mapping(f.fileno(), 0, access=mmap.ACCESS_READ)
    expected = _FEATURES_HEADER.size + 4 * n * d
    if len(payload) != expected:
        raise FormatError(f"features.bin: expected {expected} bytes, found {len(payload)}")
    features = np.ndarray((n, d), "<f4", payload, offset=_FEATURES_HEADER.size)
    # NaN propagates through min and max, and ±inf shows in one of them.
    for rows in _row_blocks(features):
        block = features[rows]
        if block.size and not (np.isfinite(block.min()) and np.isfinite(block.max())):
            raise FormatError("features.bin: non-finite feature value")
    return features


def read_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    features = _read_features(directory / "features.bin")
    n = features.shape[0]

    labels = _read_ints(directory / "labels.csv", 1)[:, 0]
    if labels.shape[0] != n:
        raise FormatError("labels.csv row count does not match features.bin")
    if labels.size and labels.min() < 0:
        raise FormatError("labels.csv: negative label")

    edges_path = directory / "edges.csv"
    text = edges_path.read_text().strip()
    if text:
        edges = _read_ints(edges_path, 2, delimiter=",")
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    graph = build_graph(edges, n)

    masks: dict[str, np.ndarray] = {}
    masks_path = directory / "masks.csv"
    if masks_path.exists():
        with masks_path.open() as f:
            header = f.readline().rstrip("\r\n")
        if header != "train,val":
            raise FormatError(
                f"masks.csv: expected header 'train,val', found {header!r}"
            )
        table = _read_ints(masks_path, 2, delimiter=",", skiprows=1)
        if table.shape != (n, 2):
            raise FormatError("masks.csv shape does not match node count")
        if not np.isin(table, (0, 1)).all():
            raise FormatError("masks.csv: mask values must be 0 or 1")
        masks = {"train": table[:, 0].astype(bool), "val": table[:, 1].astype(bool)}

    num_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(graph, features, labels, num_classes, masks)


def _plain(obj):
    """``json``'s hook for numpy values: the Python values of ``tolist``."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def report_text(report: dict) -> str:
    """Deterministic JSON serialization (sorted keys, repr floats)."""
    return json.dumps(report, indent=2, sort_keys=True, default=_plain) + "\n"


def write_json_report(path: str | Path, report: dict) -> None:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    Path(path).write_text(report_text(report))


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a small CSV with deterministic ``repr``-style floats; a field with a comma is quoted."""

    def fmt(value) -> str:
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([fmt(v) for v in row] for row in rows)
