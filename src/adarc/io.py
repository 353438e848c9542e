"""On-disk formats: dataset directories, model checkpoints, reports.

Dataset directory
-----------------
``edges.csv``     two integer columns, one undirected edge per line
``features.bin``  magic ``ADRC``, u32 version=1, u32 N, u32 D, then N·D
                  little-endian f32 values, row-major
``labels.csv``    one integer per line
``masks.csv``     optional; header ``train,val``, rows of 0/1

``features.bin`` is streamed in both directions through one block of whole
rows, about ``_BLOCK_BYTES`` of f32: the writer casts each row block into it
and writes it, the reader reads each block into it, checks it is finite and
widens it into its rows of the N×D f64 matrix, which is allocated once. The
reader's peak memory is therefore that matrix plus one block; no copy of the
whole payload is ever held.

Checkpoint (version 2)
----------------------
``ADRCM`` magic, u32 version=2, u32 dims (D, H, C, K), the 4-byte mode
word (the model's ``prop_mode`` in ASCII, ``row`` or ``sym``, then one NUL
byte), then the parameter arrays as little-endian f32 in declared field
order (see ``model``). ``running_mean``/``running_var`` are the source
feature statistics at the restored (best-validation) parameters. Version 1
files, which had no mode word, are rejected: the Ã normalization their γ
was trained under is not recorded.

All writers produce byte-identical files for identical inputs; readers
round-trip f32 payloads bit-exactly, and raise ``FormatError`` on truncated,
padded or non-finite data. Checkpoints hold f32, so ``adapt`` from a loaded
checkpoint matches in-memory ``adapt`` in accuracy and within 1e-5 in
probabilities (tested; at most 1e-6 seen at the preset scale).
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .graph import PROP_MODES, Dataset, build_graph

__all__ = [
    "FEATURES_MAGIC",
    "CHECKPOINT_MAGIC",
    "FormatError",
    "read_dataset",
    "write_dataset",
    "read_checkpoint_arrays",
    "write_checkpoint_arrays",
    "report_text",
    "write_json_report",
    "write_csv",
]

FEATURES_MAGIC = b"ADRC"
CHECKPOINT_MAGIC = b"ADRCM"
#: ``features.bin`` header: magic, version, N, D.
_FEATURES_HEADER = struct.Struct("<4sIII")
#: Size of the one buffer ``features.bin`` is streamed through (1 MiB of f32).
_BLOCK_BYTES = 1 << 20
_CHECKPOINT_VERSION = 2
#: Checkpoint header: magic, version, dims (D, H, C, K) and the mode word.
_CHECKPOINT_HEADER = struct.Struct("<5sIIIII4s")


class FormatError(ValueError):
    """A file does not conform to its declared on-disk format."""


def _row_blocks(n: int, d: int):
    """(first row, f32 block) for each run of rows of an N×D ``features.bin``.

    Every block is a view of one buffer of about ``_BLOCK_BYTES``, at least
    one row; the last may be shorter.
    """
    rows = max(1, _BLOCK_BYTES // (4 * max(d, 1)))
    block = np.empty((min(rows, n), d), dtype="<f4")
    for start in range(0, n, rows):
        yield start, block[: min(rows, n - start)]


def write_dataset(dataset: Dataset, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    edges = dataset.graph.edge_list().tolist()
    (directory / "edges.csv").write_text("".join(f"{u},{v}\n" for u, v in edges))

    features = dataset.features
    n, d = features.shape
    with open(directory / "features.bin", "wb") as f:
        f.write(_FEATURES_HEADER.pack(FEATURES_MAGIC, 1, n, d))
        for start, part in _row_blocks(n, d):
            part[:] = features[start : start + len(part)]
            f.write(part)

    labels = dataset.labels.tolist()
    (directory / "labels.csv").write_text("".join(f"{int(y)}\n" for y in labels))

    if dataset.masks:
        train = dataset.masks.get("train", np.zeros(n, dtype=bool))
        val = dataset.masks.get("val", np.zeros(n, dtype=bool))
        lines = [
            f"{int(t)},{int(v)}\n" for t, v in zip(train.tolist(), val.tolist())
        ]
        (directory / "masks.csv").write_text("train,val\n" + "".join(lines))


def _read_ints(path: Path, **loadtxt_args) -> np.ndarray:
    """An integer CSV as int64; a value numpy cannot parse is a ``FormatError``."""
    try:
        return np.loadtxt(path, dtype=np.int64, **loadtxt_args)
    except ValueError as exc:
        raise FormatError(f"{path.name}: {exc}") from exc


def _read_features(path: Path) -> np.ndarray:
    """The N×D f64 matrix of a ``features.bin``, streamed block by block."""
    with open(path, "rb") as f:
        header = f.read(_FEATURES_HEADER.size)
        if header[:4] != FEATURES_MAGIC:
            raise FormatError(f"features.bin: bad magic {header[:4]!r}")
        if len(header) < _FEATURES_HEADER.size:
            raise FormatError(f"features.bin: truncated header ({len(header)} bytes)")
        _, version, n, d = _FEATURES_HEADER.unpack(header)
        if version != 1:
            raise FormatError(f"features.bin: unsupported version {version}")
        expected = _FEATURES_HEADER.size + 4 * n * d
        found = os.fstat(f.fileno()).st_size
        if found != expected:
            raise FormatError(f"features.bin: expected {expected} bytes, found {found}")

        features = np.empty((n, d))
        for start, part in _row_blocks(n, d):
            if f.readinto(part) != part.nbytes:
                raise FormatError("features.bin: payload ends early")
            if not np.isfinite(part).all():
                raise FormatError("features.bin: non-finite feature value")
            features[start : start + len(part)] = part
        if f.read(1):
            raise FormatError("features.bin: bytes after the last row")
    return features


def read_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    features = _read_features(directory / "features.bin")
    n = features.shape[0]

    labels = _read_ints(directory / "labels.csv", ndmin=1)
    if labels.shape[0] != n:
        raise FormatError("labels.csv row count does not match features.bin")
    if labels.size and labels.min() < 0:
        raise FormatError("labels.csv: negative label")

    edges_path = directory / "edges.csv"
    text = edges_path.read_text().strip()
    if text:
        edges = _read_ints(edges_path, delimiter=",", ndmin=2)
        if edges.shape[1] != 2:
            raise FormatError(
                f"edges.csv: expected 2 columns per line, found {edges.shape[1]}"
            )
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    graph = build_graph(edges, n)

    masks: dict[str, np.ndarray] = {}
    masks_path = directory / "masks.csv"
    if masks_path.exists():
        table = _read_ints(masks_path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (n, 2):
            raise FormatError("masks.csv shape does not match node count")
        if not np.isin(table, (0, 1)).all():
            raise FormatError("masks.csv: mask values must be 0 or 1")
        masks = {"train": table[:, 0].astype(bool), "val": table[:, 1].astype(bool)}

    num_classes = int(labels.max()) + 1 if labels.size else 0
    return Dataset(graph, features, labels, num_classes, masks)


def write_checkpoint_arrays(path: str | Path, model) -> None:
    """Write a ``GprModel`` as an ``ADRCM`` checkpoint: header, then f32 arrays."""
    mode = model.prop_mode.encode("ascii")
    blob = _CHECKPOINT_HEADER.pack(
        CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, *model.dims, mode
    )
    for arr in model.arrays():
        blob += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    Path(path).write_bytes(blob)


def read_checkpoint_arrays(
    path: str | Path, shapes: callable
) -> tuple[str, list[np.ndarray]]:
    """Read an ``ADRCM`` checkpoint as (prop_mode, arrays).

    ``shapes`` maps dims (D,H,C,K) to the list of expected array shapes in
    declared field order.
    """
    raw = Path(path).read_bytes()
    if raw[:5] != CHECKPOINT_MAGIC:
        raise FormatError(f"checkpoint: bad magic {raw[:5]!r} in {path}")
    if len(raw) < _CHECKPOINT_HEADER.size:
        raise FormatError(f"checkpoint: truncated header in {path}")
    _, version, *dims, mode = _CHECKPOINT_HEADER.unpack_from(raw)
    if version != _CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint: unsupported version {version} in {path}")
    prop_mode = mode.rstrip(b"\0").decode("ascii", "replace")
    if prop_mode not in PROP_MODES:
        raise FormatError(f"checkpoint: unknown prop_mode {prop_mode!r} in {path}")
    expected = _CHECKPOINT_HEADER.size + 4 * sum(math.prod(s) for s in shapes(dims))
    if len(raw) != expected:
        raise FormatError(
            f"checkpoint: expected {expected} bytes, found {len(raw)} in {path}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_CHECKPOINT_HEADER.size)
    if not np.isfinite(values).all():
        raise FormatError(f"checkpoint: non-finite parameter in {path}")
    arrays, offset = [], 0
    for shape in shapes(dims):
        count = math.prod(shape)
        arrays.append(values[offset : offset + count].reshape(shape).copy())
        offset += count
    return prop_mode, arrays


def _canonical(obj):
    """Make a report JSON-serializable with deterministic float text."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    # bool before int: ``bool`` is a subclass of ``int``.
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def report_text(report: dict) -> str:
    """Deterministic JSON serialization (sorted keys, repr floats)."""
    return json.dumps(_canonical(report), indent=2, sort_keys=True) + "\n"


def write_json_report(path: str | Path, report: dict) -> None:
    """Serialize a report deterministically (sorted keys, repr floats)."""
    Path(path).write_text(report_text(report))


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """Write a small CSV with deterministic ``repr``-style float formatting."""

    def fmt(value) -> str:
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")
