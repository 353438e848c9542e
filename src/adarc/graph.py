"""Sparse graph storage, structural statistics, and hop propagation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "BACKEND",
    "PROP_MODES",
    "Graph",
    "Dataset",
    "PropagationOperator",
    "build_graph",
]

#: The library that applies Ã: a pre-normalized ``scipy.sparse`` CSR matrix.
BACKEND = "scipy"

#: Normalizations of Ã: row (D⁻¹A) and symmetric (D^{-1/2} A D^{-1/2}).
PROP_MODES = ("row", "sym")


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form: sorted, deduplicated, self-loop-free."""

    num_nodes: int
    row_offsets: np.ndarray  # int64, length N+1
    neighbor_ids: np.ndarray  # int64, length row_offsets[-1]

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    @property
    def row_ids(self) -> np.ndarray:
        """Source node of each CSR entry, aligned with ``neighbor_ids``."""
        return np.repeat(np.arange(self.num_nodes), self.degrees)

    def edge_list(self) -> np.ndarray:
        """Undirected edges as an E×2 array with u < v, lexicographically sorted."""
        row_ids = self.row_ids
        keep = row_ids < self.neighbor_ids
        return np.column_stack([row_ids[keep], self.neighbor_ids[keep]])


@dataclass
class Dataset:
    """A graph with node features, labels, and optional train/val masks.

    The lab creates and reads features as f32 (the ``features.bin`` values);
    f64 features are accepted too. The feature GEMMs run in the features'
    dtype, so any other dtype is rejected here.
    """

    graph: Graph
    features: np.ndarray  # N×D, float32 or float64
    labels: np.ndarray  # int64, length N, values in [0, C)
    num_classes: int
    masks: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.graph.num_nodes
        if n == 0:
            raise ValueError("dataset has no nodes")
        features = self.features
        if features.ndim != 2 or features.dtype not in (np.float32, np.float64):
            raise ValueError(
                "features must be a 2-D float32 or float64 matrix, got "
                f"{features.ndim}-D {features.dtype}"
            )
        if features.shape[0] != n:
            raise ValueError(f"feature rows {features.shape[0]} != num_nodes {n}")
        if self.labels.shape[0] != n:
            raise ValueError(f"label count {self.labels.shape[0]} != num_nodes {n}")
        if int(self.labels.min()) < 0 or int(self.labels.max()) >= self.num_classes:
            raise ValueError(f"label value out of range [0, {self.num_classes})")
        for name, mask in self.masks.items():
            if mask.shape[0] != n:
                raise ValueError(f"mask {name!r} length {mask.shape[0]} != {n}")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


class PropagationOperator:
    """One application of the normalized adjacency Ã.

    ``mode="row"`` applies D⁻¹A (each nonzero row sums to 1); ``mode="sym"``
    applies D^{-1/2} A D^{-1/2} (a symmetric operator). Degree-0 rows map to
    zero. Ã is built once as a CSR matrix with the degree scaling folded into
    its entries. Every application increments ``calls`` — the
    caching-discipline counter asserted by the adaptation loop.
    """

    def __init__(self, graph: Graph, mode: str = "sym"):
        if mode not in PROP_MODES:
            raise ValueError(f"mode must be one of {PROP_MODES}, got {mode!r}")
        self.graph = graph
        self.mode = mode
        self.calls = 0
        # Every stored entry joins two nodes of degree >= 1, so no division by 0.
        deg = graph.degrees.astype(np.float64)
        rows, cols = graph.row_ids, graph.neighbor_ids
        if mode == "row":
            weights = 1.0 / deg[rows]
        else:
            weights = 1.0 / np.sqrt(deg[rows] * deg[cols])
        n = graph.num_nodes
        self.matrix = sp.csr_matrix((weights, cols, graph.row_offsets), shape=(n, n))
        self.matrix_t = self.matrix.T.tocsr() if mode == "row" else self.matrix

    def apply(self, dense: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Ã·H (or Ãᵀ·H with ``transpose``); counts one propagate call.

        An N×2 array goes one column at a time, to the bits of ``matrix @
        dense``: 39–56 µs against 54–77 µs at N=5000 and 10k nonzeros. From
        N×3 on, the multi-vector product is the faster (4–6× at N×33).
        """
        if dense.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"row count {dense.shape[0]} != num_nodes {self.graph.num_nodes}"
            )
        self.calls += 1
        matrix = self.matrix_t if transpose else self.matrix
        if dense.ndim == 2 and dense.shape[1] == 2:
            return np.column_stack([matrix @ dense[:, 0], matrix @ dense[:, 1]])
        return matrix @ dense


def build_graph(edges: np.ndarray | list, num_nodes: int) -> Graph:
    """Build a symmetrized, deduplicated, self-loop-free CSR graph.

    ``edges`` is an E×2 array (or list of pairs) of undirected edges; the
    layout is deterministic for a given input ordering.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size:
        if edges.min() < 0 or edges.max() >= num_nodes:
            raise ValueError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size:
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        # Sorted (source, target) keys are in CSR order; a repeat is a duplicate
        # (numpy 2's hash-based ``np.unique`` is 16× slower at preset scale).
        keys = np.sort(both[:, 0] * num_nodes + both[:, 1])
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        sources = keys // num_nodes
        row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(row_offsets, sources + 1, 1)
        np.cumsum(row_offsets, out=row_offsets)
        neighbor_ids = np.ascontiguousarray(keys % num_nodes)
    else:
        row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        neighbor_ids = np.zeros(0, dtype=np.int64)
    return Graph(num_nodes, row_offsets, neighbor_ids)

