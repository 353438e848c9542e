"""Sparse kernels under PropagationOperator and node_homophily, against naive loops."""

from __future__ import annotations

import numpy as np
import pytest

from adarc import BACKEND, PropagationOperator, build_graph, node_homophily


def random_graph(rng, n, num_pairs):
    # Random pairs include self-loops and duplicates; build_graph drops them,
    # and a sparse draw leaves some nodes isolated.
    return build_graph(rng.integers(0, n, size=(num_pairs, 2)), num_nodes=n)


def dense_from_csr(graph):
    n = graph.num_nodes
    a = np.zeros((n, n))
    for i in range(n):
        for e in range(graph.row_offsets[i], graph.row_offsets[i + 1]):
            a[i, graph.neighbor_ids[e]] += 1.0
    return a


def dense_operator(graph, mode):
    a = dense_from_csr(graph)
    deg = a.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    if mode == "row":
        return np.diag(inv) @ a
    return np.diag(np.sqrt(inv)) @ a @ np.diag(np.sqrt(inv))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_numpy_matmul_matches_dense_reference(seed):
    # The benchmark's environment block reports this constant as the backend.
    assert BACKEND == "scipy"
    rng = np.random.default_rng(seed)
    n, f = 23, 4
    graph = random_graph(rng, n, num_pairs=30)
    dense = rng.normal(size=(n, f))
    for mode in ("row", "sym"):
        op = PropagationOperator(graph, mode=mode)
        expected = dense_operator(graph, mode)
        np.testing.assert_allclose(op.apply(dense), expected @ dense, atol=1e-12)
        np.testing.assert_allclose(
            op.apply(dense, transpose=True), expected.T @ dense, atol=1e-12
        )


def test_numpy_matmul_zero_rows_are_exact_zero():
    # Nodes 0 and 2 are isolated; node 1 has two neighbors.
    graph = build_graph([(1, 3), (1, 4)], num_nodes=5)
    dense = np.ones((5, 2))
    for mode in ("row", "sym"):
        op = PropagationOperator(graph, mode=mode)
        for transpose in (False, True):
            out = op.apply(dense, transpose=transpose)
            np.testing.assert_array_equal(out[0], 0.0)
            np.testing.assert_array_equal(out[2], 0.0)
    out = PropagationOperator(graph, mode="row").apply(dense)
    np.testing.assert_array_equal(out[[1, 3, 4]], 1.0)


def test_numpy_matmul_empty_matrix():
    graph = build_graph(np.zeros((0, 2), dtype=np.int64), num_nodes=4)
    for mode in ("row", "sym"):
        op = PropagationOperator(graph, mode=mode)
        for transpose in (False, True):
            out = op.apply(np.ones((4, 3)), transpose=transpose)
            np.testing.assert_array_equal(out, np.zeros((4, 3)))


def test_numpy_homophily_counts_reference():
    rng = np.random.default_rng(7)
    n = 40
    graph = random_graph(rng, n, num_pairs=60)
    labels = rng.integers(0, 3, size=n).astype(np.int64)
    counts = np.array(
        [
            sum(1.0 for j in graph.neighbors(i) if labels[j] == labels[i])
            for i in range(n)
        ]
    )
    deg = graph.degrees
    expected = np.array(
        [counts[i] / deg[i] if deg[i] > 0 else np.nan for i in range(n)]
    )
    assert (deg == 0).any() and (deg > 0).any()
    per_node, _ = node_homophily(graph, labels)
    np.testing.assert_array_equal(per_node, expected)
