"""Graph container and normalized propagation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adarc import (
    BACKEND,
    Dataset,
    Graph,
    PropagationOperator,
    build_graph,
)

from oracle_utils import dense_adjacency, dense_propagation

PATH_EDGES = [(0, 1), (1, 2), (2, 3)]  # path on 4 nodes plus isolated node 4


def path_graph() -> Graph:
    return build_graph(PATH_EDGES, num_nodes=5)


def random_graph(rng: np.random.Generator, n: int, p: float) -> Graph:
    upper = rng.random((n, n)) < p
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if upper[u, v]]
    return build_graph(edges, num_nodes=n)


def random_pairs_graph(rng: np.random.Generator, n: int, num_pairs: int) -> Graph:
    # Raw pairs include self-loops and duplicates; build_graph drops them,
    # and a sparse draw leaves some nodes isolated.
    return build_graph(rng.integers(0, n, size=(num_pairs, 2)), num_nodes=n)


def test_backend_is_scipy():
    # The benchmark's environment block reports this constant as the backend.
    assert BACKEND == "scipy"


def test_build_graph_csr_matches_dense():
    g = path_graph()
    A = dense_adjacency(g)
    expected = np.zeros((5, 5))
    for u, v in PATH_EDGES:
        expected[u, v] = expected[v, u] = 1.0
    np.testing.assert_array_equal(A, expected)
    np.testing.assert_array_equal(g.degrees, [1, 2, 2, 1, 0])
    assert len(g.edge_list()) == 3


def test_build_graph_deduplicates_and_ignores_self_loops():
    g = build_graph([(0, 1), (1, 0), (0, 1), (2, 2)], num_nodes=3)
    A = dense_adjacency(g)
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    np.testing.assert_array_equal(A, expected)
    assert np.trace(A) == 0.0, "self-loops must not appear"


def test_build_graph_layout_is_that_of_the_unique_keys():
    rng = np.random.default_rng(5)
    n = 40
    pairs = rng.integers(0, n, size=(300, 2))
    kept = pairs[pairs[:, 0] != pairs[:, 1]]
    both = np.concatenate([kept, kept[:, ::-1]])
    keys = np.unique(both[:, 0] * n + both[:, 1])
    g = build_graph(pairs, num_nodes=n)
    np.testing.assert_array_equal(g.neighbor_ids, keys % n)
    np.testing.assert_array_equal(
        g.row_offsets, np.searchsorted(keys // n, np.arange(n + 1))
    )


def test_neighbors_sorted_and_edge_list_roundtrip():
    g = build_graph([(3, 1), (0, 3), (3, 2)], num_nodes=4)
    start, stop = g.row_offsets[3:5]
    np.testing.assert_array_equal(g.neighbor_ids[start:stop], [0, 1, 2])
    rebuilt = build_graph(g.edge_list(), num_nodes=4)
    np.testing.assert_array_equal(rebuilt.row_offsets, g.row_offsets)
    np.testing.assert_array_equal(rebuilt.neighbor_ids, g.neighbor_ids)


@pytest.mark.parametrize("mode", ["row", "sym"])
def test_propagate_matches_dense_operator(mode):
    rng = np.random.default_rng(5)
    g = random_graph(rng, 40, 0.12)
    X = rng.normal(size=(40, 7))
    P = dense_propagation(g, mode)
    op = PropagationOperator(g, mode)
    np.testing.assert_allclose(op.apply(X), P @ X, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["row", "sym"])
def test_propagate_transpose_matches_dense_operator(mode):
    rng = np.random.default_rng(8)
    g = random_graph(rng, 40, 0.12)
    X = rng.normal(size=(40, 7))
    P = dense_propagation(g, mode)
    op = PropagationOperator(g, mode)
    np.testing.assert_allclose(
        op.apply(X, transpose=True), P.T @ X, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_propagate_raw_pairs_match_dense_operator(seed):
    rng = np.random.default_rng(seed)
    n = 23
    g = random_pairs_graph(rng, n, num_pairs=30)
    X = rng.normal(size=(n, 4))
    for mode in ("row", "sym"):
        P = dense_propagation(g, mode)
        op = PropagationOperator(g, mode)
        np.testing.assert_allclose(op.apply(X), P @ X, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            op.apply(X, transpose=True), P.T @ X, rtol=0, atol=1e-12
        )


def test_propagate_isolated_rows_are_exact_zero_and_row_mode_rows_one():
    # Nodes 0 and 2 are isolated; node 1 has two neighbors.
    g = build_graph([(1, 3), (1, 4)], num_nodes=5)
    ones = np.ones((5, 2))
    for mode in ("row", "sym"):
        op = PropagationOperator(g, mode)
        for transpose in (False, True):
            out = op.apply(ones, transpose=transpose)
            np.testing.assert_array_equal(out[[0, 2]], 0.0)
    out = PropagationOperator(g, "row").apply(ones)
    np.testing.assert_array_equal(out[[1, 3, 4]], 1.0)


@pytest.mark.parametrize("mode", ["row", "sym"])
def test_propagate_edgeless_graph_is_zero(mode):
    g = build_graph([], num_nodes=4)
    op = PropagationOperator(g, mode)
    for transpose in (False, True):
        out = op.apply(np.ones((4, 3)), transpose=transpose)
        np.testing.assert_array_equal(out, np.zeros((4, 3)))


def test_propagate_isolated_node_row_is_zero():
    g = path_graph()
    op = PropagationOperator(g, "sym")
    out = op.apply(np.ones((5, 2)))
    np.testing.assert_array_equal(out[4], 0.0)


def test_row_mode_rows_sum_to_one():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 30, 0.2)
    P = dense_propagation(g, "row")
    sums = PropagationOperator(g, "row").apply(np.ones(30))
    expected = (P.sum(axis=1) > 0).astype(float)
    np.testing.assert_allclose(sums, expected, atol=1e-12)


def test_sym_mode_is_self_adjoint():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 25, 0.25)
    op = PropagationOperator(g, "sym")
    x, y = rng.normal(size=25), rng.normal(size=25)
    assert op.apply(x) @ y == pytest.approx(x @ op.apply(y), abs=1e-12)


def test_propagate_counts_calls():
    op = PropagationOperator(path_graph(), "sym")
    assert op.calls == 0
    op.apply(np.ones(5))
    op.apply(np.ones((5, 3)))
    assert op.calls == 2


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["row", "sym"])
@pytest.mark.parametrize("transpose", [False, True], ids=["plain", "transpose"])
def test_propagate_any_width_is_the_sparse_product_in_one_call(width, mode, transpose):
    # Narrow arrays go column by column; the bits must not change.
    rng = np.random.default_rng(width)
    op = PropagationOperator(random_pairs_graph(rng, 60, 150), mode)
    dense = rng.normal(size=(60, width + 1))[:, :width]  # a strided view
    calls = op.calls
    out = op.apply(dense, transpose=transpose)
    assert op.calls == calls + 1
    np.testing.assert_array_equal(out, (op.matrix_t if transpose else op.matrix) @ dense)


def test_propagate_rejects_wrong_row_count():
    op = PropagationOperator(path_graph(), "sym")
    with pytest.raises(ValueError):
        op.apply(np.ones((4, 2)))


def test_propagation_operator_rejects_bad_mode():
    with pytest.raises(ValueError):
        PropagationOperator(path_graph(), "colwise")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["row", "sym"]))
def test_propagate_is_linear(seed, mode):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 15, 0.3)
    op = PropagationOperator(g, mode)
    X, Y = rng.normal(size=(15, 3)), rng.normal(size=(15, 3))
    a, b = rng.normal(), rng.normal()
    np.testing.assert_allclose(
        op.apply(a * X + b * Y),
        a * op.apply(X) + b * op.apply(Y),
        atol=1e-10,
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dataset_accepts_float32_and_float64_features(dtype):
    features = np.zeros((5, 3), dtype=dtype)
    dataset = Dataset(path_graph(), features, np.zeros(5, dtype=np.int64), 1)
    assert dataset.features.dtype == dtype


@pytest.mark.parametrize(
    "features",
    [
        np.zeros((5, 3), dtype=np.int64),
        np.zeros((5, 3), dtype=bool),
        np.zeros((5, 3), dtype=np.float16),
        np.zeros(5),
    ],
    ids=["int64", "bool", "float16", "1-D"],
)
def test_dataset_rejects_features_that_are_not_a_float_matrix(features):
    # The feature GEMMs run in the features' dtype: an int matrix would run an
    # integer GEMM.
    with pytest.raises(ValueError, match="2-D float32 or float64"):
        Dataset(path_graph(), features, np.zeros(5, dtype=np.int64), 1)
