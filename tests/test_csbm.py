"""CSBM generator: class structure, edge statistics, presets, splits."""

from __future__ import annotations

import numpy as np
import pytest

from adarc import (
    CsbmParams,
    attach_split_masks,
    edge_probs,
    generate,
    preset_params,
)
from adarc.csbm import (
    PRESET_D,
    PRESET_N,
    PRESETS,
    _sample_cross_pairs,
    _sample_within_pairs,
    _scatter_rows_in_place,
)
from adarc.graph import build_graph

from conftest import tiny_params


def test_generate_shapes_and_balance():
    dataset = generate(tiny_params(homophily=0.8, seed=1))
    assert dataset.features.shape == (320, 48)
    assert dataset.features.dtype == np.float32
    assert dataset.features.flags.c_contiguous
    assert dataset.num_classes == 2
    counts = np.bincount(dataset.labels, minlength=2)
    assert abs(int(counts[0]) - int(counts[1])) <= 1, "classes should be balanced"


def test_generate_is_deterministic_per_seed():
    a = generate(tiny_params(homophily=0.7, seed=5))
    b = generate(tiny_params(homophily=0.7, seed=5))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.graph.neighbor_ids, b.graph.neighbor_ids)
    c = generate(tiny_params(homophily=0.7, seed=6))
    assert not np.array_equal(a.graph.neighbor_ids, c.graph.neighbor_ids)


def reference_generate(params: CsbmParams):
    """Reference CSBM draw: the direct multi-pass formula, same RNG draws as ``generate``."""
    p, q = edge_probs(params)
    rng = np.random.default_rng(params.seed)
    half = params.n // 2
    within_a = _sample_within_pairs(rng, half, p)
    within_b = _sample_within_pairs(rng, half, p) + half
    cross = _sample_cross_pairs(rng, half, half, q)
    cross[:, 1] += half
    block_edges = np.concatenate([within_a, within_b, cross], axis=0)
    block_labels = np.repeat(np.array([0, 1], dtype=np.int64), half)
    centers = np.where(
        block_labels[:, None] == 0, params.mu[None, :], -params.mu[None, :]
    )
    block_features = (
        centers + params.delta_mu[None, :] + rng.standard_normal((params.n, params.dim))
    )
    perm = rng.permutation(params.n)
    labels = np.empty(params.n, dtype=np.int64)
    labels[perm] = block_labels
    features = np.empty_like(block_features)
    features[perm] = block_features
    edges = perm[block_edges] if block_edges.size else block_edges
    features = features.astype(np.float32).astype(np.float64)
    return build_graph(edges, params.n), features, labels


@pytest.mark.parametrize(
    "params",
    [
        tiny_params(homophily=0.8, seed=3),
        tiny_params(homophily=0.3, seed=4, delta=0.1),
        CsbmParams(
            n=2, dim=3, mu=np.full(3, 0.5), delta_mu=np.full(3, -0.2),
            avg_degree=0.5, homophily=0.5, seed=8,
        ),
    ],
    ids=["no-shift", "attribute-shift", "n2"],
)
def test_generate_matches_reference_formula(params):
    dataset = generate(params)
    graph, features, labels = reference_generate(params)
    assert np.array_equal(dataset.features, features)
    assert np.array_equal(dataset.labels, labels)
    assert np.array_equal(dataset.graph.row_offsets, graph.row_offsets)
    assert np.array_equal(dataset.graph.neighbor_ids, graph.neighbor_ids)


@pytest.mark.parametrize(
    "perm",
    [
        np.arange(6),
        np.roll(np.arange(7), 1),
        np.array([1, 0]),
        *(np.random.default_rng(seed).permutation(40) for seed in range(3)),
    ],
    ids=["identity", "one-7-cycle", "n=2", "random-0", "random-1", "random-2"],
)
def test_scatter_rows_in_place_matches_a_fancy_scatter(perm):
    rows = np.random.default_rng(len(perm)).standard_normal((len(perm), 3))
    expected = np.empty_like(rows)
    expected[perm] = rows
    _scatter_rows_in_place(rows, perm)
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("m", [2, 3, 5, 100, 160])
def test_within_pairs_decode_every_flat_index_once(m):
    # At p = 1 every flat index is drawn, so the decoded pairs must be each
    # i < j pair of the block exactly once.
    pairs = _sample_within_pairs(np.random.default_rng(0), m, 1.0)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    np.testing.assert_array_equal(pairs[order], np.column_stack(np.triu_indices(m, 1)))


def test_generated_degree_and_homophily_match_parameters():
    # (7, 0.3) plus each preset graph's (d, h); the CSBM's h is the expected
    # share of edges that join two nodes of the same class (edge homophily).
    for avg_degree, homophily in ((7.0, 0.3), (5.0, 0.8), (5.0, 0.2), (10.0, 0.8), (2.0, 0.8)):
        params = CsbmParams(
            n=4000,
            dim=4,
            mu=np.full(4, 0.1),
            delta_mu=np.zeros(4),
            avg_degree=avg_degree,
            homophily=homophily,
            seed=2,
        )
        dataset = generate(params)
        graph, labels = dataset.graph, dataset.labels
        case = f"d={avg_degree}, h={homophily}"
        assert graph.degrees.mean() == pytest.approx(avg_degree, rel=0.08), case
        edge_homophily = np.mean(labels[graph.row_ids] == labels[graph.neighbor_ids])
        assert edge_homophily == pytest.approx(homophily, abs=0.03), case


def test_feature_class_means():
    params = tiny_params(homophily=0.5, seed=9)
    big = CsbmParams(
        n=6000,
        dim=params.dim,
        mu=params.mu,
        delta_mu=params.delta_mu,
        avg_degree=params.avg_degree,
        homophily=params.homophily,
        seed=9,
    )
    dataset = generate(big)
    mu_hat_class0 = dataset.features[dataset.labels == 0].mean(axis=0)
    mu_hat_class1 = dataset.features[dataset.labels == 1].mean(axis=0)
    np.testing.assert_allclose(mu_hat_class0, params.mu, atol=0.06)
    np.testing.assert_allclose(mu_hat_class1, -params.mu, atol=0.06)


def test_edge_probs_reproduce_degree_and_homophily():
    params = tiny_params(homophily=0.65, seed=0)
    p_in, p_out = edge_probs(params)
    n = params.n
    # generator convention: d = n(p+q)/2 and h = p/(p+q)
    assert n * (p_in + p_out) / 2 == pytest.approx(params.avg_degree, rel=1e-12)
    assert p_in / (p_in + p_out) == pytest.approx(0.65, rel=1e-12)
    with pytest.raises(ValueError):
        edge_probs(
            CsbmParams(
                n=10,
                dim=2,
                mu=np.zeros(2),
                delta_mu=np.zeros(2),
                avg_degree=9.0,
                homophily=1.0,
                seed=0,
            )
        )


def test_preset_table_constants():
    assert set(PRESETS) == {"homo2hetero", "hetero2homo", "high2low", "low2high"}
    assert PRESETS["homo2hetero"]["source"] == (5.0, 0.8)
    assert PRESETS["homo2hetero"]["target"] == (5.0, 0.2)
    assert PRESETS["hetero2homo"]["source"] == (5.0, 0.2)
    assert PRESETS["hetero2homo"]["target"] == (5.0, 0.8)
    assert PRESETS["high2low"]["source"] == (10.0, 0.8)
    assert PRESETS["high2low"]["target"] == (2.0, 0.8)
    assert PRESETS["low2high"]["source"] == (2.0, 0.8)
    assert PRESETS["low2high"]["target"] == (10.0, 0.8)
    assert (PRESET_N, PRESET_D) == (5000, 2000)


def test_preset_params_mu_and_delta_entries():
    params = preset_params("homo2hetero", "source", seed=0)
    np.testing.assert_allclose(params.mu, 0.03)
    assert np.linalg.norm(params.mu) == pytest.approx(0.03 * np.sqrt(2000))
    target = preset_params("homo2hetero", "target", seed=0, attribute_shift=True)
    np.testing.assert_allclose(target.delta_mu, 0.02)


def test_preset_params_attribute_shift_only_hits_target():
    source = preset_params("homo2hetero", "source", seed=0, attribute_shift=True)
    np.testing.assert_allclose(source.delta_mu, 0.0)
    target_plain = preset_params("homo2hetero", "target", seed=0)
    np.testing.assert_allclose(target_plain.delta_mu, 0.0)


def test_preset_params_overrides_and_roles():
    params = preset_params(
        "homo2hetero", "source", seed=3, n=500, dim=64, override_h=0.4
    )
    assert (params.n, params.dim) == (500, 64)
    assert params.homophily == 0.4
    assert params.avg_degree == 5.0
    with pytest.raises(ValueError):
        preset_params("nosuch", "source", seed=0)
    with pytest.raises(ValueError):
        preset_params("homo2hetero", "nosuch", seed=0)


def test_attribute_shift_translates_class_means():
    base = tiny_params(homophily=0.5, seed=4)
    shifted = tiny_params(homophily=0.5, seed=4, delta=0.3)
    a = generate(base)
    b = generate(shifted)
    # same seed: labels and graph identical; every center translated by +Δμ
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.graph.neighbor_ids, b.graph.neighbor_ids)
    diff = (b.features - a.features).astype(np.float64)
    np.testing.assert_allclose(diff, 0.3, atol=1e-6)


def test_attach_split_masks_partition():
    dataset = attach_split_masks(generate(tiny_params(0.6, seed=13)), seed=42)
    assert set(dataset.masks) == {"train", "val"}
    train, val = dataset.masks["train"], dataset.masks["val"]
    n = dataset.num_nodes
    assert train.sum() == int(round(0.6 * n))
    assert val.sum() == int(round(0.2 * n))
    assert not np.any(train & val)
    test = ~(train | val)
    assert int(train.sum() + val.sum() + test.sum()) == n
    assert test.sum() > 0, "the remainder forms a nonempty test set"
    again = attach_split_masks(generate(tiny_params(0.6, seed=13)), seed=42)
    np.testing.assert_array_equal(again.masks["train"], train)
    other = attach_split_masks(generate(tiny_params(0.6, seed=13)), seed=43)
    assert not np.array_equal(other.masks["train"], train)
