"""Contextual stochastic block model generation and shift injection.

Two balanced classes of N/2 nodes each; class ``+`` has feature center
``+mu + delta_mu``, class ``−`` has ``−mu + delta_mu`` (the attribute shift
translates both centers), features drawn from N(center, I). Same-class
pairs connect independently with probability p = 2dh/N, cross-class with
q = 2d(1−h)/N, so the expected average degree is d and the expected edge
homophily is h.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import Dataset, Graph, build_graph
from .io import _row_blocks

__all__ = [
    "CsbmParams",
    "PRESETS",
    "edge_probs",
    "generate",
    "preset_params",
    "attach_split_masks",
]

#: Default desk-scale constants for the scenario presets.
PRESET_N = 5000
PRESET_D = 2000
#: Class-center entry magnitude for presets (‖mu‖ = 0.03·√D ≈ 1.342).
PRESET_MU_ENTRY = 0.03
#: Attribute-shift entry magnitude for presets (‖Δmu‖ = 0.02·√D ≈ 0.894).
PRESET_DELTA_MU_ENTRY = 0.02


@dataclass(frozen=True)
class CsbmParams:
    """Parameters of one CSBM draw."""

    n: int
    dim: int
    mu: np.ndarray
    delta_mu: np.ndarray
    avg_degree: float
    homophily: float
    seed: int

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be positive and even, got {self.n}")
        if self.avg_degree < 0:
            raise ValueError("avg_degree must be >= 0")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must lie in [0, 1]")
        mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        dmu = np.asarray(self.delta_mu, dtype=np.float64).reshape(-1)
        if mu.shape[0] != self.dim or dmu.shape[0] != self.dim:
            raise ValueError("mu / delta_mu length must equal dim")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "delta_mu", dmu)
        edge_probs(self)  # validate feasibility eagerly


def edge_probs(params: CsbmParams) -> tuple[float, float]:
    """Within-class and cross-class edge probabilities (p, q).

    Inverts d = N(p+q)/2 and h = p/(p+q): p = 2dh/N, q = 2d(1−h)/N.
    """
    p = 2.0 * params.avg_degree * params.homophily / params.n
    q = 2.0 * params.avg_degree * (1.0 - params.homophily) / params.n
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(
            f"infeasible edge probabilities p={p:.6g}, q={q:.6g} "
            f"(need both in [0, 1]; reduce avg_degree or increase n)"
        )
    return p, q


def _sample_within_pairs(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Uniformly sample Binomial(m·(m−1)/2, p) distinct index pairs within a block."""
    total = m * (m - 1) // 2
    count = int(rng.binomial(total, p)) if total > 0 and p > 0 else 0
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    flat = rng.choice(total, size=count, replace=False)
    # Decode flat index t into (i, j), i < j, under the ordering
    # t = i*m - i(i+1)/2 + (j - i - 1): row i is the last row start ≤ t.
    rows = np.arange(m - 1, dtype=np.int64)
    starts = rows * m - rows * (rows + 1) // 2
    i = np.searchsorted(starts, flat, side="right") - 1
    j = flat - starts[i] + i + 1
    return np.column_stack([i, j])


def _sample_cross_pairs(
    rng: np.random.Generator, m_a: int, m_b: int, q: float
) -> np.ndarray:
    """Uniformly sample Binomial(m_a·m_b, q) distinct cross-block pairs."""
    total = m_a * m_b
    count = int(rng.binomial(total, q)) if total > 0 and q > 0 else 0
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    flat = rng.choice(total, size=count, replace=False)
    return np.column_stack(np.divmod(flat, m_b))


def _scatter_rows_in_place(rows: np.ndarray, perm: np.ndarray) -> None:
    """``rows[perm] = rows.copy()`` with one row of scratch instead of a copy.

    Slot k receives old row ``inv[k]`` (``inv`` inverts ``perm``); each cycle
    of the permutation is walked once, pulling rows forward along it.
    """
    inv = np.argsort(perm).tolist()
    done = bytearray(len(inv))
    scratch = np.empty_like(rows[0])
    for start in range(len(inv)):
        if done[start]:
            continue
        scratch[...] = rows[start]
        k = start
        while inv[k] != start:
            rows[k] = rows[inv[k]]
            done[k] = 1
            k = inv[k]
        rows[k] = scratch
        done[k] = 1


def generate(params: CsbmParams) -> Dataset:
    """Draw one CSBM dataset; deterministic in ``params.seed``.

    The first N/2 block is class 0 and the rest class 1, then a seeded
    permutation relabels node ids so structure statistics are
    position-independent. Features are a C-ordered f32 matrix, the values
    ``features.bin`` stores. It is the only N×D array: the noise is drawn in
    ``io``'s row blocks, each at most 1 MiB of f64 rows, each block is shifted
    to its class center and rounded into the matrix in one call, and the
    matrix is then row-permuted in place.
    """
    p, q = edge_probs(params)
    rng = np.random.default_rng(params.seed)
    half = params.n // 2

    within_a = _sample_within_pairs(rng, half, p)
    within_b = _sample_within_pairs(rng, half, p) + half
    cross = _sample_cross_pairs(rng, half, half, q)
    cross[:, 1] += half
    block_edges = np.concatenate([within_a, within_b, cross], axis=0)

    block_labels = np.repeat(np.array([0, 1], dtype=np.int64), half)
    # The noise is drawn row block by row block, in the order one N×D draw
    # takes, so the values are those of rng.standard_normal((N, D)). IEEE
    # addition commutes, so z + (c + Δμ) is exactly (c + Δμ) + z. Each block
    # is freed before the next is drawn, so one is held at a time.
    features = np.empty((params.n, params.dim), dtype=np.float32)
    centers = (params.mu + params.delta_mu, -params.mu + params.delta_mu)
    for part, center in zip((features[:half], features[half:]), centers):
        for rows in _row_blocks(part, row_bytes=8 * params.dim):
            block = rng.standard_normal((rows.stop - rows.start, params.dim))
            np.add(block, center, out=part[rows], casting="same_kind")
            del block

    perm = rng.permutation(params.n)
    labels = np.empty(params.n, dtype=np.int64)
    labels[perm] = block_labels
    _scatter_rows_in_place(features, perm)
    edges = perm[block_edges] if block_edges.size else block_edges

    graph = build_graph(edges, params.n)
    return Dataset(graph, features, labels, num_classes=2)


def _preset_vectors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    mu = np.full(dim, PRESET_MU_ENTRY)
    delta_mu = np.full(dim, PRESET_DELTA_MU_ENTRY)
    return mu, delta_mu


#: Scenario presets: (source (d, h), target (d, h)).
PRESETS: dict[str, dict[str, tuple[float, float]]] = {
    "homo2hetero": {"source": (5.0, 0.8), "target": (5.0, 0.2)},
    "hetero2homo": {"source": (5.0, 0.2), "target": (5.0, 0.8)},
    "high2low": {"source": (10.0, 0.8), "target": (2.0, 0.8)},
    "low2high": {"source": (2.0, 0.8), "target": (10.0, 0.8)},
}


def preset_params(
    preset: str,
    role: str,
    seed: int,
    attribute_shift: bool = False,
    n: int = PRESET_N,
    dim: int = PRESET_D,
    override_d: float | None = None,
    override_h: float | None = None,
) -> CsbmParams:
    """CsbmParams for a named scenario preset.

    ``role`` is ``source`` or ``target``. The attribute shift (Δmu added to
    both centers) applies to the target only. ``override_d`` / ``override_h``
    replace the preset's degree/homophily for sweep protocols.
    """
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    if role not in ("source", "target"):
        raise ValueError(f"role must be 'source' or 'target', got {role!r}")
    d, h = PRESETS[preset][role]
    if override_d is not None:
        d = override_d
    if override_h is not None:
        h = override_h
    mu, delta_mu = _preset_vectors(dim)
    if role != "target" or not attribute_shift:
        delta_mu = np.zeros(dim)
    return CsbmParams(
        n=n, dim=dim, mu=mu, delta_mu=delta_mu, avg_degree=d, homophily=h, seed=seed
    )


def attach_split_masks(
    dataset: Dataset, seed: int, train_fraction: float = 0.6, val_fraction: float = 0.2
) -> Dataset:
    """Attach a seeded train/val split; the remainder is the test set."""
    n = dataset.num_nodes
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    n_val = int(round(val_fraction * n))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    train[order[:n_train]] = True
    val[order[n_train : n_train + n_val]] = True
    return replace(dataset, masks={"train": train, "val": val})
