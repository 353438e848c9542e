"""Shared generators and independent numeric oracles for the test suite.

Everything here is deliberately naive: dense loops, explicit sums, central
finite differences. The package under test must agree with these
slow-but-obvious computations, never the other way around.
"""

from __future__ import annotations

import numpy as np


def random_instance(
    rng: np.random.Generator,
    max_nodes: int = 50,
    max_dim: int = 8,
    max_classes: int = 5,
    hard: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Random representations Z (N×H) and row-stochastic predictions (N×C)."""
    n = int(rng.integers(2, max_nodes + 1))
    h = int(rng.integers(1, max_dim + 1))
    c = int(rng.integers(2, max_classes + 1))
    Z = rng.normal(size=(n, h)) * rng.uniform(0.2, 3.0)
    if hard:
        probs = np.zeros((n, c))
        probs[np.arange(n), rng.integers(0, c, size=n)] = 1.0
    else:
        probs = rng.dirichlet(np.full(c, rng.uniform(0.3, 3.0)), size=n)
    return Z, probs


def brute_variances(Z: np.ndarray, probs: np.ndarray) -> tuple[float, float, float]:
    """(σ²_intra, σ²_inter, σ²) by explicit per-node/per-class loops."""
    n, _ = Z.shape
    c = probs.shape[1]
    mass = probs.sum(axis=0)
    centroids = np.zeros((c, Z.shape[1]))
    for j in range(c):
        if mass[j] > 0:
            for i in range(n):
                centroids[j] += probs[i, j] * Z[i]
            centroids[j] /= mass[j]
    global_centroid = Z.mean(axis=0)
    intra = 0.0
    inter = 0.0
    total = 0.0
    for i in range(n):
        total += float(np.sum((Z[i] - global_centroid) ** 2))
        for j in range(c):
            intra += probs[i, j] * float(np.sum((Z[i] - centroids[j]) ** 2))
            inter += probs[i, j] * float(np.sum((centroids[j] - global_centroid) ** 2))
    return intra, inter, total


def fd_grad(func, X: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise in X."""
    grad = np.zeros_like(X, dtype=np.float64)
    flat = grad.reshape(-1)
    base = X.astype(np.float64).copy()
    for idx in range(base.size):
        bump = np.zeros_like(base).reshape(-1)
        bump[idx] = step
        bump = bump.reshape(base.shape)
        flat[idx] = (func(base + bump) - func(base - bump)) / (2.0 * step)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    # Central differences at step 1e-4 on unit-scale losses carry ~1e-12 of
    # roundoff noise; flooring the denominator keeps instances whose true
    # gradient vanishes from turning that noise into a spurious mismatch.
    denom = max(np.linalg.norm(numeric), 1e-7)
    return float(np.linalg.norm(analytic - numeric) / denom)


def extended_variance_ratio(
    hops: np.ndarray,
    gamma: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
    probs: np.ndarray,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(σ², σ²_inter, ∇γσ², ∇γσ²_inter) in extended precision, Ŷ held fixed.

    Builds every hop representation B_k = hops[k]·[diag(scale); shiftᵀ] and
    Z = Σ_k γ_k B_k in ``np.longdouble``, then differentiates the variances
    by the product rule: ∂σ²/∂γ_k = 2⟨Z − z̄, B_k − b̄_k⟩ and
    ∂σ²_inter/∂γ_k = 2 Σ_c W_c (μ_c − z̄)·(Ŷ_cᵀB_k/W_c − b̄_k).
    """
    ext = np.longdouble
    affine = np.vstack([np.diag(scale), shift[None, :]]).astype(ext)
    B = np.stack([hop.astype(ext) @ affine for hop in hops])
    Z = np.tensordot(gamma.astype(ext), B, axes=1)
    P = probs.astype(ext)
    occupied = P.sum(axis=0) > 0
    P = P[:, occupied]
    W = P.sum(axis=0)
    z_bar = Z.mean(axis=0)
    b_bar = B.mean(axis=1)
    offsets = P.T @ Z / W[:, None] - z_bar  # μ_c − z̄
    total = ((Z - z_bar) ** 2).sum()
    inter = (W[:, None] * offsets**2).sum()
    d_total = np.array([2 * ((Z - z_bar) * (Bk - bk)).sum() for Bk, bk in zip(B, b_bar)])
    d_inter = np.array(
        [2 * (W[:, None] * offsets * (P.T @ Bk / W[:, None] - bk)).sum()
         for Bk, bk in zip(B, b_bar)]
    )
    return total, inter, d_total, d_inter


def dense_adjacency(graph) -> np.ndarray:
    """Dense 0/1 adjacency reconstructed from the CSR arrays."""
    n = graph.num_nodes
    A = np.zeros((n, n))
    for u in range(n):
        start, end = graph.row_offsets[u], graph.row_offsets[u + 1]
        for v in graph.neighbor_ids[start:end]:
            A[u, v] = 1.0
    return A


def dense_propagation(graph, mode: str) -> np.ndarray:
    """Dense D⁻¹A or D^{-1/2}AD^{-1/2} with zero rows for isolated nodes."""
    A = dense_adjacency(graph)
    deg = A.sum(axis=1)
    if mode == "row":
        inv = np.where(deg > 0, 1.0 / np.maximum(deg, 1e-300), 0.0)
        return inv[:, None] * A
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    return inv_sqrt[:, None] * A * inv_sqrt[None, :]
