"""Shared generators and independent numeric oracles for the test suite.

Everything here is deliberately naive: dense loops, explicit sums, central
finite differences. The package under test must agree with these
slow-but-obvious computations, never the other way around.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from adarc.model import BN_EPS, affine_matrix, aggregate, cross_entropy, featurize_hops


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


def with_f64_features(dataset):
    """``dataset`` with its features widened to f64, so the feature GEMMs run in f64.

    The lab's datasets hold f32 features and run X·W1 and Xᵀ·∂L/∂pre in f32;
    exact-math checks run on this widening so they test the formulas alone.
    """
    return replace(dataset, features=dataset.features.astype(np.float64))


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


def tent_affine_grad_z(mix: np.ndarray, dZ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(∂/∂scale, ∂/∂shift) from ∂L/∂Z for Z = mix·[diag(scale); shiftᵀ], node by node.

    Z[i] = scale ⊙ mix[i, :H] + shift·mix[i, H], so the scale gradient is
    Σ_i mix[i, :H] ⊙ dZ[i] and the shift gradient Σ_i mix[i, H]·dZ[i].
    """
    d_scale = np.zeros(dZ.shape[1])
    d_shift = np.zeros(dZ.shape[1])
    for row, dz in zip(mix, dZ):
        d_scale += row[:-1] * dz
        d_shift += row[-1] * dz
    return d_scale, d_shift


# Row-wise class reductions: the forms ``model.softmax`` and friends had before
# they reduced on a class-major copy. For C < 8 the two must agree bit for bit.


def row_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def row_log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def row_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    n = logits.shape[0]
    loss = float(-row_log_softmax(logits)[np.arange(n), labels].mean())
    dlogits = row_softmax(logits)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def row_entropy(probs: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    return -(probs * log_probs).sum(axis=1)


def stack_backward_ce(model, dataset, mask, op):
    """``backward_ce``'s (loss, grads, logits, mean, var) by the hop-stack path.

    ``featurize_hops`` builds the (K+1)×N×(H+1) stack, ``aggregate`` builds
    Z, and the chain rule runs in Z-space: ∂L/∂γ_k = ⟨Ã^k [X̂ | 1], ∂L/∂Z Aᵀ⟩
    hop by hop, and ∂L/∂H^(0) = Σ_k γ_k (Ãᵀ)^k ∂L/∂Z with each power applied
    afresh. The features are read in f64.
    """
    cache = featurize_hops(model, dataset, op)
    Z = aggregate(cache, model.gamma, model.scale, model.shift)
    logits = Z @ model.W_cls + model.b_cls
    rows = np.flatnonzero(mask)
    loss, masked_dlogits = cross_entropy(logits[rows], dataset.labels[rows])
    dlogits = np.zeros_like(logits)
    dlogits[rows] = masked_dlogits
    dZ = dlogits @ model.W_cls.T

    d_mix = dZ @ affine_matrix(model.scale, model.shift).T
    grad_gamma = np.array([float((hop * d_mix).sum()) for hop in cache.hops])
    d_h0 = np.zeros_like(dZ)
    for k, weight in enumerate(model.gamma):
        power = dZ
        for _ in range(k):
            power = op.apply(power, transpose=True)
        d_h0 += weight * power

    xhat = cache.xhat
    d_xhat = d_h0 * model.scale
    d_pre = d_xhat - d_xhat.mean(axis=0) - xhat * (d_xhat * xhat).mean(axis=0)
    d_pre /= np.sqrt(cache.var + BN_EPS)
    grads = {
        "W1": dataset.features.astype(np.float64).T @ d_pre,
        "b1": d_pre.sum(axis=0),
        "scale": (xhat * d_h0).sum(axis=0),
        "shift": d_h0.sum(axis=0),
        "gamma": grad_gamma,
        "W_cls": Z.T @ dlogits,
        "b_cls": dlogits.sum(axis=0),
    }
    return loss, grads, logits, cache.mean, cache.var
