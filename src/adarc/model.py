"""GPR-style GNN with manual forward/backward.

Architecture: a single linear featurizer followed by full-batch
normalization (no nonlinearity), K-hop propagation H^(k) = Ã^k H^(0),
aggregation Z = Σ_k γ_k H^(k) with trainable per-hop weights γ, and a
linear classifier.

The normalization affine is the (H+1)×H matrix A = [diag(scale); shiftᵀ],
applied to the *pre-affine* normalized features with an all-ones column
appended, [X̂ | 1]. Propagation commutes with it, so with
mix = Σ_k γ_k Ã^k [X̂ | 1],

    H^(k) = Ã^k [X̂ | 1] A    and    Z = mix·A.

No hop stack is held. The hop cache keeps [X̂ | 1] (N×(H+1)), its operator
and the per-hop class scores P_k = Ã^k ([X̂ | 1]·A·W_cls), (K+1)×N×C. Every
reader predicts, then propagates (APPNP): the logits are Σ_k γ_k P_k + b_cls,
and any other linear head W on Z, or any N×C array G read back through mixᵀ,
takes one Horner pass on N×C arrays (``HopCache.mix_dot``/``mix_tdot``, K
propagate calls). P is rebuilt, with K calls, only when scale, shift or W_cls
change, so γ steps reuse it.

``HopCache.moments`` (built on first use) holds the centered per-column
cross-moments of the hops. Because A only scales each column and adds the
ones column, they give the total variance of Z as a (K+1)×(K+1) quadratic
form in γ under any (scale, shift): σ² = γᵀ S_t γ with
S_t = ``HopMoments.total_gram(scale, shift)``. ``hop_moments`` builds them
one column of [X̂ | 1] at a time, the same way under ``row`` and ``sym``:
each column's hops (K propagate calls on an N-vector) fill a transient
(K+1)×N array that is centered and reduced by one GEMM.

Memory budget: a run holds its in-memory f32 feature matrices (40 MB each at
N=5000, D=2000) and a few N×(H+1) f64 columns: [X̂ | 1], the (K+1)×N×C class
scores and, while the moments are built, two (K+1)×N arrays. Of a read
dataset's mapped ``features.bin`` it holds about one row block: X·W1 walks X
by ``io``'s row blocks, which release each block's pages once read, though
``backward_ce``'s Xᵀ·∂L/∂pre faults them all back in. The two GEMMs that read
X, X·W1 in ``_normalize`` and Xᵀ·∂L/∂pre in ``backward_ce``, run in the
features' dtype and widen their N×H and D×H results to f64, so X is never
widened; everything else is f64. X·W1 by row blocks, at preset with H=16:
5.0 against 6.9 ms for (W1ᵀ @ Xᵀ)ᵀ at 2 threads, 8.1 against 12.2 ms at 1,
and +1.1 against +2.5 MB of peak RSS. ``featurize_hops`` normalizes straight
into the cache's [X̂ | 1], so it makes no N×H copy.
``backward_ce`` holds no Z: its X̂, class scores and logits are those of the
``featurize_hops`` cache, whose scores it frees before its Horner pass on N×C
arrays; its N×H arrays are the cache's X̂ and ∂L/∂pre.

Featurization reads the model and writes nothing to it: the cache keeps
the mean and variance it normalized with. ``running_mean``/``running_var``
are the source statistics that pretraining stores for the checkpoint.

``prop_mode`` is the Ã normalization (``graph.PROP_MODES``) that γ was
trained under; γ means nothing under another. Pretraining stamps it, ``copy``
and the checkpoint carry it, and callers build their operator from it.

Checkpoint (version 2): ``ADRCM`` magic, u32 version=2, u32 dims (D, H, C,
K), a 4-byte mode word (``prop_mode`` in ASCII, ``row`` or ``sym``, then one
NUL byte), then the arrays of ``_FIELD_ORDER`` as little-endian f32. Version
1 files had no mode word and are rejected: the Ã normalization their γ was
trained under is not recorded. Writes are byte-deterministic; reads
round-trip the f32 payload bit-exactly and raise ``FormatError`` on
truncated, padded or non-finite data. ``adapt`` from a loaded checkpoint
matches in-memory ``adapt`` in accuracy and within 1e-5 in probabilities
(tested; at most 1e-6 seen at the preset scale).
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .graph import PROP_MODES, Dataset, PropagationOperator
from .io import FormatError, _row_blocks

__all__ = [
    "EpochRecord",
    "GprModel",
    "HopCache",
    "SoftPrediction",
    "StaleCacheError",
    "init_model",
    "featurize_hops",
    "affine_matrix",
    "aggregate",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "prediction_accuracy",
    "backward_ce",
    "save_checkpoint",
    "load_checkpoint",
]

BN_EPS = 1e-5

_CHECKPOINT_MAGIC = b"ADRCM"
_CHECKPOINT_VERSION = 2
#: Checkpoint header: magic, version, dims (D, H, C, K) and the mode word.
_CHECKPOINT_HEADER = struct.Struct("<5sIIIII4s")

#: Checkpoint parameter order; shapes are functions of dims (D, H, C, K).
_FIELD_ORDER = (
    "W1", "b1", "scale", "shift", "running_mean", "running_var", "gamma", "W_cls", "b_cls"
)


@dataclass
class GprModel:
    """Model parameters. ``gamma`` has length K+1 (hops 0..K)."""

    W1: np.ndarray  # D×H
    b1: np.ndarray  # H
    scale: np.ndarray  # H (norm affine)
    shift: np.ndarray  # H (norm affine)
    running_mean: np.ndarray  # H (source feature statistics)
    running_var: np.ndarray  # H
    gamma: np.ndarray  # K+1
    W_cls: np.ndarray  # H×C
    b_cls: np.ndarray  # C
    prop_mode: str = "sym"  # the Ã normalization γ was trained under

    def __post_init__(self) -> None:
        d, h = self.W1.shape
        h2, c = self.W_cls.shape
        if h2 != h:
            raise ValueError("W1 and W_cls disagree on hidden width")
        for name in ("b1", "scale", "shift", "running_mean", "running_var"):
            if getattr(self, name).shape != (h,):
                raise ValueError(f"{name} must have shape ({h},)")
        if self.b_cls.shape != (c,):
            raise ValueError(f"b_cls must have shape ({c},)")
        if self.gamma.ndim != 1 or self.gamma.shape[0] < 1:
            raise ValueError("gamma must be a nonempty vector")
        if self.prop_mode not in PROP_MODES:
            raise ValueError(
                f"prop_mode must be one of {PROP_MODES}, got {self.prop_mode!r}"
            )

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(D, H, C, K)."""
        return (
            self.W1.shape[0],
            self.W1.shape[1],
            self.W_cls.shape[1],
            self.gamma.shape[0] - 1,
        )

    @property
    def num_hops(self) -> int:
        return self.gamma.shape[0] - 1

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _FIELD_ORDER]

    def copy(self) -> "GprModel":
        return replace(self, **{n: getattr(self, n).copy() for n in _FIELD_ORDER})


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of pretraining or adaptation.

    ``loss``, ``accuracy`` and ``grad_norm`` are measured at the parameters
    the epoch started from; ``gamma`` is the γ the epoch leaves in the model.
    A rejected pretraining row instead repeats the restored point and its γ.
    """

    epoch: int
    loss: float
    accuracy: float
    grad_norm: float  # ‖∂loss/∂γ‖
    gamma: np.ndarray


@dataclass
class SoftPrediction:
    """Row-stochastic class probabilities."""

    probs: np.ndarray  # N×C

    def __post_init__(self) -> None:
        if self.probs.ndim != 2:
            raise ValueError("probs must be N×C")
        row_sums = class_sum(self.probs)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-6):
            raise ValueError("prediction rows must sum to 1 within 1e-6")
        if self.probs.min() < 0 or self.probs.max() > 1 + 1e-12:
            raise ValueError("probabilities must lie in [0, 1]")

    @property
    def hard(self) -> np.ndarray:
        """Argmax labels; ties break toward the lowest class index.

        One pass per class over a C×N copy, with a strict ``>``: a later
        class must beat the best so far to take a node. These are the labels
        of ``probs.argmax(axis=1)`` without its per-row loop over a short
        class axis.
        """
        by_class = np.ascontiguousarray(self.probs.T)
        labels = np.zeros(by_class.shape[1], dtype=np.intp)
        best = by_class[0]
        for c in range(1, by_class.shape[0]):
            labels[by_class[c] > best] = c
            best = np.maximum(best, by_class[c])
        return labels


@dataclass(frozen=True)
class HopMoments:
    """Centered per-column cross-moments of a hop stack, over its N rows.

    With c_k = Ã^k [X̂ | 1] − 1·``mean[k]`` and H the index of the ones column:
    ``diag[a, k, l] = Σ_i c_k[i, a] c_l[i, a]`` for every column a ≤ H, and
    ``cross[a, k, l] = Σ_i c_k[i, a] c_l[i, H] + c_l[i, a] c_k[i, H]`` for a < H.
    """

    mean: np.ndarray  # (K+1)×(H+1), the mean row of each hop
    diag: np.ndarray  # (H+1)×(K+1)×(K+1)
    cross: np.ndarray  # H×(K+1)×(K+1), symmetric in (k, l)

    def total_gram(self, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """S_t with σ² = γᵀ S_t γ for Z = Σ_k γ_k Ã^k [X̂ | 1] A(scale, shift).

        Column a of hop k under A is scale_a·c_k[:, a] + shift_a·c_k[:, H], so
        S_t = Σ_a scale_a² diag_a + scale_a shift_a cross_a + shift_a² diag_H.
        """
        return (
            np.tensordot(scale * scale, self.diag[:-1], axes=1)
            + np.tensordot(scale * shift, self.cross, axes=1)
            + (shift @ shift) * self.diag[-1]
        )


def hop_moments(op: PropagationOperator, hop0: np.ndarray, k: int) -> HopMoments:
    """``HopMoments`` of the hops Ã^k [X̂ | 1], k = 0..K, one column of ``hop0`` at a time.

    Each column's K+1 hops are propagated (K calls on one N-vector), centered
    and reduced to their Gram over the hops by one GEMM along N; the ones
    column's centered hops are kept for the cross terms. So it makes
    K(H+1) propagate calls and holds two (K+1)×N arrays.
    """

    def centered_hops(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hops = _hop_powers(op, column, k)
        mean = hops.mean(axis=1)
        hops -= mean[:, None]
        return hops, mean

    ones, ones_mean = centered_hops(hop0[:, -1])
    means, diag, cross = [], [], []
    for a in range(hop0.shape[1] - 1):
        hops, mean = centered_hops(hop0[:, a])
        half = hops @ ones.T
        means.append(mean)
        diag.append(hops @ hops.T)
        cross.append(half + half.T)
    return HopMoments(
        mean=np.column_stack([*means, ones_mean]),
        diag=np.stack([*diag, ones @ ones.T]),
        cross=np.stack(cross),
    )


@dataclass
class HopCache:
    """[X̂ | 1] of one graph, its operator and the per-hop class scores of one head.

    mix = Σ_k γ_k Ã^k [X̂ | 1] is never built; ``mix_dot`` and ``mix_tdot``
    read it through one Horner pass each.
    """

    hop0: np.ndarray  # N×(H+1), [X̂ | 1]
    mean: np.ndarray  # H, mean of X W1 + b1 over the graph's nodes
    var: np.ndarray  # H, variance of X W1 + b1 over the graph's nodes
    theta: tuple[np.ndarray, ...]  # copies of (W1, b1, row_offsets, neighbor_ids)
    op: PropagationOperator  # Ã of the graph, under the model's prop_mode
    num_hops: int
    _head: tuple[np.ndarray, ...] = field(default=(), init=False, repr=False)
    _scores: np.ndarray | None = field(default=None, init=False, repr=False)

    def class_scores(self, model: GprModel) -> np.ndarray:
        """P_k = Ã^k ([X̂ | 1]·A·W_cls), (K+1)×N×C, for the model's scale, shift and W_cls.

        Built with K propagate calls, and rebuilt only when those change.
        """
        head = (model.scale, model.shift, model.W_cls)
        if self._scores is None or not all(map(np.array_equal, head, self._head)):
            p0 = self.hop0 @ (affine_matrix(model.scale, model.shift) @ model.W_cls)
            self._scores = None  # release the old scores before building the new
            self._scores = _hop_powers(self.op, p0, self.num_hops)
            self._head = tuple(a.copy() for a in head)
        return self._scores

    def logits(self, model: GprModel) -> np.ndarray:
        """The classifier's N×C logits Σ_k γ_k P_k + b_cls."""
        self._check_gamma(model.gamma)
        return np.tensordot(model.gamma, self.class_scores(model), axes=1) + model.b_cls

    def mix_dot(self, gamma: np.ndarray, head: np.ndarray) -> np.ndarray:
        """mix·head for an (H+1)×C ``head``: one Horner pass on [X̂ | 1]·head, K calls."""
        self._check_gamma(gamma)
        return _horner(self.op, gamma, self.hop0 @ head)

    def mix_tdot(self, gamma: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """mixᵀ·rows for an N×C ``rows``: [X̂ | 1]ᵀ Σ_k γ_k (Ãᵀ)^k rows, K calls."""
        self._check_gamma(gamma)
        return self.hop0.T @ _horner(self.op, gamma, rows, transpose=True)

    def hops_tdot(self, rows: np.ndarray) -> np.ndarray:
        """rowsᵀ·Ã^k [X̂ | 1] for every k, (K+1)×C×(H+1), as ((Ãᵀ)^k rows)ᵀ [X̂ | 1].

        K propagate calls on N×C arrays, then one product with [X̂ | 1] per hop.
        """
        spread = _hop_powers(self.op, rows, self.num_hops, transpose=True)
        return spread.transpose(0, 2, 1) @ self.hop0

    @functools.cached_property
    def moments(self) -> HopMoments:
        """Per-column cross-moments of the hops Ã^k [X̂ | 1], computed once on first use."""
        return hop_moments(self.op, self.hop0, self.num_hops)

    def is_fresh(self, model: GprModel, graph) -> bool:
        """Whether the model's prop_mode, W1, b1 and the graph match the cache's."""
        return self.op.mode == model.prop_mode and all(
            # The NaN-aware compare is slower, so it only runs on a mismatch.
            np.array_equal(built, now) or np.array_equal(built, now, equal_nan=True)
            for built, now in zip(self.theta, _theta(model, graph))
        )

    def _check_gamma(self, gamma: np.ndarray) -> None:
        if gamma.shape != (self.num_hops + 1,):
            raise ValueError("gamma length must equal K+1")


class StaleCacheError(RuntimeError):
    """The hop cache was built under different featurizer parameters."""


def _theta(model: GprModel, graph) -> tuple[np.ndarray, ...]:
    """The arrays a hop cache depends on: featurizer weights and graph layout."""
    return model.W1, model.b1, graph.row_offsets, graph.neighbor_ids


def init_model(
    dim: int, hidden: int, num_classes: int, num_hops: int, seed: int, alpha: float = 0.1
) -> GprModel:
    """Glorot-uniform linear layers, identity norm affine, PPR-initialized γ.

    γ_k = α(1−α)^k is the standard generalized-PageRank initialization.
    """
    rng = np.random.default_rng(seed)
    limit1 = np.sqrt(6.0 / (dim + hidden))
    limit2 = np.sqrt(6.0 / (hidden + num_classes))
    gamma = alpha * (1.0 - alpha) ** np.arange(num_hops + 1, dtype=np.float64)
    return GprModel(
        W1=rng.uniform(-limit1, limit1, size=(dim, hidden)),
        b1=np.zeros(hidden),
        scale=np.ones(hidden),
        shift=np.zeros(hidden),
        running_mean=np.zeros(hidden),
        running_var=np.ones(hidden),
        gamma=gamma,
        W_cls=rng.uniform(-limit2, limit2, size=(hidden, num_classes)),
        b_cls=np.zeros(num_classes),
    )


def _check_operator(model: GprModel, dataset: Dataset, op: PropagationOperator) -> None:
    """``op`` must apply the model's ``prop_mode`` to the dataset's own graph."""
    ours, theirs = op.graph, dataset.graph
    if op.mode != model.prop_mode or ours is not theirs and not (
        np.array_equal(ours.row_offsets, theirs.row_offsets)
        and np.array_equal(ours.neighbor_ids, theirs.neighbor_ids)
    ):
        raise ValueError(f"op ({op.mode!r}) must apply {model.prop_mode!r} to this graph")


def _normalize(
    model: GprModel, features: np.ndarray, xhat: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(X̂, mean, var): X W1 + b1 normalized over all nodes, and its statistics.

    X̂ is written into ``xhat``, an N×H f64 array or view with C-ordered rows;
    mean and var are those of X W1 + b1.
    """
    if features.shape[1] != model.W1.shape[0]:
        raise ValueError("feature dimension does not match the model")
    # X·W1 runs in the features' dtype (f32 for every dataset the lab creates
    # or reads) as X[rows] @ W1 over ``io``'s even row blocks, each widened into
    # X̂, with the bits of (W1ᵀ @ Xᵀ)ᵀ at 1 and 2 threads for H ≥ 16. A block
    # of a few rows could differ in the last bit: OpenBLAS runs a product of at
    # most 10⁶ multiply-adds in another kernel. X̂'s rows must be C-ordered
    # (a view of [X̂ | 1] keeps that order), or mean/var would sum in another
    # order; its in-place updates give the same bits as the out-of-place forms.
    w1 = model.W1.astype(features.dtype, copy=False)
    n = features.shape[0]
    for rows in _row_blocks(features):
        xhat[rows] = features[rows] @ w1
    xhat += model.b1
    mean = xhat.mean(axis=0)
    xhat -= mean
    # ``np.var``'s arithmetic in its order, less its mean pass and its N×H square.
    var = np.einsum("ij,ij->j", xhat, xhat)
    var /= n
    xhat /= np.sqrt(var + BN_EPS)
    return xhat, mean, var


def featurize_hops(
    model: GprModel, dataset: Dataset, op: PropagationOperator
) -> HopCache:
    """Build the hop cache with exactly K propagate applications.

    Normalization statistics are computed over all nodes of the current
    graph (full-batch transductive) and kept on the cache; the model is
    only read. The K calls build the class scores of the model's head.
    """
    _check_operator(model, dataset, op)
    h = model.W1.shape[1]
    hop0 = np.empty((dataset.num_nodes, h + 1))
    _, mean, var = _normalize(model, dataset.features, hop0[:, :h])
    hop0[:, h] = 1.0
    cache = HopCache(
        hop0=hop0,
        mean=mean,
        var=var,
        theta=tuple(a.copy() for a in _theta(model, dataset.graph)),
        op=op,
        num_hops=model.num_hops,
    )
    cache.class_scores(model)
    return cache


def _hop_powers(
    op: PropagationOperator, x: np.ndarray, k: int, transpose: bool = False
) -> np.ndarray:
    """The (K+1)×N×C stack x, Ãx, …, Ã^K x (Ãᵀ with ``transpose``): K propagate calls."""
    powers = np.empty((k + 1, *x.shape))
    powers[0] = x
    for step in range(1, k + 1):
        powers[step] = op.apply(powers[step - 1], transpose=transpose)
    return powers


def _horner(
    op: PropagationOperator, gamma: np.ndarray, x: np.ndarray, transpose: bool = False
) -> np.ndarray:
    """Σ_k γ_k Ã^k x (Ãᵀ with ``transpose``) by Horner's rule: K propagate calls."""
    out = gamma[-1] * x
    for weight in gamma[-2::-1]:
        out = op.apply(out, transpose=transpose)
        out += weight * x
    return out


def affine_matrix(scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """A = [diag(scale); shiftᵀ], so [x̂ | 1] A = scale ⊙ x̂ + shift."""
    return np.vstack([np.diag(scale), shift[None, :]])


def aggregate(
    cache: HopCache, gamma: np.ndarray, scale: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """Z = Σ_k γ_k H^(k) under the norm affine (scale, shift): one Horner pass, K calls."""
    return cache.mix_dot(gamma, affine_matrix(scale, shift))


def class_sum(values: np.ndarray) -> np.ndarray:
    """Row sums of an N×C array, reduced over classes on a C×N contiguous copy.

    Each sum then adds whole rows of the copy, instead of running numpy's
    per-row loop over a short class axis. For C < 8 the terms are added in the
    same order as ``values.sum(axis=1)`` (numpy's pairwise sum unrolls only
    from 8 terms), so the bits are the same; for C ≥ 8 the order differs and
    the two agree to round-off.
    """
    return np.ascontiguousarray(values.T).sum(axis=0)


def _shifted_class_major(logits: np.ndarray) -> np.ndarray:
    """A C×N copy of the logits minus each row's max."""
    shifted = logits.T.copy()
    shifted -= shifted.max(axis=0)
    return shifted


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, stabilized by row-max subtraction.

    Reduces over classes on a C×N copy (see ``class_sum`` for the bits) and
    returns a C-ordered N×C array.
    """
    exp = _shifted_class_major(logits)
    np.exp(exp, out=exp)
    exp /= exp.sum(axis=0)
    return np.ascontiguousarray(exp.T)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row log-softmax, stabilized by row-max subtraction.

    Reduces over classes on a C×N copy (see ``class_sum`` for the bits) and
    returns a C-ordered N×C array.
    """
    shifted = _shifted_class_major(logits)
    shifted -= np.log(np.exp(shifted).sum(axis=0))
    return np.ascontiguousarray(shifted.T)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of integer labels and its logits gradient (P − onehot)/n."""
    n = logits.shape[0]
    loss = float(-log_softmax(logits)[np.arange(n), labels].mean())
    dlogits = softmax(logits)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def prediction_accuracy(
    prediction: SoftPrediction, labels: np.ndarray, mask: np.ndarray | None = None
) -> float:
    """Argmax accuracy of an existing prediction over masked (or all) nodes."""
    hard = prediction.hard
    if mask is not None:
        hard, labels = hard[mask], labels[mask]
    if labels.size == 0:
        raise ValueError("cannot evaluate on an empty mask")
    return float(np.mean(hard == labels))


def backward_ce(
    model: GprModel, dataset: Dataset, mask: np.ndarray, op: PropagationOperator
) -> tuple[float, dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
    """Mean cross-entropy over masked nodes, its gradients, the logits and X̂'s statistics.

    Returns the pure CE loss (no regularization), gradients for W1, b1,
    scale, shift, gamma, W_cls, b_cls, the N×C logits Z·W_cls + b_cls of
    every node, so a caller can score any other mask without a second
    forward pass, and the mean and variance of X W1 + b1 that the features
    were normalized with, all read from the ``featurize_hops`` cache. Makes 2K
    propagate calls on N×C arrays: K for the cache's class scores, K by Horner.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("empty training mask")
    cache = featurize_hops(model, dataset, op)
    xhat, mean, var = cache.hop0[:, :-1], cache.mean, cache.var
    n = xhat.shape[0]
    head = affine_matrix(model.scale, model.shift) @ model.W_cls
    logits = cache.logits(model)
    loss, masked_dlogits = cross_entropy(logits[rows], dataset.labels[rows])
    dlogits = np.zeros_like(logits)
    dlogits[rows] = masked_dlogits
    grad_gamma = np.tensordot(cache.class_scores(model), dlogits, axes=([1, 2], [0, 1]))
    del cache  # release the class scores; X̂ keeps only [X̂ | 1] alive

    # ∂L/∂P_0 via Horner: G = Σ_k γ_k (Ãᵀ)^k ∂L/∂logits.
    G = _horner(op, model.gamma, dlogits, transpose=True)

    # Every head and batch-norm gradient reads G through X̂ᵀG and 1ᵀG.
    xtg = xhat.T @ G
    ones_g = G.sum(axis=0)
    grad_W_cls = model.scale[:, None] * xtg + np.outer(model.shift, ones_g)
    grad_scale = (xtg * model.W_cls).sum(axis=1)
    grad_shift = model.W_cls @ ones_g

    # ∂L/∂pre = (∂L/∂X̂ − its mean − X̂ ⊙ mean(∂L/∂X̂ ⊙ X̂)) / std, with
    # ∂L/∂X̂ = G·head[:H]ᵀ. The N×H updates are in place; X̂ is not needed after.
    d_pre = G @ head[:-1].T
    d_pre -= head[:-1] @ ones_g / n
    xhat *= (xtg * head[:-1]).sum(axis=1) / n
    d_pre -= xhat
    del xhat
    d_pre /= np.sqrt(var + BN_EPS)

    # Xᵀ·∂L/∂pre in the features' dtype and widened, as in ``_normalize``.
    # With the features on the right the GEMM reads X in its stored layout,
    # which OpenBLAS 0.3.31 runs faster in f64, to the same bits as Xᵀ @ d_pre.
    features = dataset.features
    grad_W1 = (d_pre.astype(features.dtype, copy=False).T @ features).T
    grad_W1 = grad_W1.astype(np.float64, copy=False)
    grad_b1 = d_pre.sum(axis=0)

    grads = {
        "W1": grad_W1,
        "b1": grad_b1,
        "scale": grad_scale,
        "shift": grad_shift,
        "gamma": grad_gamma,
        "W_cls": grad_W_cls,
        "b_cls": dlogits.sum(axis=0),
    }
    return loss, grads, logits, mean, var


def save_checkpoint(model: GprModel, path) -> None:
    """Write ``model`` as an ``ADRCM`` checkpoint: header, then f32 arrays."""
    mode = model.prop_mode.encode("ascii")
    header = _CHECKPOINT_HEADER.pack(
        _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION, *model.dims, mode
    )
    payload = [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in model.arrays()]
    Path(path).write_bytes(header + b"".join(payload))


def load_checkpoint(path) -> GprModel:
    """Read an ``ADRCM`` checkpoint; a deviation from the format is a ``FormatError``."""
    raw = Path(path).read_bytes()
    if raw[:5] != _CHECKPOINT_MAGIC:
        raise FormatError(f"checkpoint: bad magic {raw[:5]!r} in {path}")
    if len(raw) < _CHECKPOINT_HEADER.size:
        raise FormatError(f"checkpoint: truncated header in {path}")
    _, version, *dims, mode = _CHECKPOINT_HEADER.unpack_from(raw)
    if version != _CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint: unsupported version {version} in {path}")
    prop_mode = mode.rstrip(b"\0").decode("ascii", "replace")
    if prop_mode not in PROP_MODES:
        raise FormatError(f"checkpoint: unknown prop_mode {prop_mode!r} in {path}")
    d, h, c, k = dims
    by_name = {"W1": (d, h), "gamma": (k + 1,), "W_cls": (h, c), "b_cls": (c,)}
    shapes = [by_name.get(name, (h,)) for name in _FIELD_ORDER]
    sizes = [math.prod(shape) for shape in shapes]
    expected = _CHECKPOINT_HEADER.size + 4 * sum(sizes)
    if len(raw) != expected:
        raise FormatError(
            f"checkpoint: expected {expected} bytes, found {len(raw)} in {path}"
        )
    values = np.frombuffer(raw, dtype="<f4", offset=_CHECKPOINT_HEADER.size)
    if not np.isfinite(values).all():
        raise FormatError(f"checkpoint: non-finite parameter in {path}")
    parts = np.split(values, np.cumsum(sizes)[:-1])
    arrays = (part.reshape(shape).astype(float) for part, shape in zip(parts, shapes))
    return GprModel(*arrays, prop_mode=prop_mode)
