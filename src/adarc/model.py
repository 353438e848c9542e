"""GPR-style GNN with manual forward/backward.

Architecture: a single linear featurizer followed by full-batch
normalization (no nonlinearity), K-hop propagation H^(k) = Ã^k H^(0),
aggregation Z = Σ_k γ_k H^(k) with trainable per-hop weights γ, and a
linear classifier.

The hop cache is one array: the hops of the *pre-affine* normalized
features with an all-ones column appended, Ã^k [X̂ | 1], of shape
(K+1)×N×(H+1). The normalization affine is the (H+1)×H matrix
A = [diag(scale); shiftᵀ], and propagation commutes with it, so

    H^(k) = Ã^k [X̂ | 1] A    and    Z = (Σ_k γ_k Ã^k [X̂ | 1]) A.

Every Z is one γ-contraction of the stack followed by one small GEMM. Any
scale and shift reuse the cache, so norm-affine test-time adaptation costs
no new propagate calls and an entire adaptation run costs exactly K of them.

``HopCache.moments`` (built on first use, two passes over the stack) holds the
centered per-column cross-moments of the hops. Because A only scales each
column and adds the ones column, they give the total variance of Z as a
(K+1)×(K+1) quadratic form in γ under any (scale, shift):
σ² = γᵀ S_t γ with S_t = ``HopMoments.total_gram(scale, shift)``.

Memory budget: a run holds its f32 feature matrices (40 MB each at N=5000,
D=2000) and at most one f64 hop stack, 13.2 MB at N=5000, H=32, K=9. The
two GEMMs that read X, X·W1 in ``_normalize`` and Xᵀ·∂L/∂pre in
``backward_ce``, run in the features' dtype and widen their N×H and D×H
results to f64, so X is never widened; everything else is f64. Every other
N-sized array is transient and lives inside one call: ``featurize_hops``
copies X̂ and then each hop's propagate output into its slot. ``backward_ce``
holds no Z and no stack. It predicts, then propagates (APPNP): with
head = A·W_cls, the logits are Σ_k γ_k Ã^k ([X̂ | 1]·head) + b_cls, so its
hops are (K+1)×N×C class scores and its Horner pass runs on N×C arrays; its
N×H arrays are X̂ and ∂L/∂pre. A base prediction and the
``entropy``/``pseudo`` surrogates hold the γ-mix of the stack and N×C
arrays: they score mix·head + b and never build Z (the surrogates add one
N×(H+1) ∂L/∂mix). ``adarc adapt`` drops its pre-adaptation stack before
``adapt`` builds its own.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .graph import PROP_MODES, Dataset, PropagationOperator
from .io import FormatError

__all__ = [
    "EpochRecord",
    "GprModel",
    "HopCache",
    "HopMoments",
    "SoftPrediction",
    "StaleCacheError",
    "init_model",
    "featurize_hops",
    "mix_hops",
    "affine_matrix",
    "aggregate",
    "classify",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "prediction_accuracy",
    "backward_ce",
    "save_checkpoint",
    "load_checkpoint",
]

BN_EPS = 1e-5
#: Rows per block when ``hop_moments`` centers and transposes the stack.
_MOMENT_BLOCK_ROWS = 256

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


def hop_moments(hops: np.ndarray) -> HopMoments:
    """``HopMoments`` of a (K+1)×N×(H+1) stack: one pass for the means, one for the rest.

    Each block of rows is centered into a small (H+1)×(K+1)×rows buffer, so
    the per-column Grams are batched GEMMs and no second N-sized array is held.
    """
    k1, n, h1 = hops.shape
    mean = hops.mean(axis=1)
    diag = np.zeros((h1, k1, k1))
    cross = np.zeros((h1 - 1, k1, k1))
    block = np.empty((h1, k1, min(n, _MOMENT_BLOCK_ROWS)))
    for start in range(0, n, block.shape[2]):
        rows = hops[:, start : start + block.shape[2], :]
        centered = block[:, :, : rows.shape[1]]
        np.subtract(rows.transpose(2, 0, 1), mean.T[:, :, None], out=centered)
        diag += centered @ centered.transpose(0, 2, 1)
        cross += centered[:-1] @ centered[-1].T
    return HopMoments(mean=mean, diag=diag, cross=cross + cross.transpose(0, 2, 1))


@dataclass
class HopCache:
    """Hops of the pre-affine normalized features and the all-ones column."""

    hops: np.ndarray  # (K+1)×N×(H+1), Ã^k [X̂ | 1]
    mean: np.ndarray  # H, mean of X W1 + b1 over the graph's nodes
    var: np.ndarray  # H, variance of X W1 + b1 over the graph's nodes
    theta: tuple[np.ndarray, ...]  # copies of (W1, b1, row_offsets, neighbor_ids)

    @property
    def num_hops(self) -> int:
        return self.hops.shape[0] - 1

    @property
    def xhat(self) -> np.ndarray:
        """N×H normalized pre-affine features (a view of hop 0)."""
        return self.hops[0, :, :-1]

    @functools.cached_property
    def moments(self) -> HopMoments:
        """Per-column cross-moments of ``hops``, computed once on first use."""
        return hop_moments(self.hops)

    def is_fresh(self, model: GprModel, graph) -> bool:
        """Whether W1, b1 and the graph still equal those the cache was built from."""
        return all(
            # The NaN-aware compare is slower, so it only runs on a mismatch.
            np.array_equal(built, now) or np.array_equal(built, now, equal_nan=True)
            for built, now in zip(self.theta, _theta(model, graph))
        )


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


def _normalize(model: GprModel, features: np.ndarray) -> tuple[np.ndarray, ...]:
    """(X̂, mean, var): X W1 + b1 normalized over all nodes, and its statistics.

    X̂ is a C-ordered N×H f64 array; mean and var are those of X W1 + b1.
    """
    if features.shape[1] != model.W1.shape[0]:
        raise ValueError("feature dimension does not match the model")
    # The GEMM runs in the features' dtype, f32 for every dataset the lab
    # creates or reads, and its N×H result is widened: everything after it is
    # f64. With the features on the right the GEMM reads X in its stored
    # layout. At N=5000, D=2000, H=32 (OpenBLAS 0.3.31) X @ W1 runs faster in
    # f32 (9.3 against 11.5 ms) but packs X into 7 MB more of BLAS buffer, and
    # in f64 this form is the faster one. ``xhat`` must be C-ordered, or
    # mean/var would sum in another order. The N×H array is updated in
    # place, to the same bits as the out-of-place forms.
    xhat = (model.W1.astype(features.dtype, copy=False).T @ features.T).T
    xhat = np.ascontiguousarray(xhat, dtype=np.float64)
    xhat += model.b1
    mean = xhat.mean(axis=0)
    var = xhat.var(axis=0)
    xhat -= mean
    xhat /= np.sqrt(var + BN_EPS)
    return xhat, mean, var


def featurize_hops(
    model: GprModel, dataset: Dataset, op: PropagationOperator
) -> HopCache:
    """Build the hop cache with exactly K propagate applications.

    Normalization statistics are computed over all nodes of the current
    graph (full-batch transductive) and kept on the cache; the model is
    only read.
    """
    xhat, mean, var = _normalize(model, dataset.features)
    n, h = xhat.shape
    k = model.num_hops
    # Propagate the normalized features and the all-ones column together so
    # the whole cache costs exactly K propagate calls.
    stack = np.empty((k + 1, n, h + 1))
    stack[0, :, :h] = xhat
    del xhat
    stack[0, :, h] = 1.0
    for step in range(1, k + 1):
        stack[step] = op.apply(stack[step - 1])
    return HopCache(
        hops=stack,
        mean=mean,
        var=var,
        theta=tuple(a.copy() for a in _theta(model, dataset.graph)),
    )


def mix_hops(cache: HopCache, gamma: np.ndarray) -> np.ndarray:
    """Σ_k γ_k Ã^k [X̂ | 1], the N×(H+1) block [S_B | t_o] that Z is built from."""
    if gamma.shape[0] != cache.hops.shape[0]:
        raise ValueError("gamma length must equal K+1")
    return np.tensordot(gamma, cache.hops, axes=1)


def affine_matrix(scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """A = [diag(scale); shiftᵀ], so [x̂ | 1] A = scale ⊙ x̂ + shift."""
    return np.vstack([np.diag(scale), shift[None, :]])


def aggregate(
    cache: HopCache, gamma: np.ndarray, scale: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """Z = Σ_k γ_k H^(k) under the norm affine (scale, shift)."""
    return mix_hops(cache, gamma) @ affine_matrix(scale, shift)


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


def classify(Z: np.ndarray, model: GprModel) -> tuple[np.ndarray, SoftPrediction]:
    """Linear classifier logits and their softmax prediction."""
    if Z.shape[1] != model.W_cls.shape[0]:
        raise ValueError("representation width does not match the classifier")
    logits = Z @ model.W_cls + model.b_cls[None, :]
    return logits, SoftPrediction(softmax(logits))


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
    scale, shift, gamma, W_cls, b_cls, the N×C logits of every node (those
    of ``classify``), so a caller can score any other mask without a second
    forward pass, and the mean and variance of X W1 + b1 that the features
    were normalized with. Makes 2K propagate calls on N×C arrays.
    """
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        raise ValueError("empty training mask")
    xhat, mean, var = _normalize(model, dataset.features)
    n = xhat.shape[0]
    k = model.num_hops

    # Predict, then propagate: the logits Σ_k γ_k Ã^k [X̂ | 1]·head + b_cls
    # propagate the C class scores P_0 = [X̂ | 1]·head, not the H features.
    head = affine_matrix(model.scale, model.shift) @ model.W_cls
    scores = np.empty((k + 1, n, head.shape[1]))
    np.matmul(xhat, head[:-1], out=scores[0])
    scores[0] += head[-1]
    for step in range(1, k + 1):
        scores[step] = op.apply(scores[step - 1])
    logits = np.tensordot(model.gamma, scores, axes=1)
    logits += model.b_cls

    loss, masked_dlogits = cross_entropy(logits[rows], dataset.labels[rows])
    dlogits = np.zeros_like(logits)
    dlogits[rows] = masked_dlogits
    grad_gamma = np.tensordot(scores, dlogits, axes=([1, 2], [0, 1]))
    del scores

    # ∂L/∂P_0 via Horner: G = Σ_k γ_k (Ãᵀ)^k ∂L/∂logits.
    G = model.gamma[k] * dlogits
    for step in range(k - 1, -1, -1):
        G = op.apply(G, transpose=True)
        G += model.gamma[step] * dlogits

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
