"""Token pooling: clustering-based downsampling plus baseline selectors.

``token_pool`` reduces N tokens to K by k-means or k-medoids (optionally
weighted), or by the baseline random / importance / grid methods. Clustering
minimizes the nearest-retained-token reconstruction error

    loss = sum_i w_i * min_j ||f_i - fhat_j||^2

(w_i = 1 unless a weighted method is used).

Random and importance selection and random initialization share one sorted
Plackett-Luce draw, ``_draw``. ``token_pool`` assembles every method's output
the same way: the protected token, then the K centers (every clusterable
token is its own center when K covers them all). Every method returns counts
exactly when its input has them: each center's count sums its cluster's
multiplicities. Only the sampling methods carry weights, their survivors'
own; ``random_select`` and ``importance_select`` keep each survivor's own
weight and count.

Determinism rules: every argmin/argmax tie resolves to the lowest index.
Every nearest-center search (k-means and k-medoids assignment, empty-cluster
repair, random/importance assignment, chamfer loss) goes through
``_kernels.nearest_sq_dists``: a BLAS screen whose surviving pairs are
confirmed exactly by difference, so results do not depend on BLAS rounding
or thread count. The medoid update sums exact distances, each weighted by the
objective weight of its far end, within each cluster only; no token-to-token
matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .errors import DataError, UsageError
from .numerics import Rng, as_matrix, sample_without_replacement
from .transformer import TokenSet

METHODS = ("kmeans", "wkmeans", "kmedoids", "wkmedoids", "random", "importance", "grid")
INITS = ("topk_weight", "random")
_WEIGHTED = ("wkmeans", "wkmedoids")
_MEDOID = ("kmedoids", "wkmedoids")
_CLUSTERING = ("kmeans", "wkmeans", "kmedoids", "wkmedoids")


@dataclass
class PoolSpec:
    method: str
    k: int
    max_iters: int = 5
    init: str = "topk_weight"
    seed: int = 0
    protect_first: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}; choose one of {METHODS}")
        if self.init not in INITS:
            raise UsageError(f"unknown init {self.init!r}; choose one of {INITS}")
        if self.k < 1:
            raise UsageError("k must be >= 1")
        if self.max_iters < 1:
            raise UsageError("max_iters must be >= 1")


@dataclass
class ClusterResult:
    """Outcome over the clustered (non-protected) tokens."""

    assignment: np.ndarray            # token -> cluster index
    centers: np.ndarray               # (K, M) retained tokens
    iterations: int
    loss: float
    counts: np.ndarray                # per-cluster sums of input multiplicities
    medoid_indices: np.ndarray | None = None


def chamfer_loss(f, fhat, weights=None) -> float:
    """Reconstruction error of ``f`` under nearest-neighbor lookup into ``fhat``."""
    feats = f.features if isinstance(f, TokenSet) else as_matrix(f, "tokens")
    fhat = as_matrix(fhat, "retained tokens")
    if fhat.shape[0] < 1:
        raise UsageError("need at least one retained token")
    if feats.shape[1] != fhat.shape[1]:
        raise DataError(
            f"feature dims differ: {feats.shape[1]} vs {fhat.shape[1]}"
        )
    if weights is None and isinstance(f, TokenSet):
        weights = f.weights
    mins = kernels.nearest_sq_dists(feats, fhat)[1]
    if weights is None:
        return float(mins.sum())
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.shape[0] != feats.shape[0]:
        raise UsageError(f"weights length {weights.shape[0]} != {feats.shape[0]} tokens")
    return float((weights * mins).sum())


def _draw(n: int, k: int, seed: int, probs=None) -> np.ndarray:
    """``k`` sorted distinct indices from ``range(n)``, drawn Plackett-Luce."""
    return np.sort(sample_without_replacement(Rng(seed), n, k, probs))


def _init_indices(n: int, k: int, init: str, init_weights: np.ndarray, seed: int) -> np.ndarray:
    if init == "random":
        return _draw(n, k, seed)
    # stable sort: equal weights keep ascending token order
    return np.sort(np.argsort(-init_weights, kind="stable")[:k])


def _repair_empty(centers, feats, occupied, medoids=None):
    """Deserted clusters each take the worst-reconstructed token as a singleton.

    Error is measured against the freshly updated centers of occupied
    clusters, so the promoted token always differs from every live center and
    the move can only lower the reconstruction objective.
    """
    errs = kernels.nearest_sq_dists(feats, centers[occupied])[1]
    for j in np.flatnonzero(~occupied):
        t = int(np.argmax(errs))
        centers[j] = feats[t]
        if medoids is not None:
            medoids[j] = t
        # fold the new center in so equal-valued tokens stop looking bad
        errs = np.minimum(errs, kernels.nearest_sq_dists(feats, feats[t:t + 1])[1])
        errs[t] = -np.inf


def _lloyd(feats, obj_w, init_w, spec: PoolSpec):
    """Alternating assignment / center update until assignments stabilize."""
    n, _ = feats.shape
    k = spec.k
    medoid = spec.method in _MEDOID
    init_idx = _init_indices(n, k, spec.init, init_w, spec.seed)

    medoids = init_idx.astype(np.int64) if medoid else None
    centers = feats[init_idx].astype(np.float64, copy=True)
    labels, errs = kernels.nearest_sq_dists(feats, centers)
    prev = labels
    iterations = 0
    for step in range(spec.max_iters):
        mass = np.bincount(labels, weights=obj_w, minlength=k)
        occupied = mass > 0  # a cluster of zero-weight tokens is repaired too
        if medoid:
            new_med = kernels.medoid_update(feats, labels, k, obj_w)
            medoids[occupied] = new_med[occupied]
            centers = feats[medoids].astype(np.float64, copy=True)
            if not occupied.all():
                _repair_empty(centers, feats, occupied, medoids)
        else:
            sums = np.zeros((k, feats.shape[1]))
            np.add.at(sums, labels, obj_w[:, None] * feats)
            centers[occupied] = sums[occupied] / mass[occupied, None]
            if not occupied.all():
                _repair_empty(centers, feats, occupied)
        labels, errs = kernels.nearest_sq_dists(feats, centers)
        iterations = step + 1
        if np.array_equal(labels, prev):
            break
        prev = labels
    loss = float((obj_w * errs).sum())
    return labels, centers, medoids, iterations, loss


def token_pool(f: TokenSet, spec: PoolSpec) -> tuple[TokenSet, ClusterResult]:
    """Downsample a token set; returns the pooled set and the cluster record.

    With ``protect_first`` the first token passes through untouched, is
    excluded from clustering and from the reported loss, and does not count
    toward K. If K covers all clusterable tokens, each is its own center
    (0 iterations, 0.0 loss) and the output goes through the same assembly:
    the features come back unchanged. The pooled set carries counts exactly
    when ``f`` does.
    """
    if spec.method in _WEIGHTED and f.weights is None:
        raise UsageError(f"method {spec.method!r} requires token weights")
    if spec.method == "importance" and f.weights is None:
        raise UsageError("importance selection requires token weights (scores)")
    if spec.method == "grid":
        return _grid_result(f)

    offset = 1 if spec.protect_first else 0
    feats = np.ascontiguousarray(f.features[offset:])
    n_eff = feats.shape[0]
    mult = f.counts[offset:] if f.counts is not None else np.ones(n_eff)
    w_in = f.weights[offset:] if f.weights is not None else None

    if spec.k >= n_eff:  # every token is its own center
        labels = np.arange(n_eff, dtype=np.int64)
        centers, iterations, loss = feats.copy(), 0, 0.0
        medoids = labels.copy() if spec.method in _MEDOID else None
        kept = labels
    elif spec.method in _CLUSTERING:
        init_w = w_in if w_in is not None else np.ones(n_eff)
        obj_w = init_w if spec.method in _WEIGHTED else np.ones(n_eff)
        if not obj_w.any():
            raise DataError("weights sum to zero")
        labels, centers, medoids, iterations, loss = _lloyd(feats, obj_w, init_w, spec)
    else:  # random or importance: uniform or weight-proportional sampling
        probs = w_in if spec.method == "importance" else None
        kept = medoids = _draw(n_eff, spec.k, spec.seed, probs)
        centers = feats[medoids]
        labels, mins = kernels.nearest_sq_dists(feats, centers)
        iterations, loss = 0, float(mins.sum())
    out_w = None
    if spec.method not in _CLUSTERING and w_in is not None:  # survivors keep their weights
        out_w = np.concatenate([f.weights[:offset], w_in[kept]])
    counts = np.bincount(labels, weights=mult, minlength=centers.shape[0])
    result = ClusterResult(labels, centers, iterations, loss, counts, medoids)

    out_counts = None if f.counts is None else np.concatenate([f.counts[:offset], counts])
    features = np.concatenate([f.features[:offset], centers], axis=0)
    return TokenSet(features, out_w, out_counts, None), result


def _select(f: TokenSet, k: int, seed: int, probs, protect_first: bool) -> TokenSet:
    """The protected token plus ``k`` drawn survivors, each with its own data."""
    if k < 1:
        raise UsageError("k must be >= 1")
    offset = 1 if protect_first else 0
    limit = f.n_tokens - offset
    if k > limit:
        raise UsageError(f"cannot select {k} of {limit} selectable tokens")
    if k == limit:
        return f.copy()
    keep = np.concatenate([np.arange(offset), offset + _draw(limit, k, seed, probs)])
    return TokenSet(
        f.features[keep],
        f.weights[keep] if f.weights is not None else None,
        f.counts[keep] if f.counts is not None else None,
        None,
    )


def random_select(f: TokenSet, k: int, seed: int, protect_first: bool = True) -> TokenSet:
    """Uniform selection without replacement; survivor order is preserved."""
    return _select(f, k, seed, None, protect_first)


def importance_select(
    f: TokenSet, scores, k: int, seed: int, protect_first: bool = True
) -> TokenSet:
    """Plackett-Luce selection with probabilities proportional to ``scores``."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.shape[0] != f.n_tokens:
        raise UsageError(f"scores length {scores.shape[0]} != {f.n_tokens} tokens")
    if not np.isfinite(scores).all() or (scores < 0).any():
        raise DataError("scores must be finite and nonnegative")
    offset = 1 if protect_first else 0
    if scores[offset:].sum() <= 0:
        raise DataError("scores sum to zero")
    # scores only steer the draw; survivors keep f's own weights and counts
    return _select(f, k, seed, scores[offset:], protect_first)


def grid_pool(f: TokenSet) -> TokenSet:
    """Mean-pool non-overlapping 2x2 grid patches; grid dims halve."""
    out, _ = _grid_result(f)
    return out


def _grid_result(f: TokenSet):
    if f.grid is None:
        raise UsageError("grid pooling requires a token grid")
    h, w = f.grid
    if h % 2 or w % 2:
        raise UsageError(f"grid dims must be even to 2x2-pool, got {h}x{w}")
    offset = f.n_tokens - h * w  # 1 when a classification token is present
    m = f.dim
    body = f.features[offset:].reshape(h, w, m)
    blocks = body.reshape(h // 2, 2, w // 2, 2, m)
    pooled = blocks.mean(axis=(1, 3)).reshape(-1, m)

    # structural assignment: each body token belongs to its 2x2 block
    rr, cc = np.divmod(np.arange(h * w), w)
    labels = ((rr // 2) * (w // 2) + cc // 2).astype(np.int64)
    base = f.counts[offset:] if f.counts is not None else np.ones(h * w)
    counts = np.bincount(labels, weights=base, minlength=pooled.shape[0])
    out_counts = None if f.counts is None else np.concatenate([f.counts[:offset], counts])
    rows = np.concatenate([f.features[:offset], pooled], axis=0)
    out = TokenSet(rows, None, out_counts, (h // 2, w // 2))
    loss = chamfer_loss(f.features[offset:], pooled, None)
    return out, ClusterResult(labels, pooled, 1, loss, counts, None)
