"""Forward-only transformer block over token sets.

Blocks are pre-norm with residual connections (the usual DeiT layout);
``norm_and_skip=False`` evaluates the bare MLP(MSA(x)) composition instead,
which is what the unit oracles check. Attention runs all H heads as one
``(H, N, N)`` batch through ``_kernels.softmax``, with the same bits as one
head at a time. Attention modes:

``standard``          logits = Q K^T / sqrt(d)
``normalized_alpha``  rows of Q and K scaled to unit L2 norm, logits = alpha * Q K^T;
                      a zero query or key row stays zero, so its logits are 0
``carry``             softmax numerator and denominator of key i scaled by count c_i
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .costmodel import MODES, ModelConfig
from .errors import DataError, UsageError, check_finite_positive
from .numerics import Rng, as_matrix

LN_EPS = 1e-6


@dataclass
class TokenSet:
    """N tokens of dimension M, with optional nonnegative per-token weights,
    positive carry multiplicities, and a grid for the non-classification tokens."""

    features: np.ndarray
    weights: np.ndarray | None = None
    counts: np.ndarray | None = None
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features, "token features")
        n = self.features.shape[0]
        if n < 1:
            raise UsageError("a token set needs at least one token")
        for name, rule in (("weights", "nonnegative"), ("counts", "positive")):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64).reshape(-1)
            if value.shape[0] != n:
                raise UsageError(f"{name} length {value.shape[0]} != {n} tokens")
            low = value < 0 if name == "weights" else value <= 0
            if not np.isfinite(value).all() or low.any():
                raise DataError(f"{name} must be finite and {rule}")
            setattr(self, name, value)
        if self.grid is not None:
            h, w = (int(v) for v in self.grid)
            if h < 1 or w < 1:
                raise UsageError("grid dims must be positive")
            if h * w not in (n, n - 1):
                raise UsageError(
                    f"grid {h}x{w} does not cover {n} tokens "
                    "(expected h*w tokens, optionally +1 classification token)"
                )
            self.grid = (h, w)

    @property
    def n_tokens(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def copy(self) -> "TokenSet":
        return TokenSet(
            self.features.copy(),
            None if self.weights is None else self.weights.copy(),
            None if self.counts is None else self.counts.copy(),
            self.grid,
        )


def _weight_array(value, name: str, ndim: int) -> np.ndarray:
    """float32 as given, anything else as float64; ``ndim``-D and finite."""
    arr = np.asarray(value)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != ndim:
        raise UsageError(
            f"{name} must be (heads, dim, head_dim)" if ndim == 3
            else f"{name} must be 2-D, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def check_block_shapes(wq, wk, wv, wo, mlp1, mlp2) -> None:
    """Raise ``UsageError`` unless the shapes make one block: equal (H, M, d)
    projections with H*d = M, an MxM ``wo``, and M -> hidden -> M MLP."""
    if not (wq == wk == wv):
        raise UsageError("wq, wk, wv shapes differ")
    h, m, d = wq
    if h * d != m:
        raise UsageError(f"heads*head_dim {h}*{d} != dim {m}")
    if wo != (m, m):
        raise UsageError(f"wo must be {m}x{m}, got {wo}")
    if mlp1[0] != m or mlp2 != (mlp1[1], m):
        raise UsageError(f"mlp shapes {mlp1} -> {mlp2} do not map {m} -> hidden -> {m}")


@dataclass
class BlockWeights:
    """One block's parameters. Per-head projections are stacked (H, M, d).

    float32 arrays are kept as given (a ``--weights-dir`` load stays at its
    files' size); any other dtype is widened to float64. Each product with
    float64 activations widens its float32 weight exactly, one matmul at a
    time, so the result has the bits of float64-held weights.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    mlp1: np.ndarray
    mlp2: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        for name, ndim in (("wq", 3), ("wk", 3), ("wv", 3), ("wo", 2), ("mlp1", 2), ("mlp2", 2)):
            setattr(self, name, _weight_array(getattr(self, name), name, ndim))
        check_block_shapes(self.wq.shape, self.wk.shape, self.wv.shape,
                           self.wo.shape, self.mlp1.shape, self.mlp2.shape)
        if self.alpha is not None:
            check_finite_positive(self.alpha, "alpha")

    @property
    def heads(self) -> int:
        return self.wq.shape[0]

    @property
    def dim(self) -> int:
        return self.wq.shape[1]


@dataclass
class BlockDetail:
    """Intermediate quantities of one block evaluation, heads on the first axis."""

    maps: np.ndarray          # (H, N, N) row-stochastic attention weights
    head_values: np.ndarray   # (H, N, d) per-head value projections
    head_outputs: np.ndarray  # (H, N, d) per-head attention outputs A_h V_h


def layer_norm(x: np.ndarray) -> np.ndarray:
    """Per-token normalization to zero mean and unit variance."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS)


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU (Hendrycks & Gimpel, arXiv 1606.08415).

    The cube is two multiplies: ``x ** 3`` is one ``pow`` call per element,
    which costs several times the rest of the formula.
    """
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))


def _check_mode(tokens: TokenSet, w: BlockWeights, mode: str) -> None:
    if mode not in MODES:
        raise UsageError(f"unknown attention mode {mode!r}; choose one of {MODES}")
    if tokens.dim != w.dim:
        raise UsageError(f"token dim {tokens.dim} != weight dim {w.dim}")
    if mode == "carry" and tokens.counts is None:
        raise UsageError("carry mode requires token counts")


def _msa_detail(features: np.ndarray, counts, w: BlockWeights, mode: str):
    """All heads as one ``(H, ...)`` batch: the projected output and the detail."""
    h, _, d = w.wq.shape
    # One BLAS product per head, with the operands a per-head loop would use,
    # so the batch reproduces the loop bit for bit. A float32 weight is widened
    # exactly for its own product, so every product is the float64 dgemm.
    q, k = features @ w.wq, features @ w.wk
    if mode == "normalized_alpha":
        qn = np.linalg.norm(q, axis=2, keepdims=True)
        kn = np.linalg.norm(k, axis=2, keepdims=True)
        qn[qn == 0] = 1.0  # a zero row stays zero, as torch's F.normalize leaves it
        kn[kn == 0] = 1.0
        logits = (q / qn) @ (k / kn).transpose(0, 2, 1)
        logits *= 1.0 if w.alpha is None else float(w.alpha)
    else:
        logits = q @ k.transpose(0, 2, 1)
        logits /= np.sqrt(d)
    del q, k  # before the value products, so peak memory stays at the loop's
    maps = kernels.softmax(logits, counts if mode == "carry" else None)
    v = features @ w.wv
    head_out = maps @ v
    joined = head_out.transpose(1, 0, 2).reshape(features.shape[0], h * d)
    return joined @ w.wo, BlockDetail(maps=maps, head_values=v, head_outputs=head_out)


def msa_forward(tokens: TokenSet, w: BlockWeights, mode: str = "standard") -> TokenSet:
    """Multi-head self-attention; token count is unchanged."""
    _check_mode(tokens, w, mode)
    out, _ = _msa_detail(tokens.features, tokens.counts, w, mode)
    return TokenSet(out, tokens.weights, tokens.counts, tokens.grid)


def attention_maps(tokens: TokenSet, w: BlockWeights, mode: str = "standard") -> np.ndarray:
    """The H row-stochastic NxN attention matrices msa_forward uses."""
    _check_mode(tokens, w, mode)
    _, detail = _msa_detail(tokens.features, tokens.counts, w, mode)
    return detail.maps


def block_forward_detailed(
    tokens: TokenSet,
    w: BlockWeights,
    mode: str = "standard",
    norm_and_skip: bool = True,
) -> tuple[TokenSet, BlockDetail]:
    """One transformer block, also returning attention internals."""
    _check_mode(tokens, w, mode)
    x = tokens.features
    msa, detail = _msa_detail(layer_norm(x) if norm_and_skip else x, tokens.counts, w, mode)
    if norm_and_skip:
        x = np.add(x, msa, out=msa)  # in msa's buffer: no extra (N, M) array in the MLP
        x = x + gelu(layer_norm(x) @ w.mlp1) @ w.mlp2
    else:
        x = gelu(msa @ w.mlp1) @ w.mlp2
    return TokenSet(x, tokens.weights, tokens.counts, tokens.grid), detail


def block_forward(
    tokens: TokenSet,
    w: BlockWeights,
    mode: str = "standard",
    norm_and_skip: bool = True,
) -> TokenSet:
    out, _ = block_forward_detailed(tokens, w, mode, norm_and_skip)
    return out


def synth_weights(config: ModelConfig, seed: int) -> list[BlockWeights]:
    """Gaussian(0, 1/sqrt(M)) weights for every block, from one seeded stream.

    Draw order per layer: wq, wk, wv (head-major), wo, mlp1, mlp2.
    """
    rng = Rng(seed)
    m, h, d = config.dim, config.heads, config.head_dim
    hidden = config.mlp_ratio * m
    scale = 1.0 / np.sqrt(m)
    blocks = []
    for _ in range(config.layers):
        blocks.append(
            BlockWeights(
                wq=rng.normal((h, m, d)) * scale,
                wk=rng.normal((h, m, d)) * scale,
                wv=rng.normal((h, m, d)) * scale,
                wo=rng.normal((m, m)) * scale,
                mlp1=rng.normal((m, hidden)) * scale,
                mlp2=rng.normal((hidden, m)) * scale,
                alpha=config.alpha,
            )
        )
    return blocks
