"""Forward-only transformer block over token sets.

Blocks are pre-norm with residual connections (the usual DeiT layout);
``norm_and_skip=False`` evaluates the bare MLP(MSA(x)) composition instead,
which is what the unit oracles check. Attention modes:

``standard``          logits = Q K^T / sqrt(d)
``normalized_alpha``  rows of Q and K scaled to unit L2 norm, logits = alpha * Q K^T
``carry``             softmax numerator and denominator of key i scaled by count c_i
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .costmodel import MODES, ModelConfig
from .errors import DataError, UsageError
from .numerics import Rng, as_matrix

LN_EPS = 1e-6


@dataclass
class TokenSet:
    """N tokens of dimension M, with optional per-token weights, carry
    multiplicities, and a spatial grid for the non-classification tokens."""

    features: np.ndarray
    weights: np.ndarray | None = None
    counts: np.ndarray | None = None
    grid: tuple[int, int] | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features, "token features")
        n = self.features.shape[0]
        if n < 1:
            raise UsageError("a token set needs at least one token")
        for name in ("weights", "counts"):
            value = getattr(self, name)
            if value is None:
                continue
            value = np.asarray(value, dtype=np.float64).reshape(-1)
            if value.shape[0] != n:
                raise UsageError(f"{name} length {value.shape[0]} != {n} tokens")
            if not np.isfinite(value).all() or (value <= 0).any():
                raise DataError(f"{name} must be finite and positive")
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


@dataclass
class BlockWeights:
    """One block's parameters. Per-head projections are stacked (H, M, d)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    mlp1: np.ndarray
    mlp2: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        for name in ("wq", "wk", "wv"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 3:
                raise UsageError(f"{name} must be (heads, dim, head_dim)")
            setattr(self, name, arr)
        if not (self.wq.shape == self.wk.shape == self.wv.shape):
            raise UsageError("wq, wk, wv shapes differ")
        h, m, d = self.wq.shape
        if h * d != m:
            raise UsageError(f"heads*head_dim {h}*{d} != dim {m}")
        self.wo = as_matrix(self.wo, "wo")
        self.mlp1 = as_matrix(self.mlp1, "mlp1")
        self.mlp2 = as_matrix(self.mlp2, "mlp2")
        if self.wo.shape != (m, m):
            raise UsageError(f"wo must be {m}x{m}, got {self.wo.shape}")
        if self.mlp1.shape[0] != m or self.mlp2.shape != (self.mlp1.shape[1], m):
            raise UsageError(
                f"mlp shapes {self.mlp1.shape} -> {self.mlp2.shape} do not map "
                f"{m} -> hidden -> {m}"
            )
        if self.alpha is not None and not 0 < self.alpha <= sys.float_info.max:
            raise UsageError("alpha must be finite and positive")

    @property
    def heads(self) -> int:
        return self.wq.shape[0]

    @property
    def dim(self) -> int:
        return self.wq.shape[1]


@dataclass
class BlockDetail:
    """Intermediate quantities of one block evaluation."""

    maps: np.ndarray          # (H, N, N) row-stochastic attention weights
    head_values: np.ndarray   # (H, N, d) per-head value projections
    head_outputs: np.ndarray  # (H, N, d) per-head attention outputs A_h V_h


def layer_norm(x: np.ndarray, scale=None, shift=None, eps: float = LN_EPS) -> np.ndarray:
    """Per-token normalization; scale/shift default to 1/0."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    out = (x - mean) / np.sqrt(var + eps)
    if scale is not None:
        out = out * np.asarray(scale, dtype=np.float64)
    if shift is not None:
        out = out + np.asarray(shift, dtype=np.float64)
    return out


def gelu(x: np.ndarray) -> np.ndarray:
    """tanh-form GELU."""
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _check_mode(tokens: TokenSet, w: BlockWeights, mode: str) -> None:
    if mode not in MODES:
        raise UsageError(f"unknown attention mode {mode!r}; choose one of {MODES}")
    if tokens.dim != w.dim:
        raise UsageError(f"token dim {tokens.dim} != weight dim {w.dim}")
    if mode == "carry" and tokens.counts is None:
        raise UsageError("carry mode requires token counts")


def _msa_detail(features: np.ndarray, counts, w: BlockWeights, mode: str):
    n = features.shape[0]
    h, _, d = w.wq.shape
    maps = np.empty((h, n, n))
    values = np.empty((h, n, d))
    head_out = np.empty((h, n, d))
    for i in range(h):
        q = features @ w.wq[i]
        k = features @ w.wk[i]
        v = features @ w.wv[i]
        if mode == "normalized_alpha":
            alpha = 1.0 if w.alpha is None else float(w.alpha)
            qn = np.linalg.norm(q, axis=1, keepdims=True)
            kn = np.linalg.norm(k, axis=1, keepdims=True)
            if (qn == 0).any() or (kn == 0).any():
                raise DataError("cannot normalize a zero query/key row")
            logits = alpha * ((q / qn) @ (k / kn).T)
        else:
            logits = (q @ k.T) / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        if mode == "carry":
            e = e * counts[None, :]
        a = e / e.sum(axis=1, keepdims=True)
        maps[i] = a
        values[i] = v
        head_out[i] = a @ v
    return maps, values, head_out


def msa_forward(tokens: TokenSet, w: BlockWeights, mode: str = "standard") -> TokenSet:
    """Multi-head self-attention; token count is unchanged."""
    _check_mode(tokens, w, mode)
    _, _, head_out = _msa_detail(tokens.features, tokens.counts, w, mode)
    concat = np.concatenate(list(head_out), axis=1)
    return TokenSet(concat @ w.wo, tokens.weights, tokens.counts, tokens.grid)


def attention_maps(tokens: TokenSet, w: BlockWeights, mode: str = "standard") -> np.ndarray:
    """The H row-stochastic NxN attention matrices msa_forward uses."""
    _check_mode(tokens, w, mode)
    maps, _, _ = _msa_detail(tokens.features, tokens.counts, w, mode)
    return maps


def block_forward_detailed(
    tokens: TokenSet,
    w: BlockWeights,
    mode: str = "standard",
    norm_and_skip: bool = True,
) -> tuple[TokenSet, BlockDetail]:
    """One transformer block, also returning attention internals."""
    _check_mode(tokens, w, mode)
    x = tokens.features
    if norm_and_skip:
        maps, values, head_out = _msa_detail(layer_norm(x), tokens.counts, w, mode)
        x = x + np.concatenate(list(head_out), axis=1) @ w.wo
        hidden = gelu(layer_norm(x) @ w.mlp1)
        x = x + hidden @ w.mlp2
    else:
        maps, values, head_out = _msa_detail(x, tokens.counts, w, mode)
        msa = np.concatenate(list(head_out), axis=1) @ w.wo
        x = gelu(msa @ w.mlp1) @ w.mlp2
    out = TokenSet(x, tokens.weights, tokens.counts, tokens.grid)
    return out, BlockDetail(maps=maps, head_values=values, head_outputs=head_out)


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
                alpha=config.alpha if config.alpha is not None else 1.0,
            )
        )
    return blocks
