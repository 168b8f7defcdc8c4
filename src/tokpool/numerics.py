"""Dense-matrix helpers, stable softmax, and a reproducible random generator.

The generator is xoshiro256** seeded via splitmix64: the seed starts a
splitmix64 stream whose first four outputs become the 256-bit state. A
64-bit draw maps to a double in [0, 1) as ``(x >> 11) * 2**-53``. Gaussian
draws use the Marsaglia polar method on consecutive uniform pairs (pairs
landing outside the unit disc are discarded; the unused spare of the final
pair is dropped at the end of each fill). Integer and uniform streams are
bit-identical across platforms; Gaussian draws additionally depend on the
platform's ``log``/``sqrt``. Fills are vectorized (jump-ahead lanes, see
``_kernels``) and reproduce the one-draw-at-a-time stream exactly; Gaussian
fills keep ``math.log`` for that.
"""

from __future__ import annotations

import numpy as np

from . import _kernels as kernels
from .errors import DataError, UsageError

__all__ = [
    "Rng",
    "as_matrix",
    "derive_seed",
    "matmul",
    "pairwise_sq_dists",
    "sample_without_replacement",
    "softmax_rows",
]


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite entries")
    return arr


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction; ``m`` is left unchanged."""
    # as_matrix may return the caller's own array; the kernel works in place
    return kernels.softmax(as_matrix(m, "softmax input").copy())


def pairwise_sq_dists(a, b) -> np.ndarray:
    """All squared Euclidean distances between rows of ``a`` and rows of ``b``."""
    a = as_matrix(a, "pairwise lhs")
    b = as_matrix(b, "pairwise rhs")
    if a.shape[1] != b.shape[1]:
        raise DataError(
            f"pairwise feature dims differ: {a.shape[1]} vs {b.shape[1]}"
        )
    return kernels.pairwise_sq_dists(a, b)


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a, "matmul lhs")
    b = as_matrix(b, "matmul rhs")
    if a.shape[1] != b.shape[0]:
        raise DataError(
            f"matmul inner dims differ: {a.shape} x {b.shape}"
        )
    return a @ b


def derive_seed(seed: int, index: int) -> int:
    """Child seed ``index``: output ``index + 1`` of the seed's splitmix64 stream."""
    if index < 0:
        raise UsageError("child index must be nonnegative")
    x = (int(seed) + index * kernels._GAMMA) & kernels._MASK
    _, out = kernels.splitmix64(x)
    return out


class Rng:
    """Deterministic xoshiro256** stream. Same seed, same draws, anywhere."""

    def __init__(self, seed: int):
        self.seed = int(seed) & ((1 << 64) - 1)
        self._state = kernels.seed_state(self.seed)

    def u64(self, n: int | None = None):
        if n is None:
            return int(kernels.fill_u64(self._state, 1)[0])
        return kernels.fill_u64(self._state, n)

    def random(self, n: int | None = None):
        """Uniform doubles in [0, 1)."""
        if n is None:
            return float(kernels.fill_uniform(self._state, 1)[0])
        return kernels.fill_uniform(self._state, n)

    def normal(self, size=None) -> np.ndarray | float:
        """Standard Gaussian draws (Marsaglia polar method)."""
        if size is None:
            return float(kernels.fill_normal(self._state, 1)[0])
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        return kernels.fill_normal(self._state, n).reshape(shape)

    def spawn(self, index: int) -> "Rng":
        """Child generator with an independently derived seed."""
        return Rng(derive_seed(self.seed, index))


def sample_without_replacement(rng: Rng, n: int, k: int, probs=None) -> np.ndarray:
    """Draw ``k`` distinct indices from ``range(n)``.

    Sequential draws renormalize the remaining mass after each pick
    (Plackett-Luce order); uniform when ``probs`` is omitted. Once the
    positive mass is spent, the remaining undrawn indices are drawn
    uniformly. The ``k`` uniform doubles, one per draw, are taken in one fill
    after the arguments are checked, so a call that returns advances the
    generator by exactly ``k`` draws.
    """
    n = int(n)
    k = int(k)
    if k < 0 or n < 0:
        raise UsageError("n and k must be nonnegative")
    if k > n:
        raise UsageError(f"cannot draw {k} distinct indices from {n}")
    if probs is None:
        remaining = np.ones(n, dtype=np.float64)
    else:
        remaining = np.asarray(probs, dtype=np.float64).copy()
        if remaining.shape != (n,):
            raise UsageError(f"probs must have length {n}")
        if not np.isfinite(remaining).all() or (remaining < 0).any():
            raise DataError("probs must be finite and nonnegative")
        if remaining.sum() <= 0.0:
            raise DataError("probs sum to zero")
    out = np.empty(k, dtype=np.int64)
    uniforms = rng.random(k)
    for i in range(k):
        cum = np.cumsum(remaining)
        if cum[-1] <= 0.0:  # positive mass spent: draw the undrawn uniformly
            remaining = np.ones(n, dtype=np.float64)
            remaining[out[:i]] = 0.0
            cum = np.cumsum(remaining)
        r = uniforms[i] * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx >= n:  # r rounded up to total: take the last positive-mass entry
            idx = int(np.flatnonzero(remaining)[-1])
        out[i] = idx
        remaining[idx] = 0.0
    return out
