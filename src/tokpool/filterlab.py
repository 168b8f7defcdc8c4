"""Numerical check that softmax attention over unit-norm keys and queries
equals Gaussian-kernel smoothing of the value signal sampled at the keys.

With ||q|| = ||k_i|| = 1,

    exp(alpha * q . k_i)  =  exp(alpha) * exp(-(alpha/2) * ||q - k_i||^2),

and the constant exp(alpha) cancels in the softmax normalization, so the two
evaluation routes agree exactly up to floating-point rounding. Without the
norm constraint they generally disagree, which the verifier demonstrates.
Both routes use the block's softmax kernel. A seeded probe with n * max(n, m)
above ``MAX_PROBE_ELEMENTS`` is a usage error, raised before any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError, UsageError, check_finite_positive
from .numerics import Rng, as_matrix

NORM_TOL = 1e-9

# Largest n x max(n, m) probe array: 2 GiB of float64. A run's traced peak is
# 7.1-7.6x one such array at n = m and 2.1-2.3x at n >> m (measured from
# 1024 x 1024 to 4096 x 64), and its time grows as n^2 * m.
MAX_PROBE_ELEMENTS = 2 ** 28


# At large alpha, logits and their max-shifted values overflow to -inf on
# purpose: those weights are exact zeros, so the overflow warnings are noise.
def _attention_on(queries, keys, values, alpha) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _kernels.softmax(alpha * (queries @ keys.T)) @ values


def _filter_on(queries, keys, values, alpha) -> np.ndarray:
    d2 = _kernels.pairwise_sq_dists(queries, keys)
    # A per-row shift leaves the softmax unchanged; shifting by the row's
    # least distance gives its nearest key logit 0, so no row is all -inf.
    d2 -= d2.min(axis=1, keepdims=True)
    with np.errstate(over="ignore"):
        return _kernels.softmax(-(alpha / 2.0) * d2) @ values


@dataclass
class FilterProbe:
    """Unit-norm queries and keys, values, and the sharpness scalar alpha."""

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    alpha: float

    def __post_init__(self):
        self.queries = as_matrix(self.queries, "queries")
        self.keys = as_matrix(self.keys, "keys")
        self.values = as_matrix(self.values, "values")
        if self.queries.shape[1] != self.keys.shape[1]:
            raise UsageError("query and key dims differ")
        if self.keys.shape[0] != self.values.shape[0]:
            raise UsageError("need one value row per key row")
        check_finite_positive(self.alpha, "alpha")
        for name in ("queries", "keys"):
            norms = np.linalg.norm(getattr(self, name), axis=1)
            err = np.abs(norms - 1.0).max()
            if err > NORM_TOL:
                raise DataError(
                    f"{name} rows are not unit-norm (max |norm - 1| = {err:.3e})"
                )

    @classmethod
    def random(cls, n: int, m: int, alpha: float, seed: int) -> "FilterProbe":
        """Seeded probe with unit-norm Gaussian-direction queries and keys."""
        q, k, v = _random_probe_arrays(n, m, seed, unit_norm=True)
        return cls(q, k, v, alpha)


def _random_probe_arrays(n: int, m: int, seed: int, unit_norm: bool):
    if n < 1 or m < 1:
        raise UsageError("n and m must be >= 1")
    if n * max(n, m) > MAX_PROBE_ELEMENTS:
        raise UsageError(f"probe n*max(n, m) exceeds {MAX_PROBE_ELEMENTS} elements")
    rng = Rng(seed)
    q = rng.normal((n, m))
    k = rng.normal((n, m))
    v = rng.normal((n, m))
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    kn = np.linalg.norm(k, axis=1, keepdims=True)
    q = q / qn
    k = k / kn
    if not unit_norm:
        # stretch rows to norms in [0.5, 2): breaks the filter identity
        q = q * (0.5 + 1.5 * rng.random(n))[:, None]
        k = k * (0.5 + 1.5 * rng.random(n))[:, None]
    return q, k, v


def attention_form(p: FilterProbe) -> np.ndarray:
    """Softmax-attention output rows o(q) = sum_i softmax(alpha q.k)_i v_i."""
    return _attention_on(p.queries, p.keys, p.values, p.alpha)


def filter_form(p: FilterProbe) -> np.ndarray:
    """Gaussian-kernel smoothing of the value signal evaluated at the queries."""
    return _filter_on(p.queries, p.keys, p.values, p.alpha)


@dataclass
class VerifyReport:
    max_abs_dev: float
    passed: bool


def verify_equivalence(
    n: int,
    m: int,
    alpha: float,
    seed: int,
    tol: float = 1e-9,
    unit_norm: bool = True,
) -> VerifyReport:
    """Evaluate both routes on a seeded random probe and compare."""
    check_finite_positive(tol, "tol")
    check_finite_positive(alpha, "alpha")
    q, k, v = _random_probe_arrays(n, m, seed, unit_norm)
    dev = float(np.abs(_attention_on(q, k, v, alpha) - _filter_on(q, k, v, alpha)).max())
    return VerifyReport(max_abs_dev=dev, passed=dev < tol)
