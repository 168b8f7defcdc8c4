"""Numerical check that softmax attention over unit-norm keys and queries
equals Gaussian-kernel smoothing of the value signal sampled at the keys.

With ||q|| = ||k_i|| = 1,

    exp(alpha * q . k_i)  =  exp(alpha) * exp(-(alpha/2) * ||q - k_i||^2),

and the constant exp(alpha) cancels in the softmax normalization, so the two
evaluation routes agree exactly up to floating-point rounding. Without the
norm constraint they generally disagree, which the verifier demonstrates.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DataError, UsageError
from .numerics import Rng, as_matrix

NORM_TOL = 1e-9


def _softmax_weighted(logits: np.ndarray, values: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)) @ values


def _attention_on(queries, keys, values, alpha) -> np.ndarray:
    return _softmax_weighted(alpha * (queries @ keys.T), values)


def _filter_on(queries, keys, values, alpha) -> np.ndarray:
    d2 = _kernels.pairwise_sq_dists(queries, keys)
    return _softmax_weighted(-(alpha / 2.0) * d2, values)


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
        if not 0 < self.alpha <= sys.float_info.max:
            raise UsageError("alpha must be finite and positive")
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
    n: int
    m: int
    alpha: float
    seed: int
    tol: float
    unit_norm: bool
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
    if not 0 < tol <= sys.float_info.max:
        raise UsageError("tol must be finite and positive")
    if not 0 < alpha <= sys.float_info.max:
        raise UsageError("alpha must be finite and positive")
    q, k, v = _random_probe_arrays(n, m, seed, unit_norm)
    dev = float(np.abs(_attention_on(q, k, v, alpha) - _filter_on(q, k, v, alpha)).max())
    return VerifyReport(
        n=int(n),
        m=int(m),
        alpha=float(alpha),
        seed=int(seed),
        tol=float(tol),
        unit_norm=bool(unit_norm),
        max_abs_dev=dev,
        passed=dev < tol,
    )
