"""Significance scores: total attention mass received per token."""

from __future__ import annotations

import numpy as np

from .errors import DataError, UsageError

ROW_SUM_TOL = 1e-6


def significance(maps) -> np.ndarray:
    """Per-token score s_i: column sums of every head's attention map.

    Each of the H maps is row-stochastic, so the scores are nonnegative and
    sum to H*N. The maps are checked and summed as given, with float64
    accumulators, so float32 maps are never copied.
    """
    maps = np.asarray(maps)
    if maps.ndim != 3 or maps.shape[1] != maps.shape[2]:
        raise UsageError(f"attention maps must be (H, N, N), got {maps.shape}")
    if maps.size == 0:
        raise DataError(f"attention maps need at least one head and one token, got {maps.shape}")
    if not np.isfinite(maps).all():
        raise DataError("attention maps contain non-finite entries")
    if (maps < 0).any():
        raise DataError("attention maps contain negative entries")
    row_err = np.abs(maps.sum(axis=2, dtype=np.float64) - 1.0).max()
    if row_err > ROW_SUM_TOL:
        raise DataError(
            f"attention rows are not stochastic (max |row sum - 1| = {row_err:.3e})"
        )
    return maps.sum(axis=(0, 1), dtype=np.float64)
