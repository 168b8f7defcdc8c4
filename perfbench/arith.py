"""The benchmark's own arithmetic: percentiles, failure accounting, span
self time and the independent pooling-loss recomputation.

Everything here is pure and deterministic so that ``test_arith.py`` can pin
it down without running the program.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# The program computes its loss with float64 centers, but the pooled file
# stores them as float32. Rounding a center coordinate moves it by at most
# 2**-24 of its magnitude, which changes a squared distance of these token
# magnitudes (O(1) values, M <= 768) by far less than 1e-5 of itself.
LOSS_RTOL = 1e-5
LOSS_ATOL = 1e-9

# Candidate tail percentiles, highest first.
_TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def _rank(p: float, n: int) -> int:
    # round first so that 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile that leaves at least ten samples beyond it.

    With the nearest-rank rule, percentile p of n samples has
    ``n - rank`` samples strictly after it in sorted order.
    """
    for p in _TAIL_CANDIDATES:
        if n - _rank(p, n) >= 10:
            return p
    return None


def latency_summary(latencies, ok_flags) -> dict:
    """Median and tail over every attempted op; a failed op counts as infinitely slow."""
    values = [t if ok else math.inf for t, ok in zip(latencies, ok_flags)]
    out = {"samples": len(values), "p50": None, "tail_p": None, "tail": None}
    if not values:
        return out
    p50 = statistics.median(values)
    out["p50"] = p50 if math.isfinite(p50) else None
    tail_p = tail_percentile(len(values))
    if tail_p is not None:
        tail = percentile(values, tail_p)
        out["tail_p"] = tail_p
        out["tail"] = tail if math.isfinite(tail) else None
    return out


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed ops over attempted ops; an op that never ran is not attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    ``spans`` are dicts with ``start``, ``end`` and ``parent`` (an index into
    the same list, or None).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(lo, s["start"]), min(hi, s["end"]))
            for lo, hi in children.get(i, ())
            if hi > s["start"] and lo < s["end"]
        ]
        out.append((s["end"] - s["start"]) - union_length(clipped))
    return out


def sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances by norm expansion; a cross-check, not the program's kernel."""
    d = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d, 0.0)


def recompute_loss(feats, centers, assignment, weights=None) -> tuple[float, float]:
    """Pooling loss rebuilt from files: (by the recorded assignment, by nearest center).

    Both should equal ``sum_i w_i * min_j ||f_i - c_j||^2``; the first uses the
    assignment the program recorded, the second finds the nearest center anew.
    """
    feats = np.asarray(feats, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    w = np.ones(feats.shape[0]) if weights is None else np.asarray(weights, dtype=np.float64)
    diff = feats - centers[assignment]
    by_assignment = float((w * np.einsum("ij,ij->i", diff, diff)).sum())
    nearest = float((w * sq_dists(feats, centers).min(axis=1)).sum())
    return by_assignment, nearest


def loss_agrees(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= LOSS_ATOL + LOSS_RTOL * abs(reported)
