"""The distance and medoid kernels against brute-force oracles.

The random-stream kernels are checked against the scalar stepper in
``test_rng.py``.
"""

import numpy as np
import pytest

from tokpool import _kernels
from tokpool.errors import UsageError


def test_pairwise_matches_naive():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(13, 5))
    b = rng.normal(size=(7, 5))
    got = _kernels.pairwise_sq_dists(a, b)
    naive = np.empty((13, 7))
    for i in range(13):
        for j in range(7):
            naive[i, j] = ((a[i] - b[j]) ** 2).sum()
    np.testing.assert_allclose(got, naive, rtol=0, atol=1e-12)


def test_pairwise_identical_rows_exact_zero():
    a = np.random.default_rng(1).normal(size=(6, 4))
    d2 = _kernels.pairwise_sq_dists(a, a)
    assert (np.diag(d2) == 0.0).all()


@pytest.mark.parametrize("seed", range(6))
def test_medoid_update_matches_brute_force(seed):
    # small integer coordinates keep every distance and cost sum exact, so
    # ties are common and the oracle's first strict minimum is the answer
    rng = np.random.default_rng(seed)
    n, k = rng.integers(1, 40), rng.integers(1, 8)
    pts = rng.integers(-3, 4, size=(n, 2)).astype(np.float64)
    labels = rng.integers(0, k, size=n)
    d2 = _kernels.pairwise_sq_dists(pts, pts)
    expected = np.full(k, -1)
    for j in range(k):
        best = np.inf
        for i in range(n):
            if labels[i] != j:
                continue
            cost = sum(d2[i, t] for t in range(n) if labels[t] == j)
            if cost < best:
                best, expected[j] = cost, i
    np.testing.assert_array_equal(_kernels.medoid_update(pts, labels, k), expected)


def test_medoid_update_lowest_index_tie_break():
    # two identical points in one cluster: the lower index must win
    pts = np.array([[0.0], [0.0], [5.0]])
    labels = np.array([0, 0, 1], dtype=np.int64)
    med = _kernels.medoid_update(pts, labels, 2)
    assert med[0] == 0
    assert med[1] == 2


def test_fill_accepts_numpy_integer_sizes():
    a = _kernels.fill_u64(_kernels.seed_state(5), np.int64(2000))
    b = _kernels.fill_u64(_kernels.seed_state(5), 2000)
    np.testing.assert_array_equal(a, b)


def test_backend_record_is_numpy():
    assert _kernels.available_backends() == ("numpy",)
    assert _kernels.get_backend() == "numpy"
    assert _kernels.set_backend("numpy") == "numpy"


def test_set_backend_rejects_unknown():
    for name in ("gpu", "numba"):
        with pytest.raises(UsageError):
            _kernels.set_backend(name)
