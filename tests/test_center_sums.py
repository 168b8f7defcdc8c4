"""k-means center sums against the ``np.add.at`` reference, bit for bit.

``_kernels.cluster_sums`` adds each cluster's weighted rows with one
``np.bincount`` per block of columns. ``np.bincount`` and ``np.add.at`` both
add in index order starting from 0.0, so the two agree exactly, signed zeros
included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool import _kernels


def reference_sums(x, labels, k, weights):
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, labels, weights[:, None] * x)
    return sums


@st.composite
def sum_cases(draw):
    """Rows over a few values with signed zeros, zero weights and empty clusters."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 11))
    k = draw(st.sampled_from([1, 2, 5]))
    vals = st.sampled_from([-0.0, 0.0, 1.0, -2.5, 0.37, 1e-3])
    x = np.array(draw(st.lists(st.lists(vals, min_size=m, max_size=m),
                               min_size=n, max_size=n)))
    # labels below k, so clusters at the top of the range may stay empty
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, 3.0]),
                                     min_size=n, max_size=n)))
    return x, labels, k, weights


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sum_cases(), st.sampled_from([None, 1, 7, 30]))
def test_sums_equal_add_at_bit_for_bit(case, block):
    # a small block splits even a few columns into several blocks; the
    # constant is restored here so every example starts from the real value
    x, labels, k, weights = case
    real = _kernels._BLOCK
    _kernels._BLOCK = block or real
    try:
        got = _kernels.cluster_sums(x, labels, k, weights)
    finally:
        _kernels._BLOCK = real
    assert got.tobytes() == reference_sums(x, labels, k, weights).tobytes()


def test_negative_zero_rows_sum_to_positive_zero():
    x = np.full((3, 4), -0.0)
    got = _kernels.cluster_sums(x, np.array([0, 0, 1]), 3, np.ones(3))
    assert got.tobytes() == np.zeros((3, 4)).tobytes()


@pytest.mark.parametrize("k", [1, 72, 288])
def test_vit_size_sums_equal_add_at(k):
    # 577 x 768 spans several column blocks at the real _BLOCK
    rng = np.random.default_rng(k)
    x = rng.normal(size=(577, 768))
    labels = rng.integers(0, k, size=577)
    weights = rng.uniform(0.0, 2.0, size=577)
    weights[::7] = 0.0
    got = _kernels.cluster_sums(x, labels, k, weights)
    assert got.tobytes() == reference_sums(x, labels, k, weights).tobytes()
