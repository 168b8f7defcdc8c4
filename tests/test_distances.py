"""Exactness of the distance kernels.

``nearest_sq_dists`` screens with a BLAS product and confirms by difference;
its labels and distances must equal the argmin and min of the full matrix bit
for bit. The self-distance matrix must be exactly symmetric with a zero
diagonal, and equal to the matrix against a copy of the same rows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool import _kernels

KINDS = ("float", "ties", "padding", "identical", "offset", "out-of-range")


def full_nearest(a, b):
    d2 = _kernels.pairwise_sq_dists(a, b)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(a.shape[0]), labels]


@st.composite
def point_sets(draw):
    """Two row sets of one kind; small integers keep shrinking readable."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    m = draw(st.integers(1, 9))
    ints = st.integers(-3, 3)
    a = np.array(draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                               min_size=n, max_size=n)), dtype=np.float64)
    b = np.array(draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                               min_size=k, max_size=k)), dtype=np.float64)
    if kind == "float":
        a = a * 0.37 + draw(st.floats(-1.0, 1.0))
        b = b * 0.29 - 0.1
    elif kind == "padding":
        # a tail of identical padding rows, and centers that copy some of them
        pad = draw(st.integers(1, n))
        a[n - pad:] = a[-1]
        b[: draw(st.integers(1, k))] = a[-1]
    elif kind == "identical":
        a[:] = a[0]
        b[:] = a[0]
    elif kind == "offset":
        a = 1e3 + 1e-3 * a
        b = 1e3 + 1e-3 * b
    elif kind == "out-of-range":
        scale = 2.0 ** draw(st.sampled_from([-460, 450]))
        a = a * scale
        b = b * scale
    return kind, a, b


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_nearest_equals_full_argmin_bit_for_bit(case):
    _, a, b = case
    labels, mins = _kernels.nearest_sq_dists(a, b)
    ref_labels, ref_mins = full_nearest(a, b)
    np.testing.assert_array_equal(labels, ref_labels)
    assert mins.tobytes() == ref_mins.tobytes()


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_self_distance_matrix_exact(case):
    _, a, _ = case
    d2 = _kernels.pairwise_sq_dists(a, a)
    assert (d2 == d2.T).all()
    assert (np.diag(d2) == 0.0).all()
    assert d2.tobytes() == _kernels.pairwise_sq_dists(a, a.copy()).tobytes()


@pytest.mark.parametrize("shape", [(1, 5, 3), (7, 1, 3), (1, 1, 4), (600, 300, 17)])
def test_nearest_edge_shapes(shape):
    n, k, m = shape
    rng = np.random.default_rng(n + k + m)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(k, m))
    labels, mins = _kernels.nearest_sq_dists(a, b)
    ref_labels, ref_mins = full_nearest(a, b)
    np.testing.assert_array_equal(labels, ref_labels)
    assert mins.tobytes() == ref_mins.tobytes()


def test_screen_path_skips_full_matrix(monkeypatch):
    def refuse(a, b):
        raise AssertionError("full matrix computed")

    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 6))
    b = a[::4].copy()
    expected = full_nearest(a, b)
    monkeypatch.setattr(_kernels, "pairwise_sq_dists", refuse)
    labels, _ = _kernels.nearest_sq_dists(a, b)
    np.testing.assert_array_equal(labels, expected[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0 ** 401, 2.0 ** -401])
def test_out_of_range_input_takes_full_matrix(monkeypatch, bad):
    calls = []
    full = _kernels.pairwise_sq_dists

    def counted(a, b):
        calls.append(1)
        return full(a, b)

    a = np.ones((4, 3))
    a[2, 1] = bad
    monkeypatch.setattr(_kernels, "pairwise_sq_dists", counted)
    _kernels.nearest_sq_dists(a, np.zeros((2, 3)))
    assert calls == [1]


def test_all_candidates_stay_memory_bounded():
    # identical tokens keep every one of the 1500 x 1500 pairs in the screen;
    # confirming them in one piece would need 1500 * 1500 * 64 doubles (1.2 GB)
    a = np.full((1500, 64), 0.5)
    tracemalloc.start()
    try:
        labels, mins = _kernels.nearest_sq_dists(a, a.copy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (labels == 0).all() and (mins == 0.0).all()
    assert peak < 150e6
