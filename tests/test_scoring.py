import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool.errors import DataError, UsageError
from tokpool.scoring import significance


def random_maps(heads, n, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(heads, n, n))
    e = np.exp(logits)
    return e / e.sum(axis=2, keepdims=True)


def test_uniform_maps():
    maps = np.full((2, 3, 3), 1.0 / 3.0)
    np.testing.assert_allclose(significance(maps), [2.0, 2.0, 2.0], rtol=0, atol=1e-12)


def test_identity_map():
    maps = np.eye(4)[None, :, :]
    np.testing.assert_array_equal(significance(maps), np.ones(4))


def test_matches_column_sum_oracle():
    maps = random_maps(3, 6, seed=0)
    oracle = np.zeros(6)
    for h in range(3):
        for col in range(6):
            for row in range(6):
                oracle[col] += maps[h, row, col]
    np.testing.assert_allclose(significance(maps), oracle, rtol=0, atol=1e-12)


def test_total_mass_is_heads_times_tokens():
    for seed in range(10):
        h = 1 + seed % 4
        n = 2 + seed
        s = significance(random_maps(h, n, seed))
        assert abs(s.sum() - h * n) < 1e-9
        assert (s >= 0).all()


def test_permutation_equivariance():
    maps = random_maps(2, 5, seed=3)
    perm = np.array([3, 0, 4, 1, 2])
    permuted = maps[:, perm][:, :, perm]
    np.testing.assert_allclose(
        significance(permuted), significance(maps)[perm], rtol=0, atol=1e-12
    )


def test_rejects_non_stochastic():
    maps = np.full((1, 3, 3), 0.5)
    with pytest.raises(DataError):
        significance(maps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.25], ids=["nan", "inf", "negative"])
def test_rejects_non_finite_or_negative_maps(bad):
    maps = np.full((2, 3, 3), 1.0 / 3.0)
    maps[1, 2, 0] = bad
    message = "negative entries" if bad < 0 else "non-finite entries"
    with pytest.raises(DataError, match=message):
        significance(maps)


def test_rejects_bad_shape():
    with pytest.raises(UsageError):
        significance(np.zeros((2, 3, 4)))


@pytest.mark.parametrize("shape", [(2, 0, 0), (0, 3, 3), (0, 0, 0)])
def test_no_head_or_no_token_is_data_error(shape):
    with pytest.raises(DataError) as err:
        significance(np.zeros(shape, dtype=np.float32))
    assert str(err.value) == (
        f"attention maps need at least one head and one token, got {shape}")


def float32_maps(heads, n, rng, peak=1, zeros=0.0):
    """Row-stochastic maps, normalized in float64 and then rounded to float32,
    so each row sums to 1 within 2**-24. ``peak`` > 1 concentrates the mass;
    ``zeros`` is the share of entries set to zero (the diagonal is kept)."""
    mass = rng.random((heads, n, n)) ** peak
    mass[rng.random((heads, n, n)) < zeros] = 0.0
    mass += np.eye(n) * 1e-3
    return (mass / mass.sum(axis=2, keepdims=True)).astype(np.float32)


@st.composite
def float32_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return float32_maps(
        draw(st.integers(1, 16)), draw(st.integers(1, 48)), rng,
        peak=draw(st.sampled_from([1, 8])), zeros=draw(st.sampled_from([0.0, 0.5])),
    )


def assert_same_scores(maps):
    got = significance(maps)
    assert got.dtype == np.float64
    assert got.tobytes() == significance(maps.astype(np.float64)).tobytes()


@settings(max_examples=200, deadline=None)
@given(float32_cases())
def test_float32_maps_score_as_their_float64_widening(maps):
    assert_same_scores(maps)


def test_float32_maps_at_vit_size_score_as_their_float64_widening():
    assert_same_scores(float32_maps(12, 577, np.random.default_rng(6)))


def _mutate(maps, entries):
    for index, value in entries.items():
        maps[index] = value
    return maps


_ROWS = "attention rows are not stochastic (max |row sum - 1| = 1.667e-01)"


@pytest.mark.parametrize("entries, message", [
    ({(1, 2, 0): np.nan}, "attention maps contain non-finite entries"),
    ({(1, 2, 0): np.inf}, "attention maps contain non-finite entries"),
    ({(1, 2, 0): -np.inf}, "attention maps contain non-finite entries"),
    ({(0, 0, 0): -0.25, (1, 2, 1): np.nan}, "attention maps contain non-finite entries"),
    ({(0, 1, 1): 0.5, (1, 2, 0): np.inf}, "attention maps contain non-finite entries"),
    ({(1, 2, 0): -0.25}, "attention maps contain negative entries"),
    ({(0, 1, 1): 0.5, (1, 2, 0): -0.25}, "attention maps contain negative entries"),
    ({(0, 1, 1): 0.5}, _ROWS),
], ids=["nan", "+inf", "-inf", "nan-over-negative", "inf-over-rows", "negative",
        "negative-over-rows", "rows"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_failures_keep_their_message_and_priority(entries, message, dtype):
    # non-finite first, then negative, then rows that are not stochastic
    maps = _mutate(np.full((2, 3, 3), 1.0 / 3.0, dtype=dtype), entries)
    with pytest.raises(DataError) as err:
        significance(maps)
    assert str(err.value) == message


@pytest.mark.parametrize("maps, want", [
    ([[[0.5, 0.5], [0.25, 0.75]]], [0.75, 1.25]),
    ([[[0, 1], [1, 0]]], [1.0, 1.0]),
    (np.eye(4, dtype=np.int64)[None], [1.0] * 4),
    (np.stack([np.eye(3, dtype=np.int32)] * 2), [2.0] * 3),
    (np.eye(3, dtype=np.int8)[None][:, [2, 0, 1]], [1.0] * 3),
], ids=["float-list", "int-list", "int64", "int32-two-heads", "int8-permutation"])
def test_lists_and_integer_maps_score_as_float64(maps, want):
    got = significance(maps)
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()


def test_negative_integer_maps_rejected():
    with pytest.raises(DataError, match="negative entries"):
        significance(np.array([[[2, -1], [0, 1]]]))


def test_float32_maps_are_not_copied():
    # a float64 copy of 12 x 577 x 577 maps is 32 MB; the boolean check
    # temporaries are 4 MB each and live one at a time
    maps = float32_maps(12, 577, np.random.default_rng(7))
    tracemalloc.start()
    try:
        significance(maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_finite_entries_overflowing_a_row_sum_are_not_stochastic():
    # every entry is finite, but the float64 row sum overflows to inf
    maps = np.full((1, 2, 2), 1e308)
    with np.errstate(over="ignore"), pytest.raises(DataError) as err:
        significance(maps)
    assert str(err.value) == "attention rows are not stochastic (max |row sum - 1| = inf)"
