import math

import numpy as np
import pytest

from tokpool.errors import DataError, UsageError
from tokpool.numerics import (
    Rng,
    derive_seed,
    matmul,
    pairwise_sq_dists,
    sample_without_replacement,
    softmax_rows,
)


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows([[0.0, 0.0]])
        np.testing.assert_allclose(out, [[0.5, 0.5]], rtol=0, atol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 6))
        for c in (1.0, -3.5, 42.25):
            np.testing.assert_allclose(
                softmax_rows(m + c), softmax_rows(m), rtol=0, atol=1e-12
            )
        # huge shifts lose logit precision in the addition itself, not in softmax
        np.testing.assert_allclose(
            softmax_rows(m + 1e6), softmax_rows(m), rtol=0, atol=1e-9
        )

    def test_log_integers(self):
        row = [[math.log(1), math.log(2), math.log(3)]]
        np.testing.assert_allclose(
            softmax_rows(row), [[1 / 6, 1 / 3, 1 / 2]], rtol=0, atol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.normal(size=rng.integers(1, 9, size=2)) * rng.uniform(0.1, 50)
            sums = softmax_rows(m).sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)

    def test_leaves_input_unchanged(self):
        m = np.random.default_rng(2).normal(size=(5, 7))
        before = m.copy()
        out = softmax_rows(m)
        np.testing.assert_array_equal(m, before)
        assert not np.shares_memory(out, m)

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            softmax_rows([[0.0, np.nan]])
        with pytest.raises(DataError):
            softmax_rows([[0.0, np.inf]])


class TestPairwiseSqDists:
    def test_equal_rows_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        d2 = pairwise_sq_dists(a, a)
        assert d2[0, 0] == 0.0 and d2[1, 1] == 0.0

    def test_one_dimensional(self):
        d2 = pairwise_sq_dists([[0.0]], [[3.0]])
        assert d2[0, 0] == 9.0

    def test_against_naive_loops(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(3, 4))
        naive = np.empty((7, 3))
        for i in range(7):
            for j in range(3):
                acc = 0.0
                for t in range(4):
                    acc += (a[i, t] - b[j, t]) ** 2
                naive[i, j] = acc
        np.testing.assert_allclose(pairwise_sq_dists(a, b), naive, rtol=0, atol=1e-12)

    def test_symmetry_and_zero_diagonal(self):
        a = np.random.default_rng(3).normal(size=(9, 5))
        d2 = pairwise_sq_dists(a, a)
        np.testing.assert_allclose(d2, d2.T, rtol=0, atol=1e-12)
        assert (np.diag(d2) == 0.0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            pairwise_sq_dists(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(4).normal(size=(3, 3))
        np.testing.assert_array_equal(matmul(a, np.eye(3)), a)

    def test_scalar_case(self):
        np.testing.assert_array_equal(matmul([[2.0]], [[3.0]]), [[6.0]])

    def test_against_naive_loops(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 3))
        naive = np.zeros((5, 3))
        for i in range(5):
            for j in range(3):
                for t in range(4):
                    naive[i, j] += a[i, t] * b[t, j]
        np.testing.assert_allclose(matmul(a, b), naive, rtol=0, atol=1e-12)

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        np.testing.assert_array_equal(matmul(a, b), matmul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_operand_must_be_2d(self):
        with pytest.raises(UsageError, match=r"matmul lhs must be 2-D, got shape \(3,\)"):
            matmul(np.zeros(3), np.zeros((3, 1)))


class TestRng:
    def test_same_seed_same_stream(self):
        np.testing.assert_array_equal(Rng(11).u64(50), Rng(11).u64(50))
        np.testing.assert_array_equal(Rng(11).random(50), Rng(11).random(50))
        np.testing.assert_array_equal(Rng(11).normal(50), Rng(11).normal(50))

    def test_different_seeds_differ(self):
        assert (Rng(1).u64(10) != Rng(2).u64(10)).any()

    def test_normal_shape(self):
        assert Rng(0).normal((3, 4)).shape == (3, 4)
        assert isinstance(Rng(0).normal(), float)

    def test_normal_moments(self):
        draws = Rng(123).normal(200_000)
        assert abs(draws.mean()) < 3.0 / np.sqrt(draws.size)
        assert abs(draws.std() - 1.0) < 0.01

    def test_scalar_u64_is_the_first_of_the_stream(self):
        assert Rng(11).u64() == int(Rng(11).u64(1)[0])

    def test_negative_child_index(self):
        with pytest.raises(UsageError, match="child index must be nonnegative"):
            derive_seed(77, -1)

    def test_spawn_independent(self):
        parent = Rng(77)
        a = parent.spawn(0)
        b = parent.spawn(1)
        assert a.seed != b.seed
        assert a.seed == Rng(77).spawn(0).seed
        assert derive_seed(77, 0) == a.seed


class TestSampleWithoutReplacement:
    def test_full_draw_is_permutation(self):
        idx = sample_without_replacement(Rng(0), 3, 3)
        assert sorted(idx.tolist()) == [0, 1, 2]

    def test_one_hot_probs(self):
        idx = sample_without_replacement(Rng(5), 3, 1, probs=[1.0, 0.0, 0.0])
        assert idx.tolist() == [0]

    def test_skips_zero_mass(self):
        for seed in range(50):
            idx = sample_without_replacement(Rng(seed), 3, 2, probs=[1.0, 0.0, 1.0])
            assert 1 not in idx.tolist()

    @pytest.mark.parametrize("probs, pick", [([0.0, 0.0, 5e-324], 2), ([5e-324, 0.0, 0.0], 0)])
    def test_draw_rounded_up_to_the_total_takes_last_positive_entry(self, probs, pick):
        # the subnormal total times Rng(0)'s first uniform rounds back up to the
        # total, so searchsorted lands one past the last index
        assert Rng(0).random(1)[0] * 5e-324 == 5e-324
        assert sample_without_replacement(Rng(0), 3, 1, probs=probs).tolist() == [pick]

    @pytest.mark.parametrize("n, k, probs, message", [
        (-1, 0, None, "n and k must be nonnegative"),
        (3, -1, None, "n and k must be nonnegative"),
        (3, 1, [1.0, 1.0], "probs must have length 3"),
    ])
    def test_bad_arguments(self, n, k, probs, message):
        with pytest.raises(UsageError, match=message):
            sample_without_replacement(Rng(0), n, k, probs)

    def test_k_greater_than_n(self):
        with pytest.raises(UsageError):
            sample_without_replacement(Rng(0), 2, 3)

    def test_all_zero_probs(self):
        with pytest.raises(DataError):
            sample_without_replacement(Rng(0), 3, 1, probs=[0.0, 0.0, 0.0])

    def test_negative_probs(self):
        with pytest.raises(DataError):
            sample_without_replacement(Rng(0), 2, 1, probs=[0.5, -0.1])

    def test_uniform_frequencies_over_seeds(self):
        # n=4, k=1: each index should land near 25000 over 100k seeds
        counts = np.zeros(4, dtype=np.int64)
        for seed in range(100_000):
            counts[sample_without_replacement(Rng(seed), 4, 1)[0]] += 1
        expected = 25_000.0
        sigma = np.sqrt(100_000 * 0.25 * 0.75)
        assert (np.abs(counts - expected) < 3 * sigma).all(), counts

    def test_one_uniform_per_draw_in_stream_order(self):
        # Same picks and same final state as drawing rng.random() per pick.
        probs = np.arange(40) % 7 + 0.5
        rng = Rng(31)
        idx = sample_without_replacement(rng, 40, 25, probs=probs)
        ref = Rng(31)
        remaining = probs.copy()
        expected = []
        for _ in range(25):
            cum = np.cumsum(remaining)
            pick = int(np.searchsorted(cum, ref.random() * cum[-1], side="right"))
            expected.append(pick)
            remaining[pick] = 0.0
        assert idx.tolist() == expected
        np.testing.assert_array_equal(rng._state, ref._state)

    def test_deterministic_per_seed(self):
        a = sample_without_replacement(Rng(9), 10, 4, probs=np.arange(10) + 1.0)
        b = sample_without_replacement(Rng(9), 10, 4, probs=np.arange(10) + 1.0)
        np.testing.assert_array_equal(a, b)
