import math
import tracemalloc

import numpy as np
import pytest

from tokpool import filterlab
from tokpool.errors import DataError, UsageError
from tokpool.filterlab import FilterProbe, attention_form, filter_form, verify_equivalence


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def make_probe(n, m, alpha, seed):
    rng = np.random.default_rng(seed)
    return FilterProbe(
        queries=unit_rows(rng.normal(size=(n, m))),
        keys=unit_rows(rng.normal(size=(n, m))),
        values=rng.normal(size=(n, m)),
        alpha=alpha,
    )


class TestTrivialCases:
    def test_single_key_returns_its_value(self):
        k = unit_rows(np.random.default_rng(0).normal(size=(1, 4)))
        p = FilterProbe(queries=k.copy(), keys=k, values=np.array([[3.0, -1.0, 2.0, 0.5]]), alpha=2.0)
        np.testing.assert_array_equal(attention_form(p), p.values)
        np.testing.assert_array_equal(filter_form(p), p.values)

    def test_equidistant_keys_average_values(self):
        # q = e1; keys e2 and e3 are equidistant from it
        q = np.array([[1.0, 0.0, 0.0]])
        k = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        v = np.array([[2.0, 4.0], [6.0, 8.0]])
        p = FilterProbe(queries=q, keys=k, values=v, alpha=1.7)
        np.testing.assert_allclose(attention_form(p), [[4.0, 6.0]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(filter_form(p), [[4.0, 6.0]], rtol=0, atol=1e-12)

    def test_outputs_in_value_hull(self):
        p = make_probe(12, 6, 3.0, seed=1)
        for out in (attention_form(p), filter_form(p)):
            assert (out >= p.values.min(axis=0) - 1e-12).all()
            assert (out <= p.values.max(axis=0) + 1e-12).all()


class TestEquivalence:
    def test_forms_agree_on_unit_probe(self):
        p = make_probe(16, 8, 3.0, seed=2)
        dev = np.abs(attention_form(p) - filter_form(p)).max()
        assert dev < 1e-10

    def test_verify_pass(self):
        report = verify_equivalence(16, 8, 3.0, seed=7, tol=1e-9)
        assert report.passed
        assert report.max_abs_dev < 1e-9

    def test_verify_counterexample_without_norms(self):
        report = verify_equivalence(16, 8, 3.0, seed=7, tol=1e-9, unit_norm=False)
        assert not report.passed
        assert report.max_abs_dev > 1e-3

    def test_single_point_exact(self):
        report = verify_equivalence(1, 4, 2.0, seed=3)
        assert report.max_abs_dev == 0.0

    def test_many_seeds_alphas(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for trial in range(30):
            n = int(rng.integers(2, 65))
            m = int(rng.integers(2, 33))
            alpha = float(rng.uniform(0.1, 10.0))
            report = verify_equivalence(n, m, alpha, seed=trial)
            worst = max(worst, report.max_abs_dev)
        assert worst < 1e-9


class TestLowPassBehavior:
    def test_alpha_to_zero_gives_value_mean(self):
        p = make_probe(20, 8, 1e-8, seed=5)
        out = attention_form(p)
        mean = p.values.mean(axis=0)
        np.testing.assert_allclose(out, np.tile(mean, (20, 1)), rtol=0, atol=1e-6)

    def test_smoothing_contracts_spread(self):
        from tokpool.numerics import pairwise_sq_dists

        for seed in range(5):
            p = make_probe(10, 5, 2.0, seed=seed)
            out = attention_form(p)
            assert pairwise_sq_dists(out, out).max() <= pairwise_sq_dists(
                p.values, p.values
            ).max() + 1e-12


class TestValidation:
    def test_probe_rejects_unnormalized(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DataError):
            FilterProbe(
                queries=rng.normal(size=(3, 4)) * 2.0,
                keys=unit_rows(rng.normal(size=(3, 4))),
                values=rng.normal(size=(3, 4)),
                alpha=1.0,
            )

    def test_bad_alpha(self):
        k = unit_rows(np.random.default_rng(7).normal(size=(2, 3)))
        with pytest.raises(UsageError):
            FilterProbe(queries=k, keys=k, values=np.ones((2, 2)), alpha=0.0)

    def test_bad_tol(self):
        with pytest.raises(UsageError):
            verify_equivalence(4, 4, 1.0, seed=0, tol=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_alpha_and_tol(self, value):
        k = unit_rows(np.random.default_rng(7).normal(size=(2, 3)))
        with pytest.raises(UsageError, match="alpha must be finite"):
            FilterProbe(queries=k, keys=k, values=np.ones((2, 2)), alpha=value)
        with pytest.raises(UsageError, match="alpha must be finite"):
            verify_equivalence(4, 4, value, seed=0)
        with pytest.raises(UsageError, match="tol must be finite"):
            verify_equivalence(4, 4, 1.0, seed=0, tol=value)

    def test_probe_random_constructor(self):
        p = FilterProbe.random(8, 4, alpha=2.0, seed=9)
        np.testing.assert_allclose(np.linalg.norm(p.queries, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(p.keys, axis=1), 1.0, atol=1e-12)


class TestFilterDistances:
    @pytest.mark.parametrize("nq, nk, m", [(1, 1, 1), (7, 5, 3), (40, 250, 300)])
    def test_bit_identical_to_full_broadcast(self, nq, nk, m):
        # The filter route takes its distances from the blocked kernel; its
        # output must equal the one-shot (nq, nk, m) difference tensor's.
        rng = np.random.default_rng(nq + nk + m)
        p = FilterProbe(
            queries=unit_rows(rng.normal(size=(nq, m))),
            keys=unit_rows(rng.normal(size=(nk, m))),
            values=rng.normal(size=(nk, 4)),
            alpha=3.5,
        )
        diff = p.queries[:, None, :] - p.keys[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        expected = filterlab._softmax_weighted(-(p.alpha / 2.0) * d2, p.values)
        np.testing.assert_array_equal(filter_form(p), expected)

    def test_verify_memory_is_quadratic_not_cubic(self):
        # n=600, m=64: an (n, n, m) difference tensor alone is 184 MB; a few
        # n x n matrices are under 20 MB.
        verify_equivalence(8, 4, 2.0, seed=1)
        tracemalloc.start()
        try:
            verify_equivalence(600, 64, 4.0, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"
