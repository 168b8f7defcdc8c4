import numpy as np
import pytest

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
