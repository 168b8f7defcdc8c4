import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool.errors import DataError, UsageError
from tokpool.pooling import (
    METHODS,
    ClusterResult,
    PoolSpec,
    chamfer_loss,
    grid_pool,
    importance_select,
    random_select,
    token_pool,
)
from tokpool.transformer import TokenSet


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def partitions_up_to_k(n, k):
    """All set partitions of range(n) into at most k nonempty blocks."""

    def rec(i, blocks):
        if i == n:
            yield [list(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def best_partition_loss(points, k):
    """Global k-means optimum: best sum of within-block squared deviations."""
    best = np.inf
    for blocks in partitions_up_to_k(len(points), k):
        loss = 0.0
        for b in blocks:
            sub = points[b]
            loss += ((sub - sub.mean(axis=0)) ** 2).sum()
        best = min(best, loss)
    return best


def best_medoid_loss(points, k):
    """Global k-medoids optimum by enumerating every size-k medoid set."""
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    best = np.inf
    for subset in itertools.combinations(range(len(points)), k):
        best = min(best, d2[:, subset].min(axis=1).sum())
    return best


def blob_tokens():
    return TokenSet(np.array([[0.0], [0.1], [10.0], [10.1]]))


# ---------------------------------------------------------------------------
# chamfer loss
# ---------------------------------------------------------------------------


class TestChamferLoss:
    def test_zero_when_identical(self):
        f = np.random.default_rng(0).normal(size=(6, 3))
        assert chamfer_loss(f, f) == 0.0

    def test_hand_value(self):
        f = np.array([[1.0], [2.0], [3.0]])
        assert chamfer_loss(f, np.array([[2.0]])) == pytest.approx(2.0, abs=1e-12)

    def test_weighted_hand_value(self):
        f = np.array([[1.0], [2.0], [3.0]])
        loss = chamfer_loss(f, np.array([[2.0]]), weights=[1.0, 2.0, 3.0])
        assert loss == pytest.approx(4.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            chamfer_loss(np.zeros((2, 2)), np.zeros((1, 3)))

    @pytest.mark.parametrize("fhat, weights, error, message", [
        (np.zeros((0, 2)), None, UsageError, "need at least one retained token"),
        (np.zeros((1, 2)), [1.0, 2.0, 3.0], UsageError, "weights length 3 != 2 tokens"),
    ])
    def test_rejects_bad_arguments(self, fhat, weights, error, message):
        with pytest.raises(error, match=message):
            chamfer_loss(np.zeros((2, 2)), fhat, weights)

    def test_token_set_weights_weigh_the_loss(self):
        f = TokenSet(np.array([[1.0], [2.0], [3.0]]), weights=[1.0, 2.0, 3.0])
        assert chamfer_loss(f, np.array([[2.0]])) == pytest.approx(4.0, abs=1e-12)


# ---------------------------------------------------------------------------
# clustering methods
# ---------------------------------------------------------------------------


class TestKMeans:
    def test_two_blob_fixture(self):
        out, res = token_pool(blob_tokens(), PoolSpec("kmeans", 2, protect_first=False))
        np.testing.assert_allclose(
            np.sort(out.features.ravel()), [0.05, 10.05], rtol=0, atol=1e-12
        )
        assert res.loss == pytest.approx(0.01, rel=1e-9)
        assert res.assignment.tolist() == [0, 0, 1, 1]

    def test_identity_when_k_covers_all(self):
        f = TokenSet(np.random.default_rng(1).normal(size=(6, 3)))
        out, res = token_pool(f, PoolSpec("kmeans", 6, protect_first=False))
        np.testing.assert_array_equal(out.features, f.features)
        assert res.loss == 0.0 and res.iterations == 0
        out, res = token_pool(f, PoolSpec("kmeans", 999, protect_first=False))
        np.testing.assert_array_equal(out.features, f.features)

    def test_loss_never_beats_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, 2))
            _, res = token_pool(TokenSet(pts), PoolSpec("kmeans", k, protect_first=False))
            assert res.loss >= best_partition_loss(pts, k) - 1e-12

    def test_loss_monotone_in_iterations(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(12, 3))
        losses = [
            token_pool(
                TokenSet(pts), PoolSpec("kmeans", 3, max_iters=t, protect_first=False)
            )[1].loss
            for t in range(1, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_empty_cluster_repair(self):
        # duplicate init centers desert cluster 1; it must be repaired
        pts = np.array([[5.0], [5.0], [0.0], [10.0]])
        out, res = token_pool(TokenSet(pts), PoolSpec("kmeans", 2, protect_first=False))
        assert np.bincount(res.assignment, minlength=2).min() > 0
        assert np.isfinite(res.loss)

    @pytest.mark.parametrize("method", ["kmeans", "kmedoids", "wkmeans", "wkmedoids"])
    @pytest.mark.parametrize("init", ["topk_weight", "random"])
    def test_no_empty_clusters_on_duplicate_heavy_data(self, method, init):
        # integer-valued tokens produce exact ties and deserted clusters; as
        # long as there are >= k distinct values every cluster must end occupied
        rng = np.random.default_rng(42)
        for trial in range(20):
            pts = rng.integers(0, 3, size=(15, 2)).astype(float)
            k = 3
            if len(np.unique(pts, axis=0)) < k:
                continue
            w = 0.1 + rng.random(15) if method.startswith("w") else None
            _, res = token_pool(
                TokenSet(pts, weights=w),
                PoolSpec(method, k, init=init, seed=trial, protect_first=False),
            )
            assert np.bincount(res.assignment, minlength=k).min() > 0

    def test_output_count(self):
        f = TokenSet(np.random.default_rng(4).normal(size=(9, 2)))
        out, _ = token_pool(f, PoolSpec("kmeans", 4, protect_first=False))
        assert out.n_tokens == 4
        out, _ = token_pool(f, PoolSpec("kmeans", 4, protect_first=True))
        assert out.n_tokens == 5


class TestKMedoids:
    def test_two_blob_fixture_lowest_index_tie_break(self):
        out, res = token_pool(blob_tokens(), PoolSpec("kmedoids", 2, protect_first=False))
        np.testing.assert_array_equal(np.sort(out.features.ravel()), [0.0, 10.0])
        assert res.loss == pytest.approx(0.02, rel=1e-9)
        assert res.medoid_indices.tolist() == [0, 2]

    def test_medoids_are_input_rows_bit_exact(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            pts = rng.normal(size=(10, 4))
            out, res = token_pool(
                TokenSet(pts), PoolSpec("kmedoids", 3, protect_first=False)
            )
            for row in out.features:
                assert any((row == pts[i]).all() for i in range(10))
            np.testing.assert_array_equal(out.features, pts[res.medoid_indices])

    def test_loss_never_beats_exhaustive_optimum(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, 2))
            _, res = token_pool(TokenSet(pts), PoolSpec("kmedoids", k, protect_first=False))
            assert res.loss >= best_medoid_loss(pts, k) - 1e-12

    def test_loss_monotone_in_iterations(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 3))
        losses = [
            token_pool(
                TokenSet(pts), PoolSpec("kmedoids", 3, max_iters=t, protect_first=False)
            )[1].loss
            for t in range(1, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestWeightedVariants:
    @pytest.mark.parametrize("pair", [("wkmeans", "kmeans"), ("wkmedoids", "kmedoids")])
    def test_uniform_weights_reduce_to_unweighted(self, pair):
        weighted, plain = pair
        rng = np.random.default_rng(8)
        for seed in range(5):
            pts = rng.normal(size=(10, 3))
            f_w = TokenSet(pts, weights=np.ones(10))
            f_p = TokenSet(pts)
            out_w, res_w = token_pool(f_w, PoolSpec(weighted, 3, protect_first=False))
            out_p, res_p = token_pool(f_p, PoolSpec(plain, 3, protect_first=False))
            np.testing.assert_array_equal(out_w.features, out_p.features)
            np.testing.assert_array_equal(res_w.assignment, res_p.assignment)
            assert res_w.loss == res_p.loss

    def test_weights_pull_centers(self):
        # heavy token dominates its cluster mean: cluster {1, 10} lands at
        # (100*1 + 1*10) / 101 instead of the unweighted 5.5
        pts = np.array([[0.0], [1.0], [10.0]])
        f = TokenSet(pts, weights=np.array([1.0, 100.0, 1.0]))
        out, res = token_pool(f, PoolSpec("wkmeans", 2, protect_first=False))
        heavy_cluster = res.assignment[1]
        center = res.centers[heavy_cluster][0]
        assert center == pytest.approx(110.0 / 101.0, rel=1e-12)

    @pytest.mark.parametrize("method", ["wkmeans", "wkmedoids"])
    def test_cluster_of_zero_weight_tokens_is_repaired(self, method):
        # top-k init takes tokens 0 and 1; tokens 1-3 weigh 0, so cluster 1
        # has no mass to average and takes the worst-reconstructed token
        pts = np.array([[0.0], [10.0], [11.0], [12.0]])
        f = TokenSet(pts, weights=np.array([1.0, 0.0, 0.0, 0.0]))
        out, res = token_pool(f, PoolSpec(method, 2, protect_first=False))
        assert out.features.ravel().tolist() == [0.0, 12.0]
        assert res.loss == 0.0

    @pytest.mark.parametrize("method", ["wkmeans", "wkmedoids"])
    def test_all_zero_weights_rejected(self, method):
        f = TokenSet(np.arange(4.0).reshape(-1, 1), weights=np.zeros(4))
        with pytest.raises(DataError, match="weights sum to zero"):
            token_pool(f, PoolSpec(method, 2, protect_first=False))

    def test_weighted_requires_weights(self):
        f = TokenSet(np.ones((4, 2)))
        with pytest.raises(UsageError):
            token_pool(f, PoolSpec("wkmeans", 2, protect_first=False))

    def test_weighted_loss_reported_weighted(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        w = np.array([1.0, 2.0, 3.0, 4.0])
        _, res = token_pool(
            TokenSet(pts, weights=w), PoolSpec("wkmeans", 2, protect_first=False)
        )
        assert res.loss == pytest.approx(
            chamfer_loss(pts, res.centers, weights=w), rel=1e-12
        )


@st.composite
def lloyd_cases(draw):
    """Random tokens (integer-valued ones give ties and deserted clusters),
    positive weights, and a spec for one of the four clustering methods."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    protect = draw(st.booleans())
    n = draw(st.integers(3, 40)) + protect
    feats = rng.normal(size=(n, draw(st.integers(1, 4))))
    if draw(st.booleans()):
        feats = np.round(2 * feats)
    method = draw(st.sampled_from(["kmeans", "wkmeans", "kmedoids", "wkmedoids"]))
    weights = None
    if method.startswith("w") or draw(st.booleans()):
        weights = rng.uniform(0.1, 3.0, size=n)
    spec = dict(method=method, k=draw(st.integers(1, min(5, n - protect - 1))),
                init=draw(st.sampled_from(["topk_weight", "random"])),
                seed=draw(st.integers(0, 2 ** 32)), protect_first=protect)
    return TokenSet(feats, weights), spec


@settings(max_examples=200, deadline=None)
@given(lloyd_cases())
def test_loss_non_increasing_in_iterations(case):
    # each extra Lloyd step either stops at a fixed point or lowers the
    # (weighted) objective the result reports
    f, spec = case
    losses = [token_pool(f, PoolSpec(max_iters=t, **spec))[1].loss for t in range(1, 8)]
    for a, b in zip(losses, losses[1:]):
        assert b <= a + 1e-12 * max(1.0, a)


class TestInitAndDeterminism:
    def test_topk_init_uses_weights(self):
        pts = np.array([[0.0], [1.0], [2.0], [3.0]])
        w = np.array([1.0, 9.0, 1.0, 8.0])
        _, res = token_pool(
            TokenSet(pts, weights=w),
            PoolSpec("wkmedoids", 2, max_iters=1, protect_first=False),
        )
        assert set(res.medoid_indices.tolist()) <= {0, 1, 2, 3}

    def test_random_init_seed_determinism(self):
        pts = np.random.default_rng(9).normal(size=(12, 3))
        a = token_pool(
            TokenSet(pts), PoolSpec("kmeans", 3, init="random", seed=5, protect_first=False)
        )
        b = token_pool(
            TokenSet(pts), PoolSpec("kmeans", 3, init="random", seed=5, protect_first=False)
        )
        np.testing.assert_array_equal(a[0].features, b[0].features)
        np.testing.assert_array_equal(a[1].assignment, b[1].assignment)

    def test_permutation_equivariance_with_distinct_weights(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(8, 2))
        w = 1.0 + rng.permutation(8).astype(float)  # distinct
        perm = rng.permutation(8)
        base = token_pool(
            TokenSet(pts, weights=w), PoolSpec("wkmeans", 3, protect_first=False)
        )[1]
        permuted = token_pool(
            TokenSet(pts[perm], weights=w[perm]), PoolSpec("wkmeans", 3, protect_first=False)
        )[1]
        # permuted token j is original token perm[j]; the center each token
        # lands on must agree regardless of cluster numbering
        np.testing.assert_allclose(
            permuted.centers[permuted.assignment],
            base.centers[base.assignment][perm],
            rtol=0,
            atol=1e-9,
        )


class TestProtectFirst:
    def test_protected_row_untouched(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 3))
        out, res = token_pool(TokenSet(pts), PoolSpec("kmeans", 3, protect_first=True))
        np.testing.assert_array_equal(out.features[0], pts[0])
        assert out.n_tokens == 4
        assert res.assignment.shape == (8,)

    def test_protected_excluded_from_loss(self):
        pts = np.vstack([[100.0], np.zeros((4, 1))])
        _, res = token_pool(TokenSet(pts), PoolSpec("kmeans", 1, protect_first=True))
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_identity_counts_protected(self):
        pts = np.random.default_rng(12).normal(size=(5, 2))
        out, _ = token_pool(TokenSet(pts), PoolSpec("kmeans", 4, protect_first=True))
        np.testing.assert_array_equal(out.features, pts)


class TestCarryCounts:
    def test_counts_are_cluster_sizes(self):
        f = TokenSet(blob_tokens().features, counts=np.ones(4))
        out, res = token_pool(f, PoolSpec("kmeans", 2, protect_first=False))
        assert res.counts.tolist() == [2.0, 2.0]
        np.testing.assert_array_equal(out.counts, [2.0, 2.0])

    def test_counts_accumulate_input_multiplicities(self):
        f = TokenSet(blob_tokens().features, counts=np.array([1.0, 2.0, 3.0, 4.0]))
        _, res = token_pool(f, PoolSpec("kmeans", 2, protect_first=False))
        assert res.counts.tolist() == [3.0, 7.0]

    def test_no_counts_without_flag(self):
        out, _ = token_pool(blob_tokens(), PoolSpec("kmeans", 2, protect_first=False))
        assert out.counts is None

    @pytest.mark.parametrize("method", ["kmeans", "wkmedoids", "random", "importance"])
    @pytest.mark.parametrize("protect", [True, False])
    @pytest.mark.parametrize("counts", [None, [1.0, 2.5, 3.0, 4.0]])
    def test_counts_when_k_covers_all(self, method, protect, counts):
        # counts=None: a count-less input has no counts to pool, so it carries unit ones
        mult = np.ones(4) if counts is None else np.array(counts)
        f = TokenSet(blob_tokens().features, np.array([1.0, 2.0, 3.0, 4.0]), mult)
        out, res = token_pool(f, PoolSpec(method, 4, protect_first=protect))
        np.testing.assert_array_equal(out.features, f.features)
        np.testing.assert_array_equal(out.counts, mult)
        np.testing.assert_array_equal(res.counts, mult[1:] if protect else mult)
        assert (res.iterations, res.loss) == (0, 0.0)
        # every center is an input token; only the k-means family reports none
        medoids = None if method == "kmeans" else list(range(4 - protect))
        assert (None if res.medoid_indices is None else res.medoid_indices.tolist()) == medoids


@st.composite
def counts_cases(draw):
    """Gaussian tokens (no duplicate rows) on a grid, positive weights, and
    counts or none; with ``protect`` the extra row is the grid's class slot."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    protect = draw(st.booleans())
    h, w = draw(st.sampled_from([(2, 2), (2, 4), (4, 4), (4, 6)]))
    n = h * w + protect
    feats = rng.normal(size=(n, draw(st.integers(1, 4))))
    counts = rng.uniform(0.5, 5.0, size=n) if draw(st.booleans()) else None
    f = TokenSet(feats, rng.uniform(0.1, 3.0, size=n), counts, (h, w))
    return f, protect, draw(st.integers(1, n)), draw(st.integers(0, 2 ** 32))


@settings(max_examples=100, deadline=None)
@given(counts_cases())
def test_pooled_counts_follow_input_counts(case):
    f, protect, k, seed = case
    for method in METHODS:
        out, _ = token_pool(f, PoolSpec(method, k, seed=seed, protect_first=protect))
        assert out.weights is None
        assert (out.counts is None) == (f.counts is None)
        if f.counts is not None:
            assert (out.counts > 0).all()
            assert out.counts.sum() == pytest.approx(f.counts.sum(), rel=1e-12)
    # the selectors drop the tokens they do not draw, so their survivors keep
    # their own counts instead of summing to the input's multiplicity
    k = min(k, f.n_tokens - protect)
    for out in (random_select(f, k, seed, protect),
                importance_select(f, f.weights, k, seed, protect)):
        assert (out.counts is None) == (f.counts is None)
        if f.counts is not None:
            rows = [np.flatnonzero((f.features == row).all(axis=1))[0] for row in out.features]
            assert (out.counts > 0).all()
            np.testing.assert_array_equal(out.counts, f.counts[rows])


class TestRandomSelect:
    def test_k_equals_n_returns_all(self):
        f = TokenSet(np.random.default_rng(13).normal(size=(5, 2)))
        out = random_select(f, 5, seed=1, protect_first=False)
        np.testing.assert_array_equal(out.features, f.features)

    def test_seed_determinism(self):
        f = TokenSet(np.random.default_rng(14).normal(size=(8, 2)))
        a = random_select(f, 3, seed=2, protect_first=False)
        b = random_select(f, 3, seed=2, protect_first=False)
        np.testing.assert_array_equal(a.features, b.features)

    def test_survivors_keep_input_order(self):
        pts = np.arange(10, dtype=float).reshape(-1, 1)
        out = random_select(TokenSet(pts), 4, seed=3, protect_first=False)
        vals = out.features.ravel()
        assert (np.diff(vals) > 0).all()

    def test_uniform_frequencies(self):
        pts = np.arange(4, dtype=float).reshape(-1, 1)
        f = TokenSet(pts)
        counts = np.zeros(4)
        for seed in range(20_000):
            out = random_select(f, 1, seed=seed, protect_first=False)
            counts[int(out.features[0, 0])] += 1
        sigma = np.sqrt(20_000 * 0.25 * 0.75)
        assert (np.abs(counts - 5_000) < 4 * sigma).all()

    @pytest.mark.parametrize("protect", [False, True])
    def test_same_draw_as_uniform_importance(self, protect):
        # both selectors take one sorted draw; survivors keep their own data
        rng = np.random.default_rng(16)
        for seed in range(20):
            n = int(rng.integers(3, 12))
            f = TokenSet(np.arange(n, dtype=float).reshape(-1, 1),
                         rng.uniform(0.5, 2.0, n), rng.integers(1, 5, n).astype(float))
            k = int(rng.integers(1, n - protect))
            a = random_select(f, k, seed=seed, protect_first=protect)
            b = importance_select(f, np.ones(n), k, seed=seed, protect_first=protect)
            for field in ("features", "weights", "counts"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
            kept = a.features[:, 0].astype(int)
            np.testing.assert_array_equal(a.counts, f.counts[kept])
            np.testing.assert_array_equal(a.weights, f.weights[kept])

    def test_k_too_large(self):
        f = TokenSet(np.ones((3, 2)))
        with pytest.raises(UsageError):
            random_select(f, 4, seed=0, protect_first=False)
        with pytest.raises(UsageError):
            random_select(f, 3, seed=0, protect_first=True)


class TestImportanceSelect:
    def test_one_hot_scores(self):
        pts = np.arange(4, dtype=float).reshape(-1, 1)
        out = importance_select(
            TokenSet(pts), [0.0, 0.0, 1.0, 0.0], 1, seed=0, protect_first=False
        )
        assert out.features.tolist() == [[2.0]]

    def test_k_equals_n(self):
        f = TokenSet(np.random.default_rng(15).normal(size=(4, 2)))
        out = importance_select(f, np.ones(4), 4, seed=0, protect_first=False)
        np.testing.assert_array_equal(out.features, f.features)

    @pytest.mark.parametrize("scores, error, message", [
        ([1.0, 1.0], UsageError, "scores length 2 != 3 tokens"),
        ([1.0, -1.0, 1.0], DataError, "scores must be finite and nonnegative"),
        ([1.0, np.nan, 1.0], DataError, "scores must be finite and nonnegative"),
    ])
    def test_bad_scores_rejected(self, scores, error, message):
        with pytest.raises(error, match=message):
            importance_select(TokenSet(np.ones((3, 2))), scores, 1, seed=0)

    @pytest.mark.parametrize("select", [
        random_select,
        lambda f, k, seed: importance_select(f, np.ones(f.n_tokens), k, seed),
    ], ids=["random", "importance"])
    def test_k_below_one_rejected(self, select):
        with pytest.raises(UsageError, match="k must be >= 1"):
            select(TokenSet(np.ones((3, 2))), 0, 0)

    def test_zero_scores_rejected(self):
        f = TokenSet(np.ones((3, 2)))
        with pytest.raises(DataError):
            importance_select(f, np.zeros(3), 1, seed=0, protect_first=False)

    def test_uniform_scores_match_random_distribution(self):
        # chi-square between importance(uniform) and the exact uniform law
        pts = np.arange(4, dtype=float).reshape(-1, 1)
        f = TokenSet(pts)
        counts = np.zeros(4)
        trials = 20_000
        for seed in range(trials):
            out = importance_select(f, np.ones(4), 1, seed=seed, protect_first=False)
            counts[int(out.features[0, 0])] += 1
        expected = trials / 4
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 16.27  # chi2 0.999 quantile, 3 dof

    def test_high_scores_win_more_often(self):
        pts = np.arange(3, dtype=float).reshape(-1, 1)
        f = TokenSet(pts)
        scores = np.array([1.0, 1.0, 8.0])
        wins = 0
        for seed in range(2_000):
            out = importance_select(f, scores, 1, seed=seed, protect_first=False)
            wins += int(out.features[0, 0] == 2.0)
        assert wins > 1_400  # expected 1600


class TestGridPool:
    def test_constant_tokens(self):
        f = TokenSet(np.ones((4, 3)), grid=(2, 2))
        out = grid_pool(f)
        np.testing.assert_array_equal(out.features, np.ones((1, 3)))
        assert out.grid == (1, 1)

    def test_hand_mean(self):
        f = TokenSet(np.array([[0.0], [1.0], [2.0], [3.0]]), grid=(2, 2))
        out = grid_pool(f)
        assert out.features.tolist() == [[1.5]]

    def test_odd_grid_rejected(self):
        f = TokenSet(np.ones((9, 2)), grid=(3, 3))
        with pytest.raises(UsageError):
            grid_pool(f)

    def test_missing_grid_rejected(self):
        with pytest.raises(UsageError):
            grid_pool(TokenSet(np.ones((4, 2))))

    def test_cls_token_passes_through(self):
        feats = np.vstack([[9.0], np.arange(16, dtype=float).reshape(-1, 1)])
        f = TokenSet(feats, grid=(4, 4))
        out = grid_pool(f)
        assert out.features[0, 0] == 9.0
        assert out.n_tokens == 5
        assert out.grid == (2, 2)

    def test_block_means_row_major(self):
        feats = np.arange(16, dtype=float).reshape(-1, 1)
        out = grid_pool(TokenSet(feats, grid=(4, 4)))
        np.testing.assert_array_equal(out.features.ravel(), [2.5, 4.5, 10.5, 12.5])

    def test_pooled_counts_are_the_record_counts(self):
        # non-integer counts: two ways of summing a 2x2 block differ in the last bits
        rng = np.random.default_rng(41)
        for _ in range(20):
            counts = rng.uniform(0.1, 10.0, size=25)
            f = TokenSet(rng.normal(size=(25, 2)), counts=counts, grid=(4, 6))
            out, res = token_pool(f, PoolSpec("grid", 1))
            assert out.counts[0] == counts[0]
            assert out.counts[1:].tobytes() == res.counts.tobytes()

    def test_via_token_pool(self):
        f = TokenSet(np.arange(4, dtype=float).reshape(-1, 1), grid=(2, 2))
        out, res = token_pool(f, PoolSpec("grid", 1, protect_first=False))
        assert out.features.tolist() == [[1.5]]
        assert res.assignment.tolist() == [0, 0, 0, 0]
        assert res.counts.tolist() == [4.0]


def reference_grid_result(f):
    """Grid pooling as its own path, before it joined ``token_pool``'s assembly."""
    if f.grid is None:
        raise UsageError("grid pooling requires a token grid")
    h, w = f.grid
    if h % 2 or w % 2:
        raise UsageError(f"grid dims must be even to 2x2-pool, got {h}x{w}")
    offset = f.n_tokens - h * w  # 1 when a classification token is present
    m = f.dim
    body = f.features[offset:].reshape(h, w, m)
    blocks = body.reshape(h // 2, 2, w // 2, 2, m)
    pooled = blocks.mean(axis=(1, 3)).reshape(-1, m)

    # structural assignment: each body token belongs to its 2x2 block
    rr, cc = np.divmod(np.arange(h * w), w)
    labels = ((rr // 2) * (w // 2) + cc // 2).astype(np.int64)
    base = f.counts[offset:] if f.counts is not None else np.ones(h * w)
    counts = np.bincount(labels, weights=base, minlength=pooled.shape[0])
    out_counts = None if f.counts is None else np.concatenate([f.counts[:offset], counts])
    rows = np.concatenate([f.features[:offset], pooled], axis=0)
    out = TokenSet(rows, None, out_counts, (h // 2, w // 2))
    loss = chamfer_loss(f.features[offset:], pooled, None)
    return out, ClusterResult(labels, pooled, 1, loss, counts, None)


def _bits(value):
    """A comparable form that tells arrays apart by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), value


def _grid_outcome(fn, *args):
    try:
        out, res = fn(*args)
    except (UsageError, DataError) as exc:
        return type(exc), str(exc)
    pooled = [_bits(getattr(out, name)) for name in ("features", "weights", "counts", "grid")]
    return pooled, [_bits(getattr(res, fld.name)) for fld in dataclasses.fields(res)]


@st.composite
def grid_cases(draw):
    """Grids from 1x1 to 8x8 (odd dims and a missing grid must raise alike),
    with or without a classification token, counts, weights, integer-valued
    features (chamfer ties) and Fortran-ordered features."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h, w = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.integers(0, 3)):  # mostly even, so most cases pool
        h, w = 2 * -(-h // 2), 2 * -(-w // 2)
    n = h * w + draw(st.booleans())
    feats = rng.normal(size=(n, draw(st.integers(1, 5))))
    if draw(st.booleans()):
        feats = np.round(feats)
    if draw(st.booleans()):
        feats = np.asfortranarray(feats)
    counts = rng.uniform(0.1, 5.0, size=n) if draw(st.booleans()) else None
    weights = rng.uniform(0.0, 3.0, size=n) if draw(st.booleans()) else None
    grid = (h, w) if draw(st.integers(0, 5)) else None
    spec = PoolSpec("grid", draw(st.integers(1, n + 1)), protect_first=draw(st.booleans()))
    return TokenSet(feats, weights, counts, grid), spec


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_grid_matches_its_own_path(case):
    # grid ignores K and protect_first; only the token set decides its output
    f, spec = case
    got = _grid_outcome(token_pool, f, spec)
    # the old path's patch means followed the memory layout (a Fortran-ordered
    # input summed in another order); the fold means a C-ordered copy
    c_order = dataclasses.replace(f, features=np.ascontiguousarray(f.features))
    assert got == _grid_outcome(token_pool, c_order, spec)
    assert got == _grid_outcome(reference_grid_result, c_order)


class TestSpecValidation:
    def test_bad_method(self):
        with pytest.raises(UsageError):
            PoolSpec("meanshift", 2)

    def test_bad_k(self):
        with pytest.raises(UsageError):
            PoolSpec("kmeans", 0)

    def test_bad_init(self):
        with pytest.raises(UsageError):
            PoolSpec("kmeans", 2, init="kpp")
