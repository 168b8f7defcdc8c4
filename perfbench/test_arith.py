"""Tests of the benchmark's own arithmetic.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest

import arith
import digests


class TestTail:
    def test_no_tail_below_twenty_samples(self):
        assert arith.tail_percentile(19) is None

    @pytest.mark.parametrize("n, p", [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
                                      (1000, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, p):
        assert arith.tail_percentile(n) == p

    @pytest.mark.parametrize("n", [20, 57, 100, 250, 1000, 12345])
    def test_at_least_ten_samples_lie_beyond(self, n):
        values = list(range(n))
        p = arith.tail_percentile(n)
        beyond = sum(v > arith.percentile(values, p) for v in values)
        assert beyond >= 10
        higher = [q for q in (99.9, 99.0, 90.0, 50.0) if q > p]
        for q in higher:
            assert sum(v > arith.percentile(values, q) for v in values) < 10

    def test_nearest_rank(self):
        assert arith.percentile([5, 1, 4, 2, 3], 50) == 3
        assert arith.percentile([1, 2, 3, 4], 50) == 2
        assert arith.percentile([1, 2, 3, 4], 100) == 4

    def test_failed_ops_count_as_slowest(self):
        summary = arith.latency_summary([1.0, 2.0, 3.0], [True, False, True])
        assert summary["p50"] == 3.0
        summary = arith.latency_summary([1.0, 2.0, 3.0], [False, False, True])
        assert summary["p50"] is None

    def test_tail_reported_with_enough_samples(self):
        lat = [float(i) for i in range(1, 101)]
        summary = arith.latency_summary(lat, [True] * 100)
        assert (summary["tail_p"], summary["tail"], summary["samples"]) == (90.0, 90.0, 100)


class TestFailRatio:
    def test_ratio(self):
        assert arith.fail_ratio(8, 0) == 0.0
        assert arith.fail_ratio(8, 2) == 0.25
        assert arith.fail_ratio(3, 3) == 1.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
    def test_rejects_impossible_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            arith.fail_ratio(attempted, failed)


class TestSelfTime:
    def test_children_subtracted_once(self):
        spans = [
            {"start": 0.0, "end": 10.0, "parent": None},
            {"start": 1.0, "end": 3.0, "parent": 0},
            {"start": 2.0, "end": 4.0, "parent": 0},   # overlaps its sibling
            {"start": 5.0, "end": 6.0, "parent": 0},
            {"start": 5.2, "end": 5.5, "parent": 3},   # grandchild: not the root's child
        ]
        selfs = arith.self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
        assert selfs[3] == pytest.approx(0.7)
        assert selfs[1] == pytest.approx(2.0)

    def test_child_clipped_to_parent(self):
        spans = [{"start": 0.0, "end": 1.0, "parent": None},
                 {"start": 0.5, "end": 2.0, "parent": 0}]
        assert arith.self_times(spans)[0] == pytest.approx(0.5)


class TestLossRecompute:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 8))
        centers = feats[[3, 17, 41]]
        d = ((feats[:, None, :] - centers[None]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        w = rng.random(50) + 0.5
        by_assignment, nearest = arith.recompute_loss(feats, centers, assign, w)
        expected = float((w * d.min(axis=1)).sum())
        assert by_assignment == pytest.approx(expected, rel=1e-12)
        assert nearest == pytest.approx(expected, rel=1e-12)

    def test_wrong_assignment_detected(self):
        feats = np.array([[0.0, 0.0], [10.0, 0.0]])
        centers = feats.copy()
        by_assignment, nearest = arith.recompute_loss(feats, centers, [1, 0])
        assert nearest == 0.0
        assert not arith.loss_agrees(nearest, by_assignment)

    def test_float32_storage_within_tolerance(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(577, 768)).astype(np.float32).astype(np.float64)
        centers = feats[:64] + rng.normal(size=(64, 768)) * 0.3
        assign = np.arange(577) % 64
        reported, _ = arith.recompute_loss(feats, centers, assign)
        stored = centers.astype(np.float32).astype(np.float64)
        from_file, _ = arith.recompute_loss(feats, stored, assign)
        assert arith.loss_agrees(reported, from_file)
        assert not arith.loss_agrees(reported, reported * (1 + 10 * arith.LOSS_RTOL))


def test_union_length_merges_overlaps():
    assert arith.union_length([(0, 2), (1, 3), (5, 6)]) == 3 + 1
    assert math.isclose(arith.union_length([]), 0.0)


def _record(ops, seed=1):
    return {"workload": "pool-vit", "seed": seed, "ops": [
        {"key": k, "traced": False, "argv": ["pool", k], "ok": True, "sha256": {"out": h}}
        for k, h in ops]}


class TestDigests:
    def test_identical_prefixes_match(self):
        a = _record([("op0000", "aa"), ("op0001", "bb")])
        b = _record([("op0000", "aa"), ("op0001", "bb"), ("op0002", "cc")])
        assert digests.compare(a, b) == (2, [])

    def test_difference_reported(self):
        a = _record([("op0000", "aa"), ("op0001", "bb")])
        b = _record([("op0000", "aa"), ("op0001", "xx")])
        n, problems = digests.compare(a, b)
        assert n == 2 and problems == ["op0001: out differs"]

    def test_other_seed_refused(self):
        n, problems = digests.compare(_record([("op0000", "aa")]),
                                      _record([("op0000", "aa")], seed=2))
        assert problems == ["seed differs: 1 vs 2"]
