import numpy as np
import pytest

from tokpool.costmodel import (
    ModelConfig,
    block_flops,
    breakdown_fractions,
    clustering_flops,
    model_flops,
)
from tokpool.errors import DataError, UsageError

DEIT_S = ModelConfig(layers=12, dim=384, heads=6, tokens=197)
DEIT_TI = ModelConfig(layers=12, dim=192, heads=3, tokens=197)
VIT_B = ModelConfig(layers=12, dim=768, heads=12, tokens=197)
VIT_B_384 = ModelConfig(layers=12, dim=768, heads=12, tokens=577)

LEVEL0 = (196, 196, 195, 194, 189, 180, 173, 173, 173, 173, 173, 173)


def rel_err(got, ref):
    return abs(got - ref) / ref


class TestBlockFlops:
    def test_unit_scale(self):
        cfg = ModelConfig(layers=1, dim=1, heads=1, tokens=1)
        assert block_flops(1, cfg) == {"attention": 2, "qkv": 3, "oproj": 1, "mlp": 8}

    def test_deit_s_published_cells(self):
        parts = block_flops(197, DEIT_S)
        assert rel_err(12 * parts["attention"], 0.36e9) < 0.02
        assert rel_err(12 * parts["qkv"], 1.05e9) < 0.02
        assert rel_err(12 * parts["oproj"], 0.35e9) < 0.02
        assert rel_err(12 * parts["mlp"], 2.79e9) < 0.02

    def test_vit_b_published_cells(self):
        parts = block_flops(197, VIT_B)
        assert rel_err(12 * parts["attention"], 0.72e9) < 0.02
        assert rel_err(12 * parts["qkv"], 4.18e9) < 0.02
        assert rel_err(12 * parts["oproj"], 1.39e9) < 0.02
        assert rel_err(12 * parts["mlp"], 11.15e9) < 0.02
        assert rel_err(model_flops(VIT_B).grand_total, 17.6e9) < 0.02

    def test_qkv_cell_exact_for_deit_s(self):
        # 3*L*N*M^2 reproduces the published 1.05e9 QKV cell at print precision
        assert round(3 * 12 * 197 * 384 ** 2 / 1e9, 2) == 1.05

    def test_rejects_zero_tokens(self):
        with pytest.raises(UsageError):
            block_flops(0, DEIT_S)


class TestModelFlops:
    def test_deit_s_grand_total(self):
        total = model_flops(DEIT_S).grand_total
        assert total == 4_540_695_552  # 12 * (2*197^2*384 + 12*197*384^2)
        assert rel_err(total, 4.6e9) < 0.02

    def test_vit_b_384_grand_total(self):
        assert rel_err(model_flops(VIT_B_384).grand_total, 55.5e9) < 0.02

    def test_grand_total_is_exact_sum(self):
        cfg = ModelConfig(layers=3, dim=8, heads=2, tokens=5, schedule=(3, 2, 1))
        report = model_flops(cfg, "kmedoids", 5)
        total = sum(lf.total for lf in report.per_layer)
        assert report.grand_total == total

    def test_schedule_token_recurrence(self):
        cfg = ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=LEVEL0)
        report = model_flops(cfg)
        n = 197
        for layer, lf in enumerate(report.per_layer):
            assert lf.tokens == n
            n = min(n, LEVEL0[layer] + 1)

    def test_schedule_identity_when_nothing_dropped(self):
        sched = (300,) * 12
        cfg = ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=sched)
        report = model_flops(cfg, "kmedoids", 5)
        base = model_flops(DEIT_S)
        assert report.totals["clustering"] == 0
        assert report.grand_total == base.grand_total

    def test_monotone_in_schedule(self):
        rng = np.random.default_rng(0)
        base_sched = [150, 140, 130, 120, 110, 100, 90, 80, 70, 60, 50, 40]
        base = model_flops(
            ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=base_sched)
        ).grand_total
        for _ in range(20):
            layer = int(rng.integers(0, 12))
            bumped = list(base_sched)
            bumped[layer] += int(rng.integers(1, 30))
            total = model_flops(
                ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=bumped)
            ).grand_total
            assert total >= base

    def test_level0_overheads(self):
        cfg = ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=LEVEL0)
        kmed = model_flops(cfg, "kmedoids", 5).totals["clustering"]
        kmeans = model_flops(cfg, "kmeans", 5).totals["clustering"]
        # five layers actually downsample at level 0 (those with K_l + 1 < n_l)
        assert kmed == sum(
            n * n * 384 + 5 * k * n
            for n, k in [(197, 195), (196, 194), (195, 189), (190, 180), (181, 173)]
        )
        assert kmeans == sum(
            5 * k * n * 384
            for n, k in [(197, 195), (196, 194), (195, 189), (190, 180), (181, 173)]
        )
        # published parentheticals: kmedoids (+0.1), kmeans (+0.4) Gflops
        assert 0.05e9 <= kmed <= 0.2e9
        assert 0.2e9 <= kmeans <= 0.8e9

    @pytest.mark.parametrize("kwargs, message", [
        (dict(layers=0), "layers, dim, heads and tokens must be positive"),
        (dict(dim=0), "layers, dim, heads and tokens must be positive"),
        (dict(heads=0), "layers, dim, heads and tokens must be positive"),
        (dict(tokens=0), "layers, dim, heads and tokens must be positive"),
        (dict(mlp_ratio=0), "mlp_ratio must be positive"),
        (dict(schedule=(4, -1)), "schedule entries must be >= 0"),
        (dict(mode="bogus"), "unknown mode 'bogus'"),
    ])
    def test_rejects_bad_fields(self, kwargs, message):
        with pytest.raises(UsageError, match=message):
            ModelConfig(**{**dict(layers=2, dim=8, heads=2, tokens=5), **kwargs})

    def test_schedule_length_validated(self):
        with pytest.raises(UsageError):
            ModelConfig(layers=12, dim=384, heads=6, tokens=197, schedule=(1, 2, 3))

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("inf"), float("nan"), 10 ** 400])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        with pytest.raises(UsageError, match="alpha must be finite and positive"):
            ModelConfig(layers=12, dim=384, heads=6, tokens=197, alpha=alpha)


class TestClusteringFlops:
    def test_zero_when_not_downsampling(self):
        assert clustering_flops(10, 9, 8, "kmeans") == 0
        assert clustering_flops(10, 20, 8, "kmedoids") == 0

    def test_formulas(self):
        assert clustering_flops(10, 4, 8, "kmeans", 5) == 5 * 4 * 10 * 8
        assert clustering_flops(10, 4, 8, "kmedoids", 5) == 10 * 10 * 8 + 5 * 4 * 10

    def test_bad_method(self):
        with pytest.raises(UsageError):
            clustering_flops(10, 4, 8, "dbscan")

    @pytest.mark.parametrize("call, message", [
        (lambda: clustering_flops(10, 4, 8, "kmeans", 0), "max_iters must be >= 1"),
        (lambda: model_flops(DEIT_S, "dbscan"), "unknown clustering method 'dbscan'"),
        (lambda: model_flops(DEIT_S, "kmeans", 0), "clustering_iters must be >= 1"),
    ], ids=["clustering-iters", "model-method", "model-iters"])
    def test_bad_arguments(self, call, message):
        with pytest.raises(UsageError, match=message):
            call()


class TestBreakdownFractions:
    @pytest.mark.parametrize("cfg", [DEIT_S, DEIT_TI, VIT_B, VIT_B_384])
    def test_fully_connected_dominates(self, cfg):
        shares = breakdown_fractions(model_flops(cfg))
        fc = shares["qkv"] + shares["oproj"] + shares["mlp"]
        assert fc > 0.80
        assert shares["attention"] < 0.15

    def test_shares_sum_to_one(self):
        shares = breakdown_fractions(model_flops(DEIT_S))
        assert abs(sum(shares.values()) - 1.0) < 1e-12

    def test_vit_b_384_attention_share(self):
        shares = breakdown_fractions(model_flops(VIT_B_384))
        assert abs(shares["attention"] - 6.18 / 55.5) < 0.01

    def test_single_category(self):
        from tokpool.costmodel import FlopReport, LayerFlops

        report = FlopReport([LayerFlops(tokens=1, attention=10, qkv=0, oproj=0, mlp=0)])
        assert breakdown_fractions(report)["attention"] == 1.0

    def test_zero_total_rejected(self):
        from tokpool.costmodel import FlopReport

        with pytest.raises(DataError):
            breakdown_fractions(FlopReport([]))
