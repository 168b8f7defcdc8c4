import math

import numpy as np
import pytest

from tokpool.costmodel import ModelConfig
from tokpool.errors import DataError, UsageError
from tokpool.transformer import (
    BlockWeights,
    TokenSet,
    attention_maps,
    block_forward,
    block_forward_detailed,
    gelu,
    layer_norm,
    msa_forward,
    synth_weights,
)


def make_block(m, h, seed, ratio=4):
    cfg = ModelConfig(layers=1, dim=m, heads=h, tokens=2, mlp_ratio=ratio)
    return synth_weights(cfg, seed)[0]


def make_tokens(n, m, seed, **kw):
    rng = np.random.default_rng(seed)
    return TokenSet(rng.normal(size=(n, m)), **kw)


def oracle_msa(feats, w):
    """Literal per-head attention evaluation with explicit loops."""
    n, m = feats.shape
    h = w.heads
    d = m // h
    heads = []
    for i in range(h):
        q = feats @ w.wq[i]
        k = feats @ w.wk[i]
        v = feats @ w.wv[i]
        a = np.empty((n, n))
        for r in range(n):
            logits = np.array([q[r] @ k[c] / math.sqrt(d) for c in range(n)])
            e = np.exp(logits - logits.max())
            a[r] = e / e.sum()
        heads.append(a @ v)
    return np.hstack(heads) @ w.wo


class TestMsaForward:
    def test_single_token_passes_value_through(self):
        w = make_block(8, 2, seed=0)
        t = make_tokens(1, 8, seed=1)
        out = msa_forward(t, w)
        v = np.hstack([t.features @ w.wv[i] for i in range(2)])
        np.testing.assert_allclose(out.features, v @ w.wo, rtol=0, atol=1e-12)

    def test_identical_tokens_identical_outputs(self):
        w = make_block(8, 2, seed=2)
        row = np.random.default_rng(3).normal(size=8)
        t = TokenSet(np.tile(row, (6, 1)))
        out = msa_forward(t, w).features
        np.testing.assert_allclose(out, np.tile(out[0], (6, 1)), rtol=0, atol=1e-12)

    def test_matches_equation_oracle(self):
        w = make_block(8, 2, seed=4)
        t = make_tokens(5, 8, seed=5)
        np.testing.assert_allclose(
            msa_forward(t, w).features, oracle_msa(t.features, w), rtol=0, atol=1e-10
        )

    def test_carry_with_unit_counts_bit_identical(self):
        w = make_block(8, 2, seed=6)
        feats = np.random.default_rng(7).normal(size=(5, 8))
        plain = msa_forward(TokenSet(feats), w, mode="standard")
        carried = msa_forward(TokenSet(feats, counts=np.ones(5)), w, mode="carry")
        np.testing.assert_array_equal(plain.features, carried.features)

    def test_carry_requires_counts(self):
        w = make_block(8, 2, seed=8)
        with pytest.raises(UsageError):
            msa_forward(make_tokens(4, 8, seed=9), w, mode="carry")

    def test_carry_shifts_attention_toward_counted_tokens(self):
        w = make_block(8, 2, seed=10)
        feats = np.random.default_rng(11).normal(size=(4, 8))
        counts = np.array([1.0, 1.0, 50.0, 1.0])
        plain = attention_maps(TokenSet(feats), w)
        carried = attention_maps(TokenSet(feats, counts=counts), w, mode="carry")
        assert (carried[:, :, 2] > plain[:, :, 2]).all()

    def test_unknown_mode(self):
        with pytest.raises(UsageError, match="unknown attention mode 'bogus'"):
            block_forward_detailed(make_tokens(3, 8, seed=4), make_block(8, 2, seed=4), mode="bogus")

    def test_dim_mismatch(self):
        w = make_block(8, 2, seed=12)
        with pytest.raises(UsageError):
            msa_forward(make_tokens(3, 6, seed=13), w)


class TestNormalizedAlphaMode:
    def test_query_scale_invariance(self):
        w = make_block(8, 2, seed=14)
        t = make_tokens(5, 8, seed=15)
        base = attention_maps(t, w, mode="normalized_alpha")
        scaled = BlockWeights(
            wq=w.wq * 37.5, wk=w.wk, wv=w.wv, wo=w.wo,
            mlp1=w.mlp1, mlp2=w.mlp2, alpha=w.alpha,
        )
        np.testing.assert_allclose(
            attention_maps(t, scaled, mode="normalized_alpha"), base, rtol=0, atol=1e-12
        )

    def test_alpha_defaults_to_one(self):
        w = make_block(8, 2, seed=16)
        bare = BlockWeights(wq=w.wq, wk=w.wk, wv=w.wv, wo=w.wo, mlp1=w.mlp1, mlp2=w.mlp2)
        assert bare.alpha is None
        t = make_tokens(4, 8, seed=17)
        with_one = BlockWeights(
            wq=w.wq, wk=w.wk, wv=w.wv, wo=w.wo, mlp1=w.mlp1, mlp2=w.mlp2, alpha=1.0
        )
        np.testing.assert_array_equal(
            attention_maps(t, bare, mode="normalized_alpha"),
            attention_maps(t, with_one, mode="normalized_alpha"),
        )

    @pytest.mark.parametrize("alpha", [0.0, math.inf, math.nan])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        w = make_block(8, 2, seed=18)
        with pytest.raises(UsageError, match="alpha must be finite and positive"):
            BlockWeights(
                wq=w.wq, wk=w.wk, wv=w.wv, wo=w.wo, mlp1=w.mlp1, mlp2=w.mlp2, alpha=alpha
            )


class TestBlockWeightsValidation:
    @pytest.mark.parametrize("name", ["wq", "wk", "wv", "wo", "mlp1", "mlp2"])
    def test_weights_must_be_finite(self, name):
        w = make_block(8, 2, seed=19)
        parts = {n: getattr(w, n).copy() for n in ("wq", "wk", "wv", "wo", "mlp1", "mlp2")}
        parts[name].flat[3] = math.nan
        with pytest.raises(DataError, match=f"{name} contains non-finite entries"):
            BlockWeights(**parts)

    @pytest.mark.parametrize("change, message", [
        (lambda p: dict(wq=p["wq"][0]), r"wq must be \(heads, dim, head_dim\)"),
        (lambda p: dict(wk=p["wk"][:, :, :2]), "wq, wk, wv shapes differ"),
        (lambda p: {n: np.concatenate([p[n]] * 3) for n in ("wq", "wk", "wv")},
         r"heads\*head_dim 6\*4 != dim 8"),
        (lambda p: dict(wo=p["wo"][:, :4]), "wo must be 8x8"),
    ], ids=["wq-2d", "qkv-differ", "heads-times-head-dim", "wo"])
    def test_shapes_must_agree(self, change, message):
        w = make_block(8, 2, seed=19)
        parts = {n: getattr(w, n) for n in ("wq", "wk", "wv", "wo", "mlp1", "mlp2")}
        with pytest.raises(UsageError, match=message):
            BlockWeights(**{**parts, **change(parts)})


class TestAttentionMaps:
    def test_single_token(self):
        w = make_block(8, 2, seed=18)
        maps = attention_maps(make_tokens(1, 8, seed=19), w)
        np.testing.assert_array_equal(maps, np.ones((2, 1, 1)))

    def test_identical_tokens_uniform_rows(self):
        w = make_block(8, 4, seed=20)
        row = np.random.default_rng(21).normal(size=8)
        maps = attention_maps(TokenSet(np.tile(row, (5, 1))), w)
        np.testing.assert_allclose(maps, 1.0 / 5.0, rtol=0, atol=1e-12)

    def test_rows_stochastic(self):
        w = make_block(16, 4, seed=22)
        maps = attention_maps(make_tokens(9, 16, seed=23), w)
        np.testing.assert_allclose(maps.sum(axis=2), 1.0, rtol=0, atol=1e-12)


class TestConvexityProperties:
    def test_head_outputs_inside_value_hull(self):
        for seed in range(5):
            w = make_block(12, 3, seed=seed)
            t = make_tokens(7, 12, seed=100 + seed)
            _, detail = block_forward_detailed(t, w)
            lo = detail.head_values.min(axis=1, keepdims=True)
            hi = detail.head_values.max(axis=1, keepdims=True)
            assert (detail.head_outputs >= lo - 1e-9).all()
            assert (detail.head_outputs <= hi + 1e-9).all()

    def test_output_spread_contracts(self):
        # max pairwise distance among head outputs <= among value rows
        from tokpool.numerics import pairwise_sq_dists

        for seed in range(5):
            w = make_block(12, 3, seed=seed)
            t = make_tokens(7, 12, seed=200 + seed)
            _, detail = block_forward_detailed(t, w, norm_and_skip=False)
            for h in range(w.heads):
                spread_v = pairwise_sq_dists(detail.head_values[h], detail.head_values[h]).max()
                spread_o = pairwise_sq_dists(detail.head_outputs[h], detail.head_outputs[h]).max()
                assert spread_o <= spread_v + 1e-9


class TestBlockForward:
    def test_token_count_unchanged(self):
        w = make_block(8, 2, seed=24)
        for n in (1, 2, 9):
            out = block_forward(make_tokens(n, 8, seed=n), w)
            assert out.n_tokens == n

    def test_residual_identity_with_zero_weights(self):
        m, h = 8, 2
        zeros = BlockWeights(
            wq=np.zeros((h, m, m // h)), wk=np.zeros((h, m, m // h)),
            wv=np.zeros((h, m, m // h)), wo=np.zeros((m, m)),
            mlp1=np.zeros((m, 4 * m)), mlp2=np.zeros((4 * m, m)),
        )
        t = make_tokens(5, m, seed=25)
        out = block_forward(t, zeros, norm_and_skip=True)
        np.testing.assert_array_equal(out.features, t.features)

    def test_bare_composition_matches_oracle(self):
        w = make_block(8, 2, seed=26)
        t = make_tokens(5, 8, seed=27)
        out = block_forward(t, w, norm_and_skip=False).features
        msa = oracle_msa(t.features, w)
        hidden = gelu(msa @ w.mlp1)
        np.testing.assert_allclose(out, hidden @ w.mlp2, rtol=0, atol=1e-10)

    def test_prenorm_matches_composed_pieces(self):
        w = make_block(8, 2, seed=28)
        t = make_tokens(4, 8, seed=29)
        x = t.features
        x1 = x + oracle_msa(layer_norm(x), w)
        expected = x1 + gelu(layer_norm(x1) @ w.mlp1) @ w.mlp2
        np.testing.assert_allclose(
            block_forward(t, w).features, expected, rtol=0, atol=1e-10
        )


class TestSynthWeights:
    def test_same_seed_bit_identical(self):
        cfg = ModelConfig(layers=3, dim=16, heads=4, tokens=5)
        a = synth_weights(cfg, 42)
        b = synth_weights(cfg, 42)
        for wa, wb in zip(a, b):
            np.testing.assert_array_equal(wa.wq, wb.wq)
            np.testing.assert_array_equal(wa.mlp2, wb.mlp2)

    def test_different_seeds_differ(self):
        cfg = ModelConfig(layers=1, dim=16, heads=4, tokens=5)
        assert (synth_weights(cfg, 1)[0].wq != synth_weights(cfg, 2)[0].wq).any()

    def test_entry_distribution(self):
        # >= 1e6 draws across one config; mean ~ 0 within 3 sigma
        cfg = ModelConfig(layers=2, dim=256, heads=4, tokens=5)
        blocks = synth_weights(cfg, 7)
        entries = np.concatenate([
            np.concatenate([w.wq.ravel(), w.wk.ravel(), w.wv.ravel(),
                            w.wo.ravel(), w.mlp1.ravel(), w.mlp2.ravel()])
            for w in blocks
        ])
        assert entries.size >= 1_000_000
        scale = 1.0 / np.sqrt(256)
        assert abs(entries.mean()) < 3 * scale / np.sqrt(entries.size)
        assert abs(entries.std() - scale) < 0.01 * scale

    def test_indivisible_heads_rejected(self):
        with pytest.raises(UsageError):
            ModelConfig(layers=1, dim=10, heads=3, tokens=4)


class TestTokenSetValidation:
    def test_weights_must_be_nonnegative(self):
        from tokpool.errors import DataError

        for bad in ([1.0, -1.0], [1.0, np.nan]):
            with pytest.raises(DataError, match="weights must be finite and nonnegative"):
                TokenSet(np.ones((2, 2)), weights=bad)
        TokenSet(np.ones((2, 2)), weights=[1.0, 0.0])  # an attention score that underflowed
        with pytest.raises(DataError, match="^counts must be finite and positive$"):
            TokenSet(np.ones((2, 2)), counts=[1.0, 0.0])

    @pytest.mark.parametrize("features, kwargs, message", [
        (np.ones((0, 2)), {}, "a token set needs at least one token"),
        (np.ones((3, 2)), dict(weights=[1.0, 1.0]), "weights length 2 != 3 tokens"),
        (np.ones((3, 2)), dict(counts=[1.0] * 4), "counts length 4 != 3 tokens"),
        (np.ones((4, 2)), dict(grid=(0, 4)), "grid dims must be positive"),
    ])
    def test_rejects_bad_fields(self, features, kwargs, message):
        with pytest.raises(UsageError, match=message):
            TokenSet(features, **kwargs)

    def test_grid_must_cover_tokens(self):
        with pytest.raises(UsageError):
            TokenSet(np.ones((6, 2)), grid=(2, 2))

    def test_grid_with_and_without_cls(self):
        TokenSet(np.ones((4, 2)), grid=(2, 2))
        TokenSet(np.ones((5, 2)), grid=(2, 2))  # row 0 is the classification slot
