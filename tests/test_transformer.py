import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool.costmodel import ModelConfig
from tokpool.errors import DataError, UsageError
from tokpool.transformer import (
    _GELU_BLOCK,
    LN_EPS,
    BlockWeights,
    SeededWeights,
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
        (lambda p: dict(mlp1=p["mlp1"][:4]),
         r"mlp shapes \(4, 32\) -> \(32, 8\) do not map 8 -> hidden -> 8"),
        (lambda p: dict(mlp2=p["mlp2"][:16]),
         r"mlp shapes \(8, 32\) -> \(16, 8\) do not map 8 -> hidden -> 8"),
    ], ids=["wq-2d", "qkv-differ", "heads-times-head-dim", "wo", "mlp1", "mlp2"])
    def test_shapes_must_agree(self, change, message):
        w = make_block(8, 2, seed=19)
        parts = {n: getattr(w, n) for n in ("wq", "wk", "wv", "wo", "mlp1", "mlp2")}
        with pytest.raises(UsageError, match=message):
            BlockWeights(**{**parts, **change(parts)})


WEIGHT_NAMES = ("wq", "wk", "wv", "wo", "mlp1", "mlp2")


class TestFloat32Weights:
    @pytest.mark.parametrize("dtype, held", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float16, np.float64), (np.int64, np.float64), (">f4", np.float64),
    ])
    def test_float32_kept_other_dtypes_widened(self, dtype, held):
        w = make_block(8, 2, seed=30)
        parts = {n: getattr(w, n).astype(dtype) for n in WEIGHT_NAMES}
        kept = BlockWeights(**parts)
        for name in WEIGHT_NAMES:
            assert getattr(kept, name).dtype == held
            np.testing.assert_array_equal(getattr(kept, name), parts[name])

    @pytest.mark.parametrize("name", WEIGHT_NAMES)
    def test_float32_weights_checked_like_float64(self, name):
        w = make_block(8, 2, seed=31)
        parts = {n: getattr(w, n).astype(np.float32) for n in WEIGHT_NAMES}
        parts[name].flat[2] = np.inf
        with pytest.raises(DataError, match=f"{name} contains non-finite entries"):
            BlockWeights(**parts)
        parts[name] = parts[name][0]
        with pytest.raises(UsageError, match=f"{name} must be "):
            BlockWeights(**parts)


@st.composite
def float32_block_cases(draw):
    heads = draw(st.integers(1, 4))
    m = heads * draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    hidden = m * draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0 / np.sqrt(m), 4.0]))
    shapes = dict(wq=(heads, m, m // heads), wk=(heads, m, m // heads),
                  wv=(heads, m, m // heads), wo=(m, m), mlp1=(m, hidden), mlp2=(hidden, m))
    parts = {k: (rng.normal(size=s) * scale).astype(np.float32) for k, s in shapes.items()}
    mode = draw(st.sampled_from(["standard", "normalized_alpha", "carry"]))
    counts = rng.integers(1, 5, size=n).astype(np.float64) if mode == "carry" else None
    tokens = TokenSet(rng.normal(size=(n, m)) * draw(st.sampled_from([0.5, 3.0])),
                      counts=counts)
    return tokens, parts, mode, draw(st.booleans()), draw(st.sampled_from([None, 2.5]))


@settings(max_examples=200, deadline=None)
@given(float32_block_cases())
def test_float32_weights_give_the_bits_of_their_float64_widening(case):
    tokens, parts, mode, norm_and_skip, alpha = case
    held = BlockWeights(**parts, alpha=alpha)
    widened = BlockWeights(**{k: v.astype(np.float64) for k, v in parts.items()}, alpha=alpha)
    assert all(getattr(held, k).dtype == np.float32 for k in WEIGHT_NAMES)
    got, got_detail = block_forward_detailed(tokens, held, mode, norm_and_skip)
    want, want_detail = block_forward_detailed(tokens, widened, mode, norm_and_skip)
    for a, b in [(got.features, want.features), (got_detail.maps, want_detail.maps),
                 (got_detail.head_values, want_detail.head_values),
                 (got_detail.head_outputs, want_detail.head_outputs)]:
        assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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


class TestGelu:
    @staticmethod
    def pow_form(x):
        c = np.sqrt(2.0 / np.pi)
        return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))

    def test_within_4_ulp_of_the_pow_form(self):
        rng = np.random.default_rng(40)
        x = np.concatenate([np.linspace(-40.0, 40.0, 80_001), rng.uniform(-40, 40, 100_000),
                            rng.uniform(-6, 6, 100_000)])
        got, want = gelu(x), self.pow_form(x)
        # On x >= 0, 1 + tanh is in [1, 2] and the ulps are the output's own.
        # Below zero, 1 + tanh cancels, so one ulp in the cube can move the
        # output by thousands of its ulps; there the bound is in ulps of |x|.
        pos = x >= 0
        assert (np.abs(got - want)[pos] <= 4 * np.spacing(want[pos])).all()
        assert (np.abs(got - want) <= 4 * np.spacing(np.abs(x))).all()

    def test_exact_zero_at_zero(self):
        zero = np.zeros(3)
        assert gelu(zero).tobytes() == zero.tobytes()
        assert self.pow_form(zero).tobytes() == zero.tobytes()


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

    def test_synth_weights_is_the_seeded_walk_held(self):
        # the list and a walk of the streamed source give the same arrays, bit
        # for bit, and a second walk starts the stream afresh
        cfg = ModelConfig(layers=3, dim=16, heads=4, tokens=5, alpha=2.0)
        held = synth_weights(cfg, 9)
        streamed = SeededWeights(cfg, 9)
        assert len(streamed) == 3
        for walk in range(2):
            blocks = list(streamed)
            assert len(blocks) == 3
            for a, b in zip(held, blocks):
                assert a.alpha == b.alpha == 2.0
                for name in ("wq", "wk", "wv", "wo", "mlp1", "mlp2"):
                    x, y = getattr(a, name), getattr(b, name)
                    assert x.dtype == y.dtype == np.float64
                    assert x.shape == y.shape and x.tobytes() == y.tobytes()

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


def _awkward_values():
    """Random values of several scales, with +-0, subnormals and +-1e300."""
    rng = np.random.default_rng(21)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 1e-200, 30.0, -30.0]
    return np.concatenate([rng.normal(size=997), 10.0 * rng.normal(size=500),
                           1e-160 * rng.normal(size=100), special])


def _gelu_block_edges():
    """Awkward values in shapes below, at and across the edge of a block of
    GELU steps, which holds whole rows."""
    edge = _GELU_BLOCK // 1536  # rows in one block at a width of 1536
    shapes = [(1, 1536), (edge - 1, 1536), (edge, 1536), (edge + 1, 1536), (2 * edge, 1536),
              (2 * edge + 1, 1536), (_GELU_BLOCK - 1,), (_GELU_BLOCK,), (_GELU_BLOCK + 1,),
              (3, _GELU_BLOCK + 5), (2, 0), (0, 4), ()]
    return [np.resize(_awkward_values(), math.prod(s)).reshape(s) for s in shapes]


class TestInPlaceNumerics:
    """gelu and layer_norm keep the bits of their written-out formulas."""

    @pytest.mark.parametrize("x", [
        _awkward_values(), _awkward_values().reshape(1, -1), _awkward_values().reshape(-1, 1),
        np.random.default_rng(22).normal(size=(197, 1536)),  # a DeiT-S hidden layer
        *_gelu_block_edges(),
    ])
    def test_gelu_matches_the_formula_and_leaves_its_input(self, x):
        before = x.copy()
        c = np.sqrt(2.0 / np.pi)
        with np.errstate(over="ignore"):  # at +-1e300, 0.044715 * x**3 overflows to +-inf
            want = 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))
            got = gelu(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("rows", [
        np.random.default_rng(23).normal(size=(9, 384)),
        np.random.default_rng(24).normal(size=(5, 7)) * 1e150,
        np.array([[0.0, -0.0, 5e-324, -5e-324], [3.0, 3.0, 3.0, 3.0], [1.0, -1.0, 1e-300, 2.0]]),
    ])
    def test_layer_norm_matches_the_formula_and_leaves_its_input(self, rows):
        before = rows.copy()
        mean = rows.mean(axis=1, keepdims=True)
        var = rows.var(axis=1, keepdims=True)
        want = (rows - mean) / np.sqrt(var + LN_EPS)
        got = layer_norm(rows)
        assert got.tobytes() == want.tobytes()
        assert rows.tobytes() == before.tobytes()
