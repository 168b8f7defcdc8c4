"""Batched attention against the per-head reference loop.

The block computes every head in one ``(H, N, N)`` batch and normalizes with
``_kernels.softmax`` in place. The reference below is the earlier loop: one
head at a time, a fresh softmax per head, heads joined by concatenation. Both
must give the same bits: maps, values, head outputs and the projected output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool.costmodel import MODES
from tokpool.errors import DataError
from tokpool.transformer import (
    BlockWeights,
    TokenSet,
    _msa_detail,
    block_forward_detailed,
    gelu,
    layer_norm,
    msa_forward,
)


def reference_msa(features, counts, w, mode):
    """Per-head loop: (maps, values, head outputs, projected output)."""
    n = features.shape[0]
    h, _, d = w.wq.shape
    maps = np.empty((h, n, n))
    values = np.empty((h, n, d))
    head_out = np.empty((h, n, d))
    for i in range(h):
        q = features @ w.wq[i]
        k = features @ w.wk[i]
        v = features @ w.wv[i]
        if mode == "normalized_alpha":
            alpha = 1.0 if w.alpha is None else float(w.alpha)
            qn = np.linalg.norm(q, axis=1, keepdims=True)
            kn = np.linalg.norm(k, axis=1, keepdims=True)
            if (qn == 0).any() or (kn == 0).any():
                raise DataError("cannot normalize a zero query/key row")
            logits = alpha * ((q / qn) @ (k / kn).T)
        else:
            logits = (q @ k.T) / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        if mode == "carry":
            e = e * counts[None, :]
        a = e / e.sum(axis=1, keepdims=True)
        maps[i] = a
        values[i] = v
        head_out[i] = a @ v
    return maps, values, head_out, np.concatenate(list(head_out), axis=1) @ w.wo


def random_case(h, d, n, seed, dup, alpha=None, counts_kind="none"):
    rng = np.random.default_rng(seed)
    m = h * d
    feats = rng.normal(size=(n, m))
    if dup and n > 1:
        src = rng.integers(0, n, size=n // 2 + 1)
        dst = rng.integers(0, n, size=src.size)
        feats[dst] = feats[src]
    scale = 1.0 / np.sqrt(m)
    w = BlockWeights(
        wq=rng.normal(size=(h, m, d)) * scale,
        wk=rng.normal(size=(h, m, d)) * scale,
        wv=rng.normal(size=(h, m, d)) * scale,
        wo=rng.normal(size=(m, m)) * scale,
        mlp1=rng.normal(size=(m, m)) * scale,
        mlp2=rng.normal(size=(m, m)) * scale,
        alpha=alpha,
    )
    if counts_kind == "integer":
        counts = rng.integers(1, 40, size=n).astype(np.float64)
    elif counts_kind == "real":
        counts = rng.uniform(0.1, 9.0, size=n)
    else:
        counts = None
    return feats, counts, w


def assert_matches_reference(feats, counts, w, mode):
    maps, values, head_out, out = reference_msa(feats, counts, w, mode)
    got_out, detail = _msa_detail(feats, counts, w, mode)
    np.testing.assert_array_equal(detail.maps, maps)
    np.testing.assert_array_equal(detail.head_values, values)
    np.testing.assert_array_equal(detail.head_outputs, head_out)
    np.testing.assert_array_equal(got_out, out)


@st.composite
def attention_cases(draw):
    h = draw(st.sampled_from([1, 2, 3, 6, 12]))
    d = draw(st.integers(1, 768 // h))
    n = draw(st.integers(1, 200))
    mode = draw(st.sampled_from(MODES))
    alpha = draw(st.sampled_from([None, 1.0, 0.37, 12.5]))
    counts_kind = draw(st.sampled_from(["none", "integer", "real"]))
    if mode == "carry" and counts_kind == "none":
        counts_kind = "integer"
    return h, d, n, mode, draw(st.integers(0, 2**32 - 1)), draw(st.booleans()), alpha, counts_kind


class TestBatchedAgainstLoop:
    @settings(max_examples=60, deadline=None)
    @given(attention_cases())
    def test_bit_identical(self, case):
        h, d, n, mode, seed, dup, alpha, counts_kind = case
        feats, counts, w = random_case(h, d, n, seed, dup, alpha, counts_kind)
        assert_matches_reference(feats, counts, w, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_bit_identical_at_577_tokens(self, mode):
        feats, counts, w = random_case(6, 64, 577, seed=577, dup=True, counts_kind="integer")
        assert_matches_reference(feats, counts, w, mode)

    @pytest.mark.parametrize("norm_and_skip", [True, False])
    @pytest.mark.parametrize("mode", MODES)
    def test_block_matches_reference_composition(self, mode, norm_and_skip):
        feats, counts, w = random_case(3, 16, 40, seed=41, dup=True, counts_kind="real")
        if norm_and_skip:
            x = feats + reference_msa(layer_norm(feats), counts, w, mode)[3]
            expected = x + gelu(layer_norm(x) @ w.mlp1) @ w.mlp2
        else:
            expected = gelu(reference_msa(feats, counts, w, mode)[3] @ w.mlp1) @ w.mlp2
        out, _ = block_forward_detailed(TokenSet(feats, counts=counts), w, mode, norm_and_skip)
        np.testing.assert_array_equal(out.features, expected)


class TestZeroNormRows:
    @pytest.mark.parametrize("zero", ["token", "query", "key"])
    def test_normalized_alpha_rejects_zero_row(self, zero):
        feats, _, w = random_case(2, 4, 5, seed=3, dup=False, alpha=2.0)
        if zero == "token":
            feats[2] = 0.0
        else:
            getattr(w, "wq" if zero == "query" else "wk")[1] = 0.0
        with pytest.raises(DataError, match="cannot normalize a zero query/key row"):
            msa_forward(TokenSet(feats), w, mode="normalized_alpha")
        # the other modes have no norm to take
        msa_forward(TokenSet(feats), w, mode="standard")
