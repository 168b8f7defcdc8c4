"""k-medoids against the full-matrix reference loop, and its memory bound.

``token_pool`` assigns k-medoids through the screened nearest-center search
and updates medoids from within-cluster distances only. The reference below
is the earlier algorithm: one token-to-token matrix per call, assignment by
gathering its medoid columns, and a per-cluster scan of that matrix, each
column weighted by the objective weights, for the update. Both must give the
same bits.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool import _kernels
from tokpool.numerics import Rng, sample_without_replacement
from tokpool.pooling import PoolSpec, token_pool
from tokpool.transformer import TokenSet


def reference_kmedoids(f, spec):
    """The full-matrix k-medoids loop: (labels, medoids, iterations, loss)."""
    offset = 1 if spec.protect_first else 0
    feats = f.features[offset:]
    n, k = feats.shape[0], spec.k
    init_w = f.weights[offset:] if f.weights is not None else np.ones(n)
    obj_w = init_w if spec.method == "wkmedoids" else np.ones(n)
    if spec.init == "topk_weight":
        init = np.argsort(-init_w, kind="stable")[:k]
    else:
        init = sample_without_replacement(Rng(spec.seed), n, k)
    medoids = np.sort(init).astype(np.int64)
    d2 = _kernels.pairwise_sq_dists(feats, feats.copy())
    rows = np.arange(n)

    def assign():
        labels = d2[:, medoids].argmin(axis=1)
        return labels, d2[rows, medoids[labels]]

    labels, errs = assign()
    prev = labels
    iterations = 0
    for step in range(spec.max_iters):
        occupied = np.bincount(labels, minlength=k) > 0
        for j in np.flatnonzero(occupied):
            idx = np.flatnonzero(labels == j)
            medoids[j] = idx[np.argmin((d2[np.ix_(idx, idx)] * obj_w[idx]).sum(axis=1))]
        if not occupied.all():
            worst = d2[:, medoids[occupied]].min(axis=1)
            for j in np.flatnonzero(~occupied):
                t = int(np.argmax(worst))
                medoids[j] = t
                worst = np.minimum(worst, d2[:, t])
                worst[t] = -np.inf
        labels, errs = assign()
        iterations = step + 1
        if np.array_equal(labels, prev):
            break
        prev = labels
    return labels, medoids, iterations, float((obj_w * errs).sum())


@st.composite
def medoid_cases(draw):
    """Tie-heavy integer tokens, optionally with a tail of padding copies.

    A scaled and shifted variant makes the distance sums inexact, so their
    summation order matters too.
    """
    protect = draw(st.booleans())
    n = draw(st.integers(2, 24)) + protect
    m = draw(st.integers(1, 5))
    ints = st.integers(-2, 2)
    feats = np.array(draw(st.lists(st.lists(ints, min_size=m, max_size=m),
                                   min_size=n, max_size=n)), dtype=np.float64)
    if draw(st.booleans()):
        feats[n - draw(st.integers(1, n - 1)):] = feats[-1]
    if draw(st.booleans()):
        feats = feats * 0.37 + draw(st.floats(-1.0, 1.0))
    method = draw(st.sampled_from(["kmedoids", "wkmedoids"]))
    weights = None
    if method == "wkmedoids" or draw(st.booleans()):
        weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                           dtype=np.float64)
    spec = PoolSpec(
        method=method,
        k=draw(st.integers(1, n - protect - 1)),
        max_iters=draw(st.integers(1, 6)),
        init=draw(st.sampled_from(["topk_weight", "random"])),
        seed=draw(st.integers(0, 2 ** 32)),
        protect_first=protect,
    )
    return TokenSet(feats, weights), spec


def check_against_reference(f, spec):
    pooled, result = token_pool(f, spec)
    labels, medoids, iterations, loss = reference_kmedoids(f, spec)
    offset = 1 if spec.protect_first else 0
    np.testing.assert_array_equal(result.assignment, labels)
    np.testing.assert_array_equal(result.medoid_indices, medoids)
    assert result.iterations == iterations
    assert repr(result.loss) == repr(loss)
    centers = f.features[offset:][medoids]
    assert result.centers.tobytes() == centers.tobytes()
    assert pooled.features.tobytes() == np.concatenate([f.features[:offset], centers]).tobytes()
    np.testing.assert_array_equal(result.counts, np.bincount(labels, minlength=spec.k))


@settings(max_examples=400, deadline=None)
@given(medoid_cases(), st.sampled_from([None, 1, 7, 64]))
def test_token_pool_matches_full_matrix_reference(case, block):
    # a small block splits even these clusters into many row chunks; the
    # constant is patched and restored here, not by a fixture, so that every
    # hypothesis example starts from the real value
    real = _kernels._BLOCK
    _kernels._BLOCK = block or real
    try:
        check_against_reference(*case)
    finally:
        _kernels._BLOCK = real


@pytest.mark.parametrize("method", ["kmedoids", "wkmedoids"])
@pytest.mark.parametrize("n,m,k", [(577, 48, 1), (577, 48, 3), (197, 384, 20), (197, 384, 89)])
def test_vit_sizes_match_full_matrix_reference(method, n, m, k):
    rng = np.random.default_rng(n + m + k)
    f = TokenSet(rng.normal(size=(n, m)), rng.uniform(0.5, 2.0, size=n))
    check_against_reference(f, PoolSpec(method=method, k=k))


def test_single_cluster_memory_bounded():
    # one cluster of 3000 tokens: a token-to-token matrix alone is 72 MB
    feats = np.random.default_rng(3).normal(size=(3000, 8))
    spec = PoolSpec(method="kmedoids", k=1, protect_first=False)
    tracemalloc.start()
    try:
        _, result = token_pool(TokenSet(feats), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.counts[0] == 3000
    assert peak < 20e6
