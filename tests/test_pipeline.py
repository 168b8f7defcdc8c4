"""``run_forward`` against the earlier per-layer loop, and its argument checks.

``run_forward`` builds every scheduled layer's ``PoolSpec`` before block 0
and runs one step per layer. The reference below is the earlier loop: it
builds each spec after the layer's block has run, and pools K >= n through
an early return of the input. Both must give the same final features,
carry-mode counts and traces, bit for bit, or raise the same error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool import pipeline
from tokpool.costmodel import ModelConfig
from tokpool.errors import DataError, TokpoolError, UsageError
from tokpool.numerics import derive_seed
from tokpool.pipeline import POOL_METHODS, LayerTrace, run_forward
from tokpool.pooling import PoolSpec, token_pool
from tokpool.scoring import significance
from tokpool.transformer import TokenSet, block_forward_detailed, synth_weights


def reference_token_pool(f, spec):
    """``token_pool`` with its earlier K >= n early return."""
    offset = 1 if spec.protect_first else 0
    if spec.k >= f.n_tokens - offset:
        return f.copy(), token_pool(f, spec)[1]
    return token_pool(f, spec)


def reference_run_forward(tokens, blocks, config, pool_method=None,
                          pool_init="topk_weight", pool_iters=5, pool_seed=0,
                          protect_first=True):
    """The earlier loop; ``pool_method=None`` skipped pooling."""
    if pool_method is not None and pool_method not in POOL_METHODS:
        raise UsageError(
            f"unknown pool method {pool_method!r}; choose one of {POOL_METHODS}"
        )
    mode = config.mode
    carry = mode == "carry"
    cur = tokens.copy()
    if carry and cur.counts is None:
        cur.counts = np.ones(cur.n_tokens)

    pooling = pool_method is not None and config.schedule is not None
    traces = []
    for layer in range(config.layers):
        n_in = cur.n_tokens
        out, detail = block_forward_detailed(cur, blocks[layer], mode=mode)
        k_target = config.schedule[layer] if config.schedule is not None else None
        loss = None
        iterations = None
        if pooling:
            k = config.schedule[layer]
            if k == 0:
                if not protect_first:
                    raise UsageError(
                        "schedule entry 0 requires a protected token to retain"
                    )
                counts = out.counts[:1] if (carry and out.counts is not None) else None
                cur = TokenSet(out.features[:1], None, counts, None)
            else:
                scores = significance(detail.maps)
                pool_in = TokenSet(out.features, scores, out.counts, None)
                spec = PoolSpec(
                    method=pool_method,
                    k=k,
                    max_iters=pool_iters,
                    init=pool_init,
                    seed=derive_seed(pool_seed, layer),
                    protect_first=protect_first,
                )
                cur, result = reference_token_pool(pool_in, spec)
                loss = result.loss
                iterations = result.iterations
        else:
            cur = out
        traces.append(LayerTrace(layer, n_in, cur.n_tokens, k_target, loss, iterations))
    return cur, traces


def _outcome(fn, *args, **kwargs):
    try:
        final, traces = fn(*args, **kwargs)
    except TokpoolError as exc:
        return type(exc), str(exc)
    counts = None if final.counts is None else final.counts.tobytes()
    return final.features.tobytes(), final.features.shape, counts, traces


@st.composite
def forward_cases(draw):
    layers = draw(st.integers(1, 3))
    heads = draw(st.integers(1, 2))
    dim = heads * draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    # entries run from 0 (protected token only) past n (K >= n, no clustering)
    schedule = None
    if draw(st.booleans()) or draw(st.booleans()):
        schedule = draw(st.lists(st.integers(0, n + 1), min_size=layers, max_size=layers))
    mode = draw(st.sampled_from(["standard", "normalized_alpha", "carry"]))
    config = ModelConfig(layers=layers, dim=dim, heads=heads, tokens=n,
                         schedule=schedule, mode=mode, alpha=2.5)
    seed = draw(st.integers(0, 2**16))
    feats = np.random.default_rng(seed).normal(size=(n, dim))
    kwargs = dict(
        pool_method=draw(st.sampled_from(POOL_METHODS)),
        pool_init=draw(st.sampled_from(["topk_weight", "random"])),
        pool_iters=draw(st.integers(1, 4)),
        pool_seed=seed,
        protect_first=draw(st.booleans()),
    )
    return TokenSet(feats), synth_weights(config, seed), config, kwargs


@settings(max_examples=150, deadline=None)
@given(forward_cases())
def test_matches_reference_loop(case):
    tokens, blocks, config, kwargs = case
    want = _outcome(reference_run_forward, tokens, blocks, config, **kwargs)
    got = _outcome(run_forward, tokens, blocks, config, **kwargs)
    if not kwargs["protect_first"] and 0 in (config.schedule or ()):
        # now rejected before block 0; the loop raised it, or a block's own
        # data error, only on reaching that layer
        assert got == (UsageError, "schedule entry 0 requires a protected token to retain")
        assert want[0] in (UsageError, DataError)
    else:
        assert got == want


def _desk():
    config = ModelConfig(layers=3, dim=8, heads=2, tokens=6, schedule=(3, 0, 1))
    tokens = TokenSet(np.random.default_rng(3).normal(size=(6, 8)))
    return tokens, synth_weights(config, 4), config


def test_schedule_alone_turns_pooling_on():
    tokens, blocks, config = _desk()
    final, traces = run_forward(tokens, blocks, config)
    want = reference_run_forward(tokens, blocks, config, pool_method="kmedoids")
    assert final.features.tobytes() == want[0].features.tobytes()
    assert traces == want[1]
    assert [t.tokens_out for t in traces] == [4, 1, 1]


class OnePass:
    """A sized iterable that can be walked once, logging each pull."""

    def __init__(self, blocks, log):
        self._blocks, self._log = blocks, log

    def __len__(self):
        return len(self._blocks)

    def __iter__(self):
        assert self._blocks is not None, "walked twice"
        blocks, self._blocks = self._blocks, None
        for layer, w in enumerate(blocks):
            self._log.append(("pull", layer))
            yield w


@pytest.mark.parametrize("mode, schedule", [
    ("standard", (3, 0, 1)), ("carry", (4, 2, 2)), ("normalized_alpha", None),
])
def test_sized_one_pass_iterable_matches_list(monkeypatch, mode, schedule):
    # each block is pulled once, in layer order, just before its layer runs
    config = ModelConfig(layers=3, dim=8, heads=2, tokens=6, schedule=schedule, mode=mode)
    tokens = TokenSet(np.random.default_rng(3).normal(size=(6, 8)))
    blocks = synth_weights(config, 4)
    want = _outcome(run_forward, tokens, blocks, config, pool_method="wkmeans")
    log = []
    real = pipeline.block_forward_detailed
    monkeypatch.setattr(pipeline, "block_forward_detailed",
                        lambda *a, **kw: log.append(("block",)) or real(*a, **kw))
    got = _outcome(run_forward, tokens, OnePass(blocks, log), config, pool_method="wkmeans")
    assert got == want
    assert log == [("pull", 0), ("block",), ("pull", 1), ("block",), ("pull", 2), ("block",)]


@pytest.mark.parametrize("kwargs, message", [
    (dict(pool_method=None), "unknown pool method None"),
    (dict(pool_method="grid"), "unknown pool method 'grid'"),
    (dict(pool_init="kmeans++"), "unknown init"),
    (dict(pool_iters=0), "max_iters must be >= 1"),
    (dict(protect_first=False), "schedule entry 0 requires a protected token"),
    (dict(blocks=_desk()[1][:2]), "got 2 blocks for 3 layers"),
    (dict(tokens=TokenSet(np.ones((6, 4)))), "token dim 4 != config dim 8"),
    (dict(tokens=TokenSet(np.ones((5, 8)))), "input has 5 tokens, config says 6"),
])
def test_rejected_before_any_block(monkeypatch, kwargs, message):
    calls = []

    def counting_block(*args, **kw):
        calls.append(1)
        return block_forward_detailed(*args, **kw)

    monkeypatch.setattr(pipeline, "block_forward_detailed", counting_block)
    tokens, blocks, config = _desk()
    run_forward(tokens, blocks, config)
    assert len(calls) == 3
    calls.clear()
    with pytest.raises(UsageError, match=message):
        run_forward(**{"tokens": tokens, "blocks": blocks, "config": config, **kwargs})
    assert calls == []
