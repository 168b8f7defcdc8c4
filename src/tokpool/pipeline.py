"""Forward pass over L blocks with a downsampling layer after each block.

Pooling runs if and only if the config has a schedule. After block l the
token set is pooled to the schedule's K_l tokens (the protected
classification token rides along, so the next block sees min(n_l, K_l + 1)
tokens). Weighted methods and top-k initialization use the significance
scores of the block's own attention maps. A schedule entry of 0 keeps only
the protected token; no clustering runs for it. Carry mode seeds unit counts
when the input has none, and every layer keeps counts exactly when its input
has them. Every argument is checked before the first block runs, the pooling
arguments as one ``PoolSpec`` whatever the schedule. ``blocks`` is any sized
iterable of ``config.layers`` block weights, walked once, in layer order, each
taken just as its layer runs, so a source may read or draw each layer as it
is reached. A run holds one layer at a time: block l's weights and output
are dropped before block l+1's weights are taken. Of its attention, a block
keeps only its tokens' significance, and only on a layer that pools: its
maps, values and head outputs are freed before its own MLP runs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .costmodel import LLOYD_ITERS, ModelConfig
from .errors import UsageError
from .numerics import derive_seed
from .pooling import METHODS, PoolSpec, token_pool
from .scoring import significance
from .transformer import BlockWeights, TokenSet, block_forward_detailed

POOL_METHODS = tuple(m for m in METHODS if m != "grid")
DEFAULT_POOL_METHOD = "kmedoids"


@dataclass
class LayerTrace:
    layer: int
    tokens_in: int
    tokens_out: int
    k_target: int | None
    loss: float | None
    iterations: int | None


def run_forward(
    tokens: TokenSet,
    blocks: Iterable[BlockWeights],
    config: ModelConfig,
    pool_method: str = DEFAULT_POOL_METHOD,
    pool_init: str = "topk_weight",
    pool_iters: int = LLOYD_ITERS,
    pool_seed: int = 0,
    protect_first: bool = True,
) -> tuple[TokenSet, list[LayerTrace]]:
    if len(blocks) != config.layers:
        raise UsageError(f"got {len(blocks)} blocks for {config.layers} layers")
    if tokens.dim != config.dim:
        raise UsageError(f"token dim {tokens.dim} != config dim {config.dim}")
    if tokens.n_tokens != config.tokens:
        raise UsageError(
            f"input has {tokens.n_tokens} tokens, config says {config.tokens}"
        )
    if pool_method not in POOL_METHODS:
        raise UsageError(
            f"unknown pool method {pool_method!r}; choose one of {POOL_METHODS}"
        )
    schedule = config.schedule or (None,) * config.layers
    if 0 in schedule and not protect_first:
        raise UsageError("schedule entry 0 requires a protected token to retain")
    # checked here whatever the schedule; each pooled layer sets its own k and seed
    spec = PoolSpec(method=pool_method, k=1, max_iters=pool_iters, init=pool_init,
                    protect_first=protect_first)

    cur = tokens.copy()
    if config.mode == "carry" and cur.counts is None:
        cur.counts = np.ones(cur.n_tokens)
    traces: list[LayerTrace] = []
    blocks = iter(blocks)
    for layer, k in enumerate(schedule):
        n_in = cur.n_tokens
        layer_spec = replace(spec, k=k, seed=derive_seed(pool_seed, layer)) if k else None
        # next() inline: a loop variable would keep block l alive while l+1 is read
        cur, loss, iterations = _layer(cur, next(blocks), config.mode, k, layer_spec)
        traces.append(LayerTrace(layer, n_in, cur.n_tokens, k, loss, iterations))
    return cur, traces


def _layer(tokens: TokenSet, w: BlockWeights, mode: str, k, spec):
    """One block and its downsampling: the next token set, the pooling loss
    and its iterations. The block keeps its maps' significance if the layer
    pools (``spec`` is set) and nothing otherwise; its output and scores are
    locals, freed on return, before the next block's weights are taken."""
    keep = significance if spec is not None else lambda maps: None
    out, scores = block_forward_detailed(tokens, w, mode=mode, keep=keep)
    if k == 0:  # keep only the protected token
        head = None if out.counts is None else out.counts[:1]
        return TokenSet(out.features[:1], None, head, None), None, None
    if spec is None:
        return out, None, None
    pool_in = TokenSet(out.features, scores, out.counts, None)
    pooled, result = token_pool(pool_in, spec)
    return pooled, result.loss, result.iterations
