"""Forward pass over L blocks with a downsampling layer after each block.

Pooling runs if and only if the config has a schedule. After block l the
token set is pooled to the schedule's K_l tokens (the protected
classification token rides along, so the next block sees min(n_l, K_l + 1)
tokens). Weighted methods and top-k initialization use the significance
scores of the block's own attention maps. A schedule entry of 0 keeps only
the protected token; no clustering runs for it. Carry mode seeds unit counts
when the input has none, and every layer keeps counts exactly when its input
has them. Every argument, and every scheduled layer's ``PoolSpec``, is
checked before the first block runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costmodel import ModelConfig
from .errors import UsageError
from .numerics import derive_seed
from .pooling import METHODS, PoolSpec, token_pool
from .scoring import significance
from .transformer import BlockWeights, TokenSet, block_forward_detailed

POOL_METHODS = tuple(m for m in METHODS if m != "grid")


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
    blocks: list[BlockWeights],
    config: ModelConfig,
    pool_method: str = "kmedoids",
    pool_init: str = "topk_weight",
    pool_iters: int = 5,
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
    specs = [
        PoolSpec(
            method=pool_method,
            k=k,
            max_iters=pool_iters,
            init=pool_init,
            seed=derive_seed(pool_seed, layer),
            protect_first=protect_first,
        ) if k else None
        for layer, k in enumerate(schedule)
    ]

    cur = tokens.copy()
    if config.mode == "carry" and cur.counts is None:
        cur.counts = np.ones(cur.n_tokens)
    traces: list[LayerTrace] = []
    for layer, (k, spec) in enumerate(zip(schedule, specs)):
        n_in = cur.n_tokens
        out, detail = block_forward_detailed(cur, blocks[layer], mode=config.mode)
        loss = iterations = None
        if k == 0:  # keep only the protected token
            head = None if out.counts is None else out.counts[:1]
            cur = TokenSet(out.features[:1], None, head, None)
        elif spec is not None:
            pool_in = TokenSet(out.features, significance(detail.maps), out.counts, None)
            cur, result = token_pool(pool_in, spec)
            loss, iterations = result.loss, result.iterations
        else:
            cur = out
        traces.append(LayerTrace(layer, n_in, cur.n_tokens, k, loss, iterations))
    return cur, traces
