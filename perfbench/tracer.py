"""Traced op runner and span summary.

Run as ``python3 tracer.py SPANS_OUT OP_ID -- <tokpool argv>``: it imports
``tokpool.cli``, wraps the public functions of each layer at the name its
caller looks them up by, calls ``tokpool.cli.main(argv)`` and exits with its
code. Spans (name, start, end, parent, op id, counts) stay in memory and are
written to SPANS_OUT when the op ends. The program's code is not modified.
``PERFBENCH_SPAWN_NS`` carries the parent's CLOCK_MONOTONIC reading at
spawn, so start-up time is measured from spawn to ``cli.main`` entry.

``summarize`` turns one op's spans into per-layer sums; the harness adds
them over ops.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import arith

_clock_ns = time.monotonic_ns  # CLOCK_MONOTONIC: one clock for every process


class Tracer:
    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        """Return ``fn`` wrapped in a span; ``counts(args, result)`` adds counters."""
        spans, stack, op_id = self.spans, self._stack, self.op_id

        def traced(*args, **kwargs):
            span = {"name": name, "op": op_id, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = _clock_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _clock_ns()
                stack.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, counts=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts))


def install(tracer: Tracer):
    """Wrap each layer's public functions at every name the CLI path calls them by."""
    from tokpool import _kernels, cli, costmodel, io, numerics, pipeline, pooling

    def file_bytes(args, _):
        return {"bytes": os.path.getsize(args[0])}

    def draws(args, result):
        return {"draws": 1 if isinstance(result, float) else int(result.size)}

    def block(args, _):
        tokens, w = args[0], args[1]
        hidden = w.mlp1.shape[1]
        cfg = costmodel.ModelConfig(layers=1, dim=w.dim, heads=w.heads,
                                    tokens=tokens.n_tokens, mlp_ratio=hidden // w.dim)
        return {"n": tokens.n_tokens,
                "flops": sum(costmodel.block_flops(tokens.n_tokens, cfg).values())}

    def pool(args, result):
        f, spec = args[0], args[1]
        family = {"kmeans": "kmeans", "wkmeans": "kmeans",
                  "kmedoids": "kmedoids", "wkmedoids": "kmedoids"}.get(spec.method)
        modeled = 0
        if family is not None:
            # the cost model's n counts the protected token, as model_flops does
            modeled = costmodel.clustering_flops(f.n_tokens, spec.k, f.dim, family,
                                                 spec.max_iters)
        return {"method": spec.method, "n": f.n_tokens, "k": spec.k,
                "iters_max": spec.max_iters, "iterations": int(result[1].iterations),
                "modeled_flops": modeled}

    def dist(args, _):
        a, b = args
        return {"mac": int(a.shape[0]) * int(b.shape[0]) * int(a.shape[1])}

    def medoid(args, _):
        import numpy as np

        sizes = np.bincount(args[1], minlength=args[2]).astype(np.int64)
        return {"adds": int((sizes * sizes).sum())}

    tracer.patch(io, "read_matrix", "io.read_matrix", file_bytes)
    tracer.patch(io, "read_config", "io.read_config")
    tracer.patch(io, "write_matrix", "io.write_matrix")
    tracer.patch(numerics.Rng, "normal", "numerics.normal", draws)
    tracer.patch(cli, "synth_weights", "transformer.synth_weights")
    tracer.patch(pipeline, "block_forward_detailed", "transformer.block", block)
    tracer.patch(cli, "significance", "scoring.significance")
    tracer.patch(pipeline, "significance", "scoring.significance")
    tracer.patch(pooling, "token_pool", "pooling.token_pool", pool)
    tracer.patch(pipeline, "token_pool", "pooling.token_pool", pool)
    tracer.patch(_kernels, "pairwise_sq_dists", "kernels.pairwise_sq_dists", dist)
    tracer.patch(_kernels, "medoid_update", "kernels.medoid_update", medoid)
    tracer.patch(pipeline, "run_forward", "pipeline.run_forward")
    return tracer.wrap("cli.main", cli.main)


def summarize(doc: dict) -> dict:
    """Per-layer sums for one traced op, plus per-method clustering records."""
    spans = [dict(s, start=s["start"] / 1e9, end=s["end"] / 1e9) for s in doc["spans"]]
    selfs = arith.self_times(spans)
    sums: dict[str, float] = defaultdict(float)
    methods: dict[str, dict] = defaultdict(lambda: defaultdict(float))

    def pool_ancestor(i):
        p = spans[i]["parent"]
        while p is not None and spans[p]["name"] != "pooling.token_pool":
            p = spans[p]["parent"]
        return p

    for i, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        if name == "cli.main":
            sums["cli.startup_s"] += s["start"] - doc["spawn_ns"] / 1e9
            sums["cli.self_s"] += selfs[i]
        elif name in ("io.read_matrix", "io.read_config"):
            sums["io.read_s"] += dur
            sums["io.read_mb"] += s.get("bytes", 0) / 1e6
        elif name == "io.write_matrix":
            sums["io.write_s"] += dur
        elif name == "numerics.normal":
            sums["numerics.normal_s"] += dur
            sums["numerics.normal_draws"] += s["draws"]
        elif name == "transformer.synth_weights":
            sums["transformer.synth_s"] += dur
        elif name == "transformer.block":
            sums["transformer.block_s"] += dur
            sums["transformer.block_calls"] += 1
            sums["transformer.block_tokens"] += s["n"]
            sums["transformer.block_flops"] += s["flops"]
            sums["costmodel.modeled_flops"] += s["flops"]
        elif name == "scoring.significance":
            sums["scoring.significance_s"] += dur
        elif name == "pooling.token_pool":
            sums["pooling.token_pool_s"] += dur
            sums["pooling.calls"] += 1
            sums["pooling.self_s"] += selfs[i]
            sums[f"pooling.{s['method']}_s"] += dur
            sums["costmodel.modeled_flops"] += s["modeled_flops"]
            rec = methods[s["method"]]
            rec["calls"] += 1
            rec["seconds"] += dur
            rec["modeled_flops"] += s["modeled_flops"]
            if s["modeled_flops"]:
                sums["pooling.lloyd_iters"] += s["iterations"]
                sums["pooling.clustering_calls"] += 1
                sums["costmodel.cluster_modeled_flops"] += s["modeled_flops"]
                rec["clustered_calls"] += 1
                rec["iterations"] += s["iterations"]
                rec["iters_max"] += s["iters_max"]
        elif name == "kernels.pairwise_sq_dists":
            sums["kernels.dist_s"] += dur
            sums["kernels.dist_calls"] += 1
            sums["kernels.dist_mac"] += s["mac"]
            p = pool_ancestor(i)
            if p is not None:
                rec = methods[spans[p]["method"]]
                rec["dist_mac"] += s["mac"]
                rec["dist_calls"] += 1
                if spans[p]["modeled_flops"]:
                    sums["costmodel.cluster_counted_mac"] += s["mac"]
        elif name == "kernels.medoid_update":
            sums["kernels.medoid_update_s"] += dur
            sums["kernels.medoid_update_calls"] += 1
            sums["kernels.medoid_update_adds"] += s["adds"]
            p = pool_ancestor(i)
            if p is not None:
                methods[spans[p]["method"]]["medoid_adds"] += s["adds"]
        elif name == "pipeline.run_forward":
            sums["pipeline.run_forward_s"] += dur
            sums["pipeline.self_s"] += selfs[i]
    return {"sums": dict(sums), "methods": {m: dict(r) for m, r in methods.items()}}


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        print("usage: tracer.py SPANS_OUT OP_ID -- <tokpool argv>", file=sys.stderr)
        return 1
    spans_out, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[4:]
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    tracer = Tracer(op_id)
    main_fn = install(tracer)
    code = None
    try:
        code = main_fn(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"op": op_id, "spawn_ns": spawn_ns, "exit_code": code,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
