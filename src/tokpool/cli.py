"""Command-line front end.

Subcommands: ``cost``, ``pool``, ``score``, ``forward``, ``verify-filter``.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 verification
failure. Results go to stdout or ``--out`` files; errors go to stderr.
Identical argv (including seeds) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as tpio
from . import pipeline, pooling
from .costmodel import CATEGORIES, FlopReport, breakdown_fractions, model_flops
from .errors import DataError, UsageError
from .filterlab import verify_equivalence
from .scoring import significance
from .transformer import TokenSet, synth_weights

_WEIGHT_NAMES = ("wq", "wk", "wv", "wo", "mlp1", "mlp2")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); map to usage error
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tokpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="flop report for a model config")
    p.add_argument("--config", required=True, help="model config JSON")
    p.add_argument("--schedule", help="override schedule from a JSON array file")
    p.add_argument("--clustering", choices=("kmeans", "kmedoids"),
                   help="include clustering overhead for downsampled layers")
    p.add_argument("--iters", type=int, default=5, help="clustering iterations T")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p = sub.add_parser("pool", help="downsample a token matrix")
    p.add_argument("--input", required=True, help="token matrix (.tpm or .csv)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", required=True, choices=pooling.METHODS)
    p.add_argument("--weights", help="per-token weight matrix (N x 1)")
    p.add_argument("--scores-from", help="attention maps file; weights = significance")
    p.add_argument("--heads", type=int, help="head count for --scores-from")
    p.add_argument("--init", choices=("topk", "random"), default="topk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--no-protect-first", action="store_true",
                   help="also cluster the first (classification) token")
    p.add_argument("--grid", type=int, nargs=2, metavar=("H", "W"),
                   help="token grid dims (required for the grid method)")
    p.add_argument("--emit-counts", dest="unit_counts", action="store_true",
                   help="attach carry counts to the pooled token set "
                   "(the cluster record in --assignments carries them either way)")
    p.add_argument("--out", required=True)
    p.add_argument("--assignments", help="dump the cluster record as JSON")

    p = sub.add_parser("score", help="significance scores from attention maps")
    p.add_argument("--attention", required=True, help="(H*N) x N maps file")
    p.add_argument("--heads", type=int, required=True)
    p.add_argument("--out", required=True, help="output N x 1 matrix")

    p = sub.add_parser("forward", help="run L blocks with pooling per schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True, help="N x M token matrix")
    p.add_argument("--seed", type=int, help="synthesize block weights from this seed")
    p.add_argument("--weights-dir", help="directory of layer{L:02d}_{name}.tpm files")
    p.add_argument("--pool-method", choices=pipeline.POOL_METHODS, default="kmedoids")
    p.add_argument("--pool-init", choices=("topk", "random"), default="topk")
    p.add_argument("--pool-iters", type=int, default=5)
    p.add_argument("--no-protect-first", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write per-layer token counts and losses (JSON)")

    p = sub.add_parser("verify-filter",
                       help="check softmax attention == Gaussian filtering")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--no-normalize", action="store_true",
                   help="draw key/query norms in [0.5, 2) instead of 1")
    return parser


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def _gflops(v: int) -> str:
    return f"{v / 1e9:.4f}"


def _cost_json(config, report: FlopReport) -> str:
    payload = {
        "config": {
            "layers": config.layers,
            "dim": config.dim,
            "heads": config.heads,
            "tokens": config.tokens,
            "mlp_ratio": config.mlp_ratio,
            "schedule": list(config.schedule) if config.schedule else None,
        },
        "per_layer": [
            {"layer": i, "tokens": lf.tokens, **{c: getattr(lf, c) for c in CATEGORIES},
             "total": lf.total}
            for i, lf in enumerate(report.per_layer)
        ],
        "totals": report.totals,
        "grand_total": report.grand_total,
        "shares": breakdown_fractions(report),
    }
    return json.dumps(payload, indent=2)


def _cost_csv(report: FlopReport) -> str:
    lines = ["layer,tokens," + ",".join(CATEGORIES) + ",total"]
    for i, lf in enumerate(report.per_layer):
        cells = [str(i), str(lf.tokens)] + [str(getattr(lf, c)) for c in CATEGORIES]
        lines.append(",".join(cells + [str(lf.total)]))
    totals = report.totals
    lines.append(
        "total,," + ",".join(str(totals[c]) for c in CATEGORIES)
        + f",{report.grand_total}"
    )
    return "\n".join(lines)


def _cost_table(report: FlopReport) -> str:
    head = f"{'layer':>5} {'tokens':>7}" + "".join(f"{c:>12}" for c in CATEGORIES) + f"{'total':>12}"
    lines = [head, "-" * len(head)]
    for i, lf in enumerate(report.per_layer):
        row = f"{i:>5} {lf.tokens:>7}"
        row += "".join(f"{_gflops(getattr(lf, c)):>12}" for c in CATEGORIES)
        row += f"{_gflops(lf.total):>12}"
        lines.append(row)
    totals = report.totals
    foot = f"{'all':>5} {'':>7}"
    foot += "".join(f"{_gflops(totals[c]):>12}" for c in CATEGORIES)
    foot += f"{_gflops(report.grand_total):>12}"
    lines.append("-" * len(head))
    lines.append(foot)
    shares = breakdown_fractions(report)
    fc = shares["qkv"] + shares["oproj"] + shares["mlp"]
    lines.append(
        f"Gflops shown. attention share {shares['attention']:.3f}, "
        f"fully-connected share {fc:.3f}, clustering share {shares['clustering']:.3f}"
    )
    return "\n".join(lines)


def _cmd_cost(args) -> int:
    config = tpio.read_config(args.config)
    if args.schedule:
        sched = tpio.read_schedule(args.schedule)
        try:
            config = dataclasses.replace(config, schedule=sched)
        except UsageError as exc:
            raise DataError(f"{args.schedule}: {exc}") from None
    report = model_flops(config, args.clustering, args.iters)
    if args.format == "json":
        print(_cost_json(config, report))
    elif args.format == "csv":
        print(_cost_csv(report))
    else:
        print(_cost_table(report))
    return 0


# ---------------------------------------------------------------------------
# pool / score
# ---------------------------------------------------------------------------


def _load_weight_vector(path, n) -> np.ndarray:
    mat = tpio.read_matrix(path)
    flat = mat.reshape(-1)
    if flat.shape[0] != n:
        raise DataError(f"{path}: expected {n} weights, got {flat.shape[0]}")
    return flat


def _read_tokens(path) -> np.ndarray:
    feats = tpio.read_matrix(path)
    if feats.size == 0:
        raise DataError(
            f"{path}: a token matrix needs at least one row and one column, "
            f"got {feats.shape[0]}x{feats.shape[1]}"
        )
    return feats


def _cmd_pool(args) -> int:
    feats = _read_tokens(args.input)
    n = feats.shape[0]
    weights = None
    if args.weights and args.scores_from:
        raise UsageError("give either --weights or --scores-from, not both")
    if args.weights:
        weights = _load_weight_vector(args.weights, n)
    elif args.scores_from:
        if not args.heads:
            raise UsageError("--scores-from requires --heads")
        maps = tpio.read_attention_maps(args.scores_from, args.heads)
        if maps.shape[1] != n:
            raise DataError(
                f"{args.scores_from}: maps cover {maps.shape[1]} tokens, input has {n}"
            )
        weights = significance(maps)
    grid = tuple(args.grid) if args.grid else None
    if args.method == "grid" and grid is None:
        raise UsageError("the grid method requires --grid H W")
    tokens = TokenSet(feats, weights, np.ones(n) if args.unit_counts else None, grid)
    spec = pooling.PoolSpec(
        method=args.method,
        k=args.k,
        max_iters=args.iters,
        init="topk_weight" if args.init == "topk" else "random",
        seed=args.seed,
        protect_first=not args.no_protect_first,
    )
    pooled, result = pooling.token_pool(tokens, spec)
    tpio.write_matrix(args.out, pooled.features)
    if args.assignments:
        record = {
            "method": args.method,
            "k": args.k,
            "protect_first": not args.no_protect_first,
            "iterations": result.iterations,
            "loss": result.loss,
            "assignment": [int(v) for v in result.assignment],
            "medoid_indices": (
                None if result.medoid_indices is None
                else [int(v) for v in result.medoid_indices]
            ),
            "counts": [float(v) for v in result.counts],
        }
        with open(args.assignments, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


def _cmd_score(args) -> int:
    maps = tpio.read_attention_maps(args.attention, args.heads)
    scores = significance(maps)
    tpio.write_matrix(args.out, scores.reshape(-1, 1))
    return 0


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _load_weights_dir(path, config):
    from .transformer import BlockWeights

    blocks = []
    for layer in range(config.layers):
        parts = {}
        for name in _WEIGHT_NAMES:
            fpath = os.path.join(path, f"layer{layer:02d}_{name}.tpm")
            parts[name] = tpio.read_matrix(fpath)
        h, m, d = config.heads, config.dim, config.head_dim
        for name in ("wq", "wk", "wv"):
            mat = parts[name]
            if mat.shape != (m, m):
                raise DataError(
                    f"{path}: {name} of layer {layer} must be {m}x{m} "
                    f"(heads concatenated column-wise), got {mat.shape}"
                )
            parts[name] = np.stack([mat[:, i * d:(i + 1) * d] for i in range(h)])
        try:
            blocks.append(BlockWeights(alpha=config.alpha, **parts))
        except UsageError as exc:
            raise DataError(f"{path}: layer {layer}: {exc}") from None
    return blocks


def _cmd_forward(args) -> int:
    config = tpio.read_config(args.config)
    feats = _read_tokens(args.input)
    tokens = TokenSet(feats)
    if args.weights_dir and args.seed is not None:
        raise UsageError("give either --seed or --weights-dir, not both")
    if args.weights_dir:
        blocks = _load_weights_dir(args.weights_dir, config)
    else:
        blocks = synth_weights(config, 0 if args.seed is None else args.seed)
    final, traces = pipeline.run_forward(
        tokens,
        blocks,
        config,
        pool_method=args.pool_method,
        pool_init="topk_weight" if args.pool_init == "topk" else "random",
        pool_iters=args.pool_iters,
        pool_seed=0 if args.seed is None else args.seed,
        protect_first=not args.no_protect_first,
    )
    tpio.write_matrix(args.out, final.features)
    if args.trace:
        if args.trace.endswith(".csv"):  # plotting-friendly flat form
            lines = [",".join(field.name for field in dataclasses.fields(pipeline.LayerTrace))]
            for t in traces:
                lines.append(",".join("" if v is None else str(v) for v in dataclasses.astuple(t)))
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            payload = {
                "mode": config.mode,
                "pool_method": args.pool_method if config.schedule is not None else None,
                "final_tokens": final.n_tokens,
                "layers": [dataclasses.asdict(t) for t in traces],
            }
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    return 0


def _cmd_verify_filter(args) -> int:
    report = verify_equivalence(
        args.n, args.m, args.alpha, args.seed, args.tol,
        unit_norm=not args.no_normalize,
    )
    print(
        f"max_abs_dev={report.max_abs_dev!r} tol={args.tol!r} "
        f"pass={'true' if report.passed else 'false'}"
    )
    return 0 if report.passed else 3


_COMMANDS = {
    "cost": _cmd_cost,
    "pool": _cmd_pool,
    "score": _cmd_score,
    "forward": _cmd_forward,
    "verify-filter": _cmd_verify_filter,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
