"""Command-line front end.

Subcommands: ``cost``, ``pool``, ``score``, ``forward``, ``verify-filter``.
Exit codes: 0 success, 1 usage error, 2 data/format error, 3 verification
failure. Results go to stdout or ``--out`` files; errors go to stderr.
Identical argv (including seeds) produces byte-identical output. ``pool``,
``score`` and ``cost`` depend on neither the numpy/BLAS build nor the BLAS
thread count, by design; ``forward`` is byte-identical for one numpy/BLAS
build and BLAS thread count, since its block products run BLAS; and
``verify-filter``'s attention route runs BLAS products, so its printed
deviation may depend on them.

On glibc, ``main`` keeps freed heap in the process: it raises the C
allocator's mmap and trim thresholds to 32 MiB before parsing argv. A
``forward`` run holds one layer at a time, so by default glibc would hand
each layer's arrays back to the kernel and the next block would fault them
in again, a page-fault tax on every layer. The cost is resident memory
that is free but kept: about +1 MB on a ``forward`` peak, and about +3.7 MB
on a ``pool --scores-from`` at 577x768. Library calls and other C libraries
are unaffected.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
# synth_weights is not called here: perfbench/tracer.py wraps it by this name
from .transformer import BlockWeights, SeededWeights, TokenSet, check_block_shapes, synth_weights

_WEIGHT_NAMES = ("wq", "wk", "wv", "wo", "mlp1", "mlp2")

# glibc's mallopt parameters, and the one value both are set to
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 32 << 20


def _keep_freed_heap() -> None:
    """On glibc, keep freed heap in the process for the next allocation.

    Blocks below the mmap threshold come from the heap instead of a fresh
    mapping, and free gives the heap top back to the kernel only beyond the
    trim threshold, so one layer's memory serves the next. Both are needed:
    setting either one alone also freezes the other at its 128 KiB default.
    Elsewhere this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    libc = ctypes.CDLL(None)
    for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        libc.mallopt(param, _HEAP_KEEP_BYTES)


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


def _cost_rows(report: FlopReport) -> list:
    """The report's layout: a header row, one row of flops per layer, and a
    totals row with no token count."""
    return [
        ["layer", "tokens", *CATEGORIES, "total"],
        *([i, lf.tokens, *(getattr(lf, c) for c in CATEGORIES), lf.total]
          for i, lf in enumerate(report.per_layer)),
        ["total", None, *(report.totals[c] for c in CATEGORIES), report.grand_total],
    ]


def _cost_json(config, report: FlopReport) -> dict:
    header, *body, _ = _cost_rows(report)
    return {
        "config": {
            "layers": config.layers,
            "dim": config.dim,
            "heads": config.heads,
            "tokens": config.tokens,
            "mlp_ratio": config.mlp_ratio,
            "schedule": list(config.schedule) if config.schedule else None,
        },
        "per_layer": [dict(zip(header, row)) for row in body],
        "totals": report.totals,
        "grand_total": report.grand_total,
        "shares": breakdown_fractions(report),
    }


def _cost_table(report: FlopReport) -> str:
    header, *body, totals = _cost_rows(report)
    gflops = [[label, tokens, *(f"{v / 1e9:.4f}" for v in flops)]
              for label, tokens, *flops in [*body, ["all", "", *totals[2:]]]]
    head, *lines, foot = [f"{label:>5} {tokens:>7}" + "".join(f"{v:>12}" for v in cells)
                          for label, tokens, *cells in [header, *gflops]]
    rule = "-" * len(head)
    shares = breakdown_fractions(report)
    fc = shares["qkv"] + shares["oproj"] + shares["mlp"]
    return "\n".join([
        head, rule, *lines, rule, foot,
        f"Gflops shown. attention share {shares['attention']:.3f}, "
        f"fully-connected share {fc:.3f}, clustering share {shares['clustering']:.3f}",
    ])


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
        print(_json_text("stdout", _cost_json(config, report)), end="")
    elif args.format == "csv":
        print("".join(tpio.csv_lines(_cost_rows(report))), end="")
    else:
        print(_cost_table(report))
    return 0


# ---------------------------------------------------------------------------
# pool / score
# ---------------------------------------------------------------------------


def _overflowing(feats, mass):
    """max|x| of ``feats`` if mass·M·(2·max|x|)² overflows, else None: a loss
    of total weight ``mass`` sums squared distances below M·(2·max|x|)²."""
    largest = max(-float(feats.min()), float(feats.max()))
    if mass * feats.shape[1] * (2.0 * largest) * (2.0 * largest) <= sys.float_info.max:
        return None
    return largest


def _read_tokens(path) -> np.ndarray:
    feats = tpio.read_matrix(path)
    if feats.size == 0:
        raise DataError(
            f"{path}: a token matrix needs at least one row and one column, "
            f"got {feats.shape[0]}x{feats.shape[1]}"
        )
    largest = _overflowing(feats, feats.shape[0])
    if largest is not None:
        raise DataError(f"{path}: entries up to {largest:.6g} in magnitude overflow the "
                        f"squared distances of {feats.shape[0]} tokens of dim {feats.shape[1]}")
    return feats


def _check_outputs(args, second=None) -> None:
    """Usage checks on the output paths, made before any input is read:
    ``--out`` and the ``second`` output name two files, and ``--out`` has a
    matrix extension."""
    other = None if second is None else getattr(args, second)
    if other is not None and os.path.realpath(args.out) == os.path.realpath(other):
        raise UsageError(f"--out and --{second} name the same file: {other}")
    tpio.matrix_format(args.out)


def _json_text(path, payload) -> str:
    """``payload`` as the JSON text of file ``path``; NaN and Infinity, which
    JSON does not have, are a data error."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DataError(f"{path}: refusing to write non-finite values") from None


def _write_outputs(outputs) -> None:
    """Write each (path, matrix or text) in order. If a write fails, remove
    every file this run created, the failing one included, so a failed run
    leaves no output behind; a path that existed before is never removed."""
    created = []
    try:
        for path, content in outputs:
            if not os.path.lexists(path):
                created.append(path)
            if isinstance(content, str):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(content)
            else:
                tpio.write_matrix(path, content)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _cmd_pool(args) -> int:
    _check_outputs(args, "assignments")
    if args.weights and args.scores_from:
        raise UsageError("give either --weights or --scores-from, not both")
    if args.scores_from and args.heads is None:
        raise UsageError("--scores-from requires --heads")
    if args.scores_from and args.heads < 1:
        raise UsageError("heads must be >= 1")
    if args.method == "grid" and args.grid is None:
        raise UsageError("the grid method requires --grid H W")
    spec = pooling.PoolSpec(
        method=args.method,
        k=args.k,
        max_iters=args.iters,
        init="topk_weight" if args.init == "topk" else "random",
        seed=args.seed,
        protect_first=not args.no_protect_first,
    )
    feats = _read_tokens(args.input)
    n = feats.shape[0]
    weights = None
    if args.weights:
        weights = tpio.read_matrix(args.weights)
        if weights.shape[1] != 1:
            raise DataError(f"{args.weights}: weights must be one column (N x 1), "
                            f"got {weights.shape[0]}x{weights.shape[1]}")
        if weights.shape[0] != n:
            raise DataError(f"{args.weights}: expected {n} weights, got {weights.shape[0]}")
    elif args.scores_from:
        weights = significance(tpio.read_attention_maps(args.scores_from, args.heads))
        if weights.shape[0] != n:
            raise DataError(f"{args.scores_from}: maps cover {weights.shape[0]} tokens, "
                            f"input has {n}")
    tokens = TokenSet(feats, weights, np.ones(n) if args.unit_counts else None, args.grid)
    if weights is not None and args.method in ("wkmeans", "wkmedoids"):
        # with the total weight as the mass, the bound also keeps every
        # medoid cost and center sum finite
        total = float(tokens.weights.sum())
        largest = _overflowing(feats, total)
        if largest is not None:
            raise DataError(f"{args.weights or args.scores_from}: weights summing to "
                            f"{total:.6g} overflow the weighted squared distances of {n} "
                            f"tokens of dim {feats.shape[1]} with entries up to {largest:.6g}")
    pooled, result = pooling.token_pool(tokens, spec)
    outputs = [(args.out, pooled.features)]
    if args.assignments:
        record = {
            "method": args.method,
            "k": args.k,
            "protect_first": not args.no_protect_first,
            "iterations": result.iterations,
            "loss": result.loss,
            "assignment": result.assignment.tolist(),
            "medoid_indices": (None if result.medoid_indices is None
                               else result.medoid_indices.tolist()),
            "counts": result.counts.tolist(),
        }
        outputs.append((args.assignments, _json_text(args.assignments, record)))
    _write_outputs(outputs)
    return 0


def _cmd_score(args) -> int:
    _check_outputs(args)
    maps = tpio.read_attention_maps(args.attention, args.heads)
    _write_outputs([(args.out, significance(maps).reshape(-1, 1))])
    return 0


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def _check_layer(path, config, layer, shapes) -> None:
    """Raise ``DataError`` unless layer ``layer``'s file shapes, a dict by
    weight name, make one block of ``config``."""
    h, m, d = config.heads, config.dim, config.head_dim
    for name in ("wq", "wk", "wv"):
        if shapes[name] != (m, m):
            raise DataError(
                f"{path}: {name} of layer {layer} must be {m}x{m} "
                f"(heads concatenated column-wise), got {shapes[name]}"
            )
    try:
        check_block_shapes((h, m, d), (h, m, d), (h, m, d),
                           shapes["wo"], shapes["mlp1"], shapes["mlp2"])
    except UsageError as exc:
        raise DataError(f"{path}: layer {layer}: {exc}") from None
    if shapes["mlp1"][1] != config.mlp_ratio * m:
        raise DataError(f"{path}: layer {layer}: mlp1 must be {m}x{config.mlp_ratio * m} "
                        f"(mlp_ratio {config.mlp_ratio}), got {shapes['mlp1']}")


def _layer_files(path, layer):
    return {name: os.path.join(path, f"layer{layer:02d}_{name}.tpm") for name in _WEIGHT_NAMES}


class _WeightsDir:
    """The blocks of a weights directory. Construction reads every file, keeps
    only its shape and checks each layer's shapes, so any bad file fails before
    block 0 and nothing is kept. Each walk re-reads a layer as it is reached
    and keeps no reference to it, so layer l is freed, once its block is done,
    before layer l+1 is read; the same checks catch a change."""

    def __init__(self, path, config):
        self._path, self._config = path, config
        for layer in range(config.layers):
            shapes = {name: tpio.read_matrix(fpath).shape
                      for name, fpath in _layer_files(path, layer).items()}
            _check_layer(path, config, layer, shapes)

    def __len__(self):
        return self._config.layers

    def __iter__(self):
        return map(self._read_layer, range(len(self)))

    def _read_layer(self, layer) -> BlockWeights:
        h, d = self._config.heads, self._config.head_dim
        parts = {name: tpio.read_matrix(fpath)
                 for name, fpath in _layer_files(self._path, layer).items()}
        _check_layer(self._path, self._config, layer,
                     {name: mat.shape for name, mat in parts.items()})
        for name in ("wq", "wk", "wv"):
            parts[name] = np.stack([parts[name][:, i * d:(i + 1) * d] for i in range(h)])
        return BlockWeights(alpha=self._config.alpha, **parts)


def _cmd_forward(args) -> int:
    if args.weights_dir and args.seed is not None:
        raise UsageError("give either --seed or --weights-dir, not both")
    _check_outputs(args, "trace")
    config = tpio.read_config(args.config)
    feats = _read_tokens(args.input)
    if feats.shape != (config.tokens, config.dim):
        raise DataError(f"{args.input}: input has {feats.shape[0]} tokens of dim "
                        f"{feats.shape[1]}, config says {config.tokens} of dim {config.dim}")
    tokens = TokenSet(feats)
    if args.weights_dir:
        blocks = _WeightsDir(args.weights_dir, config)
    else:
        blocks = SeededWeights(config, 0 if args.seed is None else args.seed)
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
    outputs = [(args.out, final.features)]
    if args.trace:
        if args.trace.endswith(".csv"):  # plotting-friendly flat form
            header = [field.name for field in dataclasses.fields(pipeline.LayerTrace)]
            text = "".join(tpio.csv_lines([header, *map(dataclasses.astuple, traces)]))
        else:
            payload = {
                "mode": config.mode,
                "pool_method": args.pool_method if config.schedule is not None else None,
                "final_tokens": final.n_tokens,
                "layers": [dataclasses.asdict(t) for t in traces],
            }
            text = _json_text(args.trace, payload)
        outputs.append((args.trace, text))
    _write_outputs(outputs)
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
    _keep_freed_heap()
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
