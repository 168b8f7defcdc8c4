"""Workload definitions: seeded inputs, one CLI op at a time, and per-op checks.

Every op is one ``python -m tokpool ...`` process. A workload writes its
fixed inputs in ``setup`` and each op's own inputs in ``op``; the program only
ever sees those files and its argv. ``check`` reads the op's output files
back with the benchmark's own TPM reader and verifies them independently of
the program's code.

Why these workloads:

``forward``        Block-, small-n pooling- and RNG-bound. Most ops run
                   full 12-block DeiT-S with TPM weights written in setup
                   (85 MB read per op), cycling through
                   ``deit-s-sparsity{0..7}`` x kmedoids / wkmedoids: blocks
                   and cache-resident medoid pooling share the time. One op
                   in five is ``forward --seed`` on one DeiT-Ti block (width
                   192, 3 heads, the first entry of ``deit-s-sparsity5``):
                   442k Gaussians through the scalar xoshiro loop, the
                   largest part of that op. These ops are not a workload of
                   their own: on a shared 2-vCPU host, single-threaded pure
                   Python ran up to 1.7x slower for minutes at a time, so
                   the median of a run of them alone did not repeat. Full
                   DeiT-S synthesis takes about 40 s per op.
``pool-vit``       Pooling-bound at ViT-B/384 size (577 x 768, 12 heads):
                   the 577^2 distance matrix and the features exceed a 2 MB
                   L2. Methods cycle through all six, K over 1/8..1/2 of the
                   tokens; each op gets fresh tokens, Gaussian mixtures with
                   cluster counts on both sides of K. A quarter
                   of the ops are padded images (identical padding tokens)
                   run with ``--emit-counts``.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import arith

_TPM_HEADER = struct.Struct("<4sII")

CLUSTERING = ("kmeans", "wkmeans", "kmedoids", "wkmedoids")
POOL_METHODS = CLUSTERING + ("random", "importance")
_WEIGHTED = ("wkmeans", "wkmedoids")
_NEEDS_SCORES = ("wkmeans", "wkmedoids", "importance")

# The program rejects a pooled token set whose carry counts contain a zero.
# With duplicated tokens the empty-cluster repair is undone by the
# lowest-index tie-break, so such ops exit 2 with this message.
KNOWN_DUP_DEFECT = "counts must be finite and positive"


def write_tpm(path: Path, arr) -> None:
    arr = np.asarray(arr, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_TPM_HEADER.pack(b"TPM1", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def read_tpm(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, rows, cols = _TPM_HEADER.unpack_from(raw)
    if magic != b"TPM1" or len(raw) != _TPM_HEADER.size + 4 * rows * cols:
        raise ValueError(f"{path}: not a well-formed TPM1 file")
    return np.frombuffer(raw, dtype="<f4", offset=_TPM_HEADER.size).astype(np.float64).reshape(rows, cols)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Op:
    """One CLI invocation: its argv (paths relative to the work dir) and output roles."""

    def __init__(self, key: str, argv: list[str], outputs: dict[str, str], **info):
        self.key = key
        self.argv = argv
        self.outputs = outputs
        self.info = info


@dataclass
class CheckResult:
    ok: bool
    reason: str = ""
    loss: float = 0.0       # reported pooling loss of the op
    clustered: int = 0      # tokens that pooling clustered


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), index])  # any int seed, negative too


def _config(root: Path, base: str, **overrides) -> dict:
    cfg = json.loads((root / "fixtures" / "configs" / f"{base}.json").read_text())
    cfg.update(overrides)
    return cfg


def _schedule(root: Path, name: str) -> list[int]:
    return json.loads((root / "fixtures" / "schedules" / f"{name}.json").read_text())


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


class Forward:
    name = "forward"
    pool_iters = 5  # the CLI default
    # One cycle: the eight schedules with TPM weights, in an order that
    # alternates sparse and dense so every prefix mixes both, and a --seed op
    # after each half. Each cycle swaps the weights ops' method, so two
    # cycles cover all 16 schedule x method pairs.
    cycle = (0, 7, 3, 4, "seed", 1, 6, 2, 5, "seed")
    _METHODS = ("kmedoids", "wkmedoids")
    min_ops = 2 * len(cycle)

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def setup(self, work: Path) -> None:
        base = _config(self.root, "deit-s")
        self.configs = {}
        for j in range(8):
            self.configs[j] = dict(base, schedule=_schedule(self.root, f"deit-s-sparsity{j}"))
        sched = _schedule(self.root, "deit-s-sparsity5")
        self.configs["seed"] = _config(self.root, "deit-ti", layers=1, schedule=sched[:1])
        for j, cfg in self.configs.items():
            (work / f"config{j}.json").write_text(json.dumps(cfg))
        m, hidden = base["dim"], base.get("mlp_ratio", 4) * base["dim"]
        rng = _op_rng(self.seed, 1 << 20)
        wdir = work / "weights"
        wdir.mkdir()
        shapes = {"wq": (m, m), "wk": (m, m), "wv": (m, m), "wo": (m, m),
                  "mlp1": (m, hidden), "mlp2": (hidden, m)}
        for layer in range(base["layers"]):
            for name, shape in shapes.items():
                write_tpm(wdir / f"layer{layer:02d}_{name}.tpm",
                          rng.standard_normal(shape, dtype=np.float32) / np.float32(np.sqrt(m)))

    def op(self, work: Path, index: int) -> Op:
        turn, pos = divmod(index, len(self.cycle))
        j = self.cycle[pos]
        cfg = self.configs[j]
        rng = _op_rng(self.seed, index)
        write_tpm(work / "in.tpm", rng.normal(size=(cfg["tokens"], cfg["dim"])))
        argv = ["forward", "--config", f"config{j}.json", "--input", "in.tpm"]
        if j == "seed":
            argv += ["--seed", str(int(rng.integers(1 << 31)))]
        else:
            w = 8 * turn + sum(x != "seed" for x in self.cycle[:pos])
            argv += ["--weights-dir", "weights", "--pool-method", self._METHODS[(w + w // 8) % 2]]
        argv += ["--out", "out.tpm", "--trace", "trace.json"]
        return Op(f"op{index:04d}", argv, {"out": "out.tpm", "trace": "trace.json"}, config=cfg)

    def check(self, work: Path, op: Op, rc: int, stderr: str) -> CheckResult:
        if rc != 0:
            return CheckResult(False, f"exit {rc}: {stderr.strip()[-200:]}")
        from tokpool.costmodel import ModelConfig, model_flops

        cfg = op.info["config"]
        trace = json.loads((work / op.outputs["trace"]).read_text())
        out = read_tpm(work / op.outputs["out"])
        expected = [lf.tokens for lf in model_flops(ModelConfig(**cfg)).per_layer]
        sched = cfg["schedule"]
        expected.append(min(expected[-1], sched[-1] + 1))
        layers = trace["layers"]
        if len(layers) != cfg["layers"]:
            return CheckResult(False, f"trace has {len(layers)} layers")
        loss = 0.0
        clustered = 0
        for i, layer in enumerate(layers):
            if (layer["tokens_in"], layer["tokens_out"]) != (expected[i], expected[i + 1]):
                return CheckResult(
                    False,
                    f"layer {i}: tokens {layer['tokens_in']}->{layer['tokens_out']}, "
                    f"cost model says {expected[i]}->{expected[i + 1]}",
                )
            if sched[i] == 0:
                continue
            value = layer["loss"]
            if value is None or not np.isfinite(value) or value < 0:
                return CheckResult(False, f"layer {i}: bad loss {value!r}")
            if not 0 <= layer["iterations"] <= self.pool_iters:
                return CheckResult(False, f"layer {i}: {layer['iterations']} iterations")
            if sched[i] + 1 < layer["tokens_in"]:
                loss += value
                clustered += layer["tokens_in"] - 1
        if out.shape != (expected[-1], cfg["dim"]) or trace["final_tokens"] != expected[-1]:
            return CheckResult(False, f"output shape {out.shape}, expected {expected[-1]} rows")
        return CheckResult(True, loss=loss, clustered=clustered)


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


class PoolVit:
    name = "pool-vit"
    tokens, dim, heads, grid = 577, 768, 12, 24
    # One cycle: every method once on a plain input, plus two duplicate-heavy
    # ops with --emit-counts (a quarter of all ops). K spans 1/8..1/2 of the
    # 576 poolable tokens, and the mixtures' component counts lie well above
    # or well below K: near K, whether a component gets a center of its own is
    # a coin toss that swings the loss by a whole component. Padded images
    # repeat one padding token over their bottom grid rows; at most half the
    # grid is padding, so distinct tokens (>= 289) exceed every K.
    # (method, K, components, padded grid rows, emit counts)
    cycle = (
        ("kmeans", 72, 400, 0, False),
        ("wkmedoids", 126, 400, 0, False),
        ("random", 288, 160, 0, False),
        ("kmeans", 180, 96, 12, True),
        ("kmedoids", 234, 400, 0, False),
        ("importance", 126, 400, 0, False),
        ("wkmeans", 180, 24, 0, False),
        ("wkmedoids", 288, 24, 6, True),
    )
    min_ops = 16
    # Duplicate-heavy ops that hit the known zero-count defect today: with
    # three quarters of the grid padded, K = 216 exceeds the 145 distinct
    # poolable tokens, and random / importance selection with --emit-counts
    # pick several copies of the padding token. Each run tries two of them.
    probes = tuple((m, 216, 96, 18, True) for m in CLUSTERING) + tuple(
        (m, 144, 96, 12, True) for m in ("random", "importance"))

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed

    def _write_input(self, work: Path, rng, components: int, pad_rows: int, maps: bool) -> None:
        n, m = self.tokens, self.dim
        # a Gaussian mixture of equal-sized clusters, in shuffled token order
        centers = rng.normal(size=(components, m)) * 2.0
        x = centers[rng.permutation(np.arange(n) % components)] + rng.normal(size=(n, m)) * 0.5
        if pad_rows:
            body = x[1:].reshape(self.grid, self.grid, m)
            body[self.grid - pad_rows:] = rng.normal(size=m)  # one shared padding token
        write_tpm(work / "in.tpm", x)
        if not maps:
            return
        # Attention maps of one random pre-norm 12-head layer over these tokens.
        x32 = read_tpm(work / "in.tpm")
        z = (x32 - x32.mean(axis=1, keepdims=True)) / x32.std(axis=1, keepdims=True)
        d = m // self.heads
        out = np.empty((self.heads, n, n))
        for h in range(self.heads):
            wq, wk = rng.normal(size=(2, m, d)) / np.sqrt(m)
            logits = (z @ wq) @ (z @ wk).T / np.sqrt(d)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            out[h] = e / e.sum(axis=1, keepdims=True)
        write_tpm(work / "in_maps.tpm", out.reshape(self.heads * n, n))

    def setup(self, work: Path) -> None:
        pass  # every op writes its own input

    def _op(self, work: Path, key: str, rng, spec) -> Op:
        method, k, components, pad_rows, emit = spec
        scores = method in _NEEDS_SCORES
        self._write_input(work, rng, components, pad_rows, scores)
        argv = ["pool", "--input", "in.tpm", "--k", str(k), "--method", method,
                "--seed", str(int(rng.integers(1 << 31))), "--out", "out.tpm",
                "--assignments", "rec.json"]
        if scores:
            argv += ["--scores-from", "in_maps.tpm", "--heads", str(self.heads)]
        if emit:
            argv.append("--emit-counts")
        return Op(key, argv, {"out": "out.tpm", "assignments": "rec.json"}, method=method, k=k)

    def op(self, work: Path, index: int) -> Op:
        spec = self.cycle[index % len(self.cycle)]
        return self._op(work, f"op{index:04d}", _op_rng(self.seed, index), spec)

    def probe_ops(self, work: Path):
        first = 2 * (self.seed % 3)
        for j in (first, first + 1):
            yield self._op(work, f"probe{j}", _op_rng(self.seed, (1 << 21) + j), self.probes[j])

    def check(self, work: Path, op: Op, rc: int, stderr: str) -> CheckResult:
        if rc != 0:
            return CheckResult(False, f"exit {rc}: {stderr.strip()[-200:]}")
        x = read_tpm(work / "in.tpm")
        out = read_tpm(work / op.outputs["out"])
        rec = json.loads((work / op.outputs["assignments"]).read_text())
        n, k, method = x.shape[0], op.info["k"], op.info["method"]
        rows = min(n, k + 1)
        if out.shape != (rows, x.shape[1]):
            return CheckResult(False, f"output shape {out.shape}, expected ({rows}, {x.shape[1]})")
        if not np.array_equal(out[0], x[0]):
            return CheckResult(False, "protected first token changed")
        feats, centers = x[1:], out[1:]
        assignment = np.asarray(rec["assignment"], dtype=np.int64)
        counts = np.asarray(rec["counts"], dtype=np.float64)
        if assignment.shape != (n - 1,) or assignment.min() < 0 or assignment.max() >= rows - 1:
            return CheckResult(False, "assignment out of range")
        if counts.shape != (rows - 1,) or (counts <= 0).any() or counts.sum() != n - 1:
            return CheckResult(
                False, f"counts must be positive and sum to {n - 1}: "
                f"min {counts.min()}, sum {counts.sum()}")
        if rec["medoid_indices"] is not None and not np.array_equal(
                centers, feats[np.asarray(rec["medoid_indices"])]):
            return CheckResult(False, "medoids are not input tokens")
        weights = None
        if method in _WEIGHTED:
            maps = read_tpm(work / "in_maps.tpm")
            weights = maps.reshape(self.heads, n, n).sum(axis=(0, 1))[1:]
        by_assignment, nearest = arith.recompute_loss(feats, centers, assignment, weights)
        for what, value in (("assignment", by_assignment), ("nearest-center", nearest)):
            if not arith.loss_agrees(rec["loss"], value):
                return CheckResult(False, f"loss {rec['loss']!r} != {what} recomputation {value!r}")
        return CheckResult(True, loss=rec["loss"], clustered=n - 1)


WORKLOADS = {w.name: w for w in (Forward, PoolVit)}
