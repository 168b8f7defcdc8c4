"""End-to-end and per-layer benchmark of the ``tokpool`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload forward|pool-vit \
        --seed N --seconds S --trace 0|1

Each op is one ``python -m tokpool ...`` process, run in a closed loop by a
single client: the next op starts only after the previous one exits, and ops
keep starting until ``--seconds`` have passed and the workload's current
cycle of op types is complete. Inputs come from ``--seed``
(see ``workloads.py`` for what each workload stresses and why). Every op's
outputs are checked; an op that exits non-zero or fails a check counts as
failed.

``--trace 0`` prints the end-to-end metrics:

  setup_s      median over five set-ups of: write the inputs, one warm-up op
  op_s_p50     median op wall time, spawn to exit (failed ops count as slowest)
  ops_per_s    successful ops per second of op wall time (the client's input
               generation and output checks are not counted)
  peak_rss_mb  largest op-process peak RSS, from wait4
  recon_loss   sum of reported pooling losses / clustered tokens, over the
               workload's first ``min_ops`` ops, so that it repeats exactly
               for a seed however many ops the run completes

and, when a run has enough ops, ``op_s_tail``: the highest percentile with at
least ten ops beyond it. ``--trace 1`` runs every op twice, untraced and then
through ``tracer.py``, and prints the per-layer metrics (per traced op) plus
the tracing overhead and a cost-model cross-check. Traced and untraced
outputs must be byte-identical.

Each run writes a record (environment, metrics, per-op argv and output
sha256) to ``.perfbench/results/``; ``digests.py`` compares two records.
``filterlab`` is not on any CLI path measured here and is not traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import arith
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5
OP_TIMEOUT_S = 150

# The metrics BENCHMARK.json bounds. ops_per_s, fail_ratio and op_s_tail are
# printed and recorded too: ops_per_s is a mean over ops and moves with every
# slow op on this shared machine, fail_ratio is 0 on a healthy run, and a run
# rarely holds enough ops for a tail.
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB"),
              ("recon_loss", "loss/token"))

PER_LAYER = (
    ("cli.startup_s", "s"), ("cli.self_s", "s"),
    ("io.read_s", "s"), ("io.read_mb", "MB"), ("io.write_s", "s"),
    ("numerics.normal_s", "s"), ("numerics.normal_draws", "count"),
    ("numerics.normal_draws_per_s", "1/s"),
    ("transformer.synth_s", "s"), ("transformer.block_s", "s"),
    ("transformer.block_calls", "count"), ("transformer.block_tokens", "count"),
    ("transformer.block_gflop_per_s", "Gflop/s"),
    ("scoring.significance_s", "s"),
    ("pooling.token_pool_s", "s"), ("pooling.calls", "count"), ("pooling.self_s", "s"),
    *((f"pooling.{m}_s", "s") for m in workloads.POOL_METHODS),
    ("pooling.lloyd_iters", "count"), ("pooling.iters_per_call", "count"),
    ("kernels.dist_s", "s"), ("kernels.dist_calls", "count"), ("kernels.dist_gmac", "Gmac"),
    ("kernels.dist_gmac_per_s", "Gmac/s"), ("kernels.medoid_update_s", "s"),
    ("kernels.medoid_update_calls", "count"), ("kernels.medoid_update_gadd", "Gadd"),
    ("pipeline.run_forward_s", "s"), ("pipeline.self_s", "s"),
    ("costmodel.modeled_gflop", "Gflop"), ("costmodel.cluster_model_ratio", "ratio"),
    ("trace.op_s_p50", "s"), ("trace.untraced_op_s_p50", "s"), ("trace.overhead_s", "s"),
)


@dataclass
class OpRecord:
    op: workloads.Op
    seconds: float
    rss_mb: float
    rc: int
    check: workloads.CheckResult
    digests: dict
    traced: bool = False

    def to_json(self) -> dict:
        return {"key": self.op.key, "traced": self.traced, "argv": self.op.argv,
                "rc": self.rc, "ok": self.check.ok, "reason": self.check.reason,
                "loss": self.check.loss, "clustered": self.check.clustered,
                "seconds": self.seconds, "peak_rss_mb": self.rss_mb,
                "sha256": self.digests}


def spawn(cmd: list[str], cwd: Path, env: dict) -> tuple[float, float, int, str]:
    """Run one process to completion; returns (wall s, peak RSS MB, exit code, stderr)."""
    err_path = cwd / "stderr.txt"
    env = dict(env)
    with open(err_path, "wb") as err:
        start = time.monotonic_ns()
        env["PERFBENCH_SPAWN_NS"] = str(start)
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    return (end - start) / 1e9, usage.ru_maxrss / 1024.0, proc.returncode, stderr


class Harness:
    def __init__(self, workload, work: Path, env: dict):
        self.wl = workload
        self.work = work
        self.env = env

    def run(self, op, traced: bool = False, spans_out: Path | None = None) -> OpRecord:
        for rel in op.outputs.values():
            (self.work / rel).unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_out),
                   op.key, "--", *op.argv]
        else:
            cmd = [sys.executable, "-m", "tokpool", *op.argv]
        seconds, rss, rc, stderr = spawn(cmd, self.work, self.env)
        check = self.wl.check(self.work, op, rc, stderr)
        digests = {role: workloads.sha256(self.work / rel)
                   for role, rel in op.outputs.items() if (self.work / rel).is_file()}
        return OpRecord(op, seconds, rss, rc, check, digests, traced)

    def run_probe(self, op) -> dict:
        """A known-defect probe op: success with valid output, or the known exit 2."""
        rec = self.run(op)
        if rec.check.ok:
            outcome = "ok"
        elif rec.rc == 2 and workloads.KNOWN_DUP_DEFECT in rec.check.reason:
            outcome = "known-defect"
        else:
            outcome = "unexpected"
        return {"key": op.key, "argv": op.argv, "rc": rec.rc, "outcome": outcome,
                "reason": rec.check.reason}


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (AttributeError, OSError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = int(fn())
            return info
    return info


def environment(root: Path) -> dict:
    import numpy as np
    from tokpool import _kernels

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "kernel_backend": _kernels.get_backend(),
        "commit": commit,
        "source_sha256": source_digest(root),
    }


def end_to_end(setups, records, recon_ops: int) -> tuple[dict, dict]:
    ok = [r.check.ok for r in records]
    lat = arith.latency_summary([r.seconds for r in records], ok)
    n_ok = sum(ok)
    busy = sum(r.seconds for r in records)
    clustered = sum(r.check.clustered for r in records[:recon_ops] if r.check.ok)
    loss = sum(r.check.loss for r in records[:recon_ops] if r.check.ok)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": lat["p50"],
        "peak_rss_mb": max(r.rss_mb for r in records),
        "recon_loss": loss / clustered if clustered else None,
    }
    extra = {"samples": lat["samples"], "setup_samples": len(setups),
             "ops_per_s": n_ok / busy,
             "fail_ratio": arith.fail_ratio(len(records), len(records) - n_ok),
             "op_s_tail": lat["tail"], "op_s_tail_percentile": lat["tail_p"]}
    return metrics, extra


def per_layer(untraced, traced, summaries) -> tuple[dict, dict]:
    n = max(1, len(summaries))
    total: dict[str, float] = {}
    methods: dict[str, dict] = {}
    for s in summaries:
        for k, v in s["sums"].items():
            total[k] = total.get(k, 0.0) + v
        for m, rec in s["methods"].items():
            agg = methods.setdefault(m, {})
            for k, v in rec.items():
                agg[k] = agg.get(k, 0.0) + v

    def get(name):
        return total.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: get(name) / n for name, unit in PER_LAYER if unit in ("s", "count", "MB")}
    metrics.update({
        "numerics.normal_draws_per_s": ratio(get("numerics.normal_draws"), get("numerics.normal_s")),
        "transformer.block_gflop_per_s": ratio(get("transformer.block_flops") / 1e9,
                                               get("transformer.block_s")),
        "pooling.iters_per_call": ratio(get("pooling.lloyd_iters"), get("pooling.clustering_calls")),
        "kernels.dist_gmac": get("kernels.dist_mac") / 1e9 / n,
        "kernels.dist_gmac_per_s": ratio(get("kernels.dist_mac") / 1e9, get("kernels.dist_s")),
        "kernels.medoid_update_gadd": get("kernels.medoid_update_adds") / 1e9 / n,
        "costmodel.modeled_gflop": get("costmodel.modeled_flops") / 1e9 / n,
        "costmodel.cluster_model_ratio": ratio(get("costmodel.cluster_counted_mac"),
                                               get("costmodel.cluster_modeled_flops")),
    })
    t_lat = arith.latency_summary([r.seconds for r in traced], [r.check.ok for r in traced])
    u_lat = arith.latency_summary([r.seconds for r in untraced], [r.check.ok for r in untraced])
    metrics["trace.op_s_p50"] = t_lat["p50"]
    metrics["trace.untraced_op_s_p50"] = u_lat["p50"]
    metrics["trace.overhead_s"] = (
        None if t_lat["p50"] is None or u_lat["p50"] is None else t_lat["p50"] - u_lat["p50"])
    mean_traced = statistics.fmean(r.seconds for r in traced) if traced else 0.0
    shares = {k: ratio(metrics[k], mean_traced) for k in (
        "cli.startup_s", "cli.self_s", "io.read_s", "numerics.normal_s", "transformer.synth_s",
        "transformer.block_s", "scoring.significance_s", "pooling.token_pool_s",
        "kernels.dist_s", "pipeline.run_forward_s")}
    return metrics, {"shares_of_traced_op": shares, "methods": methods}


def print_cross_check(methods: dict) -> None:
    print("cost-model cross-check (totals over traced ops; the model is not tuned):")
    print(f"  {'method':<11}{'calls':>6}{'iters/T':>10}{'dist/call':>10}{'dist Gmac':>11}{'model Gflop':>13}"
          f"{'counted/model':>15}{'medoid Gadd':>13}{'seconds':>9}")
    for m in sorted(methods):
        r = methods[m]
        iters = (f"{r['iterations'] / r['clustered_calls']:.2f}/{r['iters_max'] / r['clustered_calls']:.0f}"
                 if r.get("clustered_calls") else "-")
        model = r.get("modeled_flops", 0.0)
        rat = f"{r.get('dist_mac', 0.0) / model:.3f}" if model else "unmodeled"
        print(f"  {m:<11}{r['calls']:>6.0f}{iters:>10}{r.get('dist_calls', 0.0) / r['calls']:>10.2f}"
              f"{r.get('dist_mac', 0.0) / 1e9:>11.4f}"
              f"{model / 1e9:>13.4f}{rat:>15}{r.get('medoid_adds', 0.0) / 1e9:>13.5f}"
              f"{r['seconds']:>9.3f}")
    print("  known gaps: k-means runs one more assignment pass than it iterates; Lloyd stops")
    print("  early (iters < T); the medoid update's sum |C_j|^2 adds are not in the model;")
    print("  the model prices n including the protected token.")


def fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/tokpool/cli.py", "fixtures/configs/deit-s.json",
                           "fixtures/configs/deit-ti.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a tokpool checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env_info = environment(ROOT)

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".perfbench" / f"work-{tag}-{os.getpid()}"
    harness = Harness(wl, work, env)
    setups, warmups, records, traced, summaries, probes, span_docs = [], [], [], [], [], [], []
    try:
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = time.perf_counter()
            wl.setup(work)
            warmups.append(harness.run(wl.op(work, 0)))
            setups.append(time.perf_counter() - start)
        deadline = time.monotonic() + args.seconds
        i = 0
        # Whole cycles only, so every run measures the same mix of op types.
        while i < wl.min_ops or time.monotonic() < deadline or i % len(wl.cycle):
            op = wl.op(work, i)
            records.append(harness.run(op))
            if args.trace:
                spans_out = work / "spans.json"
                rec = harness.run(op, traced=True, spans_out=spans_out)
                if rec.digests != records[-1].digests:
                    rec.check = workloads.CheckResult(False, "traced output differs from untraced")
                traced.append(rec)
                if rec.check.ok:
                    span_docs.append(json.loads(spans_out.read_text()))
                    summaries.append(tracer.summarize(span_docs[-1]))
            i += 1
        if hasattr(wl, "probe_ops"):
            probes = [harness.run_probe(op) for op in wl.probe_ops(work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = records + traced
    failed = sum(not r.check.ok for r in all_ops)
    bad_warmup = [r.check.reason for r in warmups if not r.check.ok]
    unexpected = [p for p in probes if p["outcome"] == "unexpected"]
    correct = failed == 0 and not bad_warmup and not unexpected

    e2e, e2e_extra = end_to_end(setups, records, wl.min_ops)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} ops in a closed loop, "
          f"1 client, {args.seconds:g} s; nproc {env_info['nproc']}, python {env_info['python']}, "
          f"numpy {env_info['numpy']}, {env_info['blas']['name']} {env_info['blas']['version']} "
          f"x{env_info['blas']['threads']} threads, kernel backend {env_info['kernel_backend']}")
    for r in all_ops + warmups:
        if not r.check.ok:
            print(f"FAILED {r.op.key}{' (traced)' if r.traced else ''}: {r.check.reason}")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        n = e2e_extra["setup_samples"] if name == "setup_s" else e2e_extra["samples"]
        print(f"  {name:<12} {fmt(value):>12} {units[name]:<10} (n={n})")
    print(f"  {'ops_per_s':<12} {fmt(e2e_extra['ops_per_s']):>12} {'1/s':<10} "
          f"(n={e2e_extra['samples']})")
    print(f"  {'fail_ratio':<12} {fmt(e2e_extra['fail_ratio']):>12} {'ratio':<10} "
          f"({failed} of {len(all_ops)} ops failed)")
    if e2e_extra["op_s_tail"] is not None:
        print(f"  {'op_s_tail':<12} {fmt(e2e_extra['op_s_tail']):>12} {'s':<10} "
              f"(p{e2e_extra['op_s_tail_percentile']:g}, n={e2e_extra['samples']})")
    else:
        print(f"  op_s_tail: not reported, {e2e_extra['samples']} ops leave fewer than ten "
              "beyond any tail percentile")
    if probes:
        hit = sum(p["outcome"] == "known-defect" for p in probes)
        bad = sum(p["outcome"] != "ok" for p in probes)
        print(f"  duplicate-heavy probe (K > distinct tokens, or random/importance with "
              f"--emit-counts): {hit} of {len(probes)} ops exit 2 with the known zero-count "
              f"defect; probe fail_ratio {arith.fail_ratio(len(probes), bad):.3f}")
        for p in unexpected:
            print(f"UNEXPECTED probe {p['key']}: exit {p['rc']} {p['reason']}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info, "correct": correct,
              "end_to_end": e2e, "end_to_end_extra": e2e_extra, "setup_runs_s": setups,
              "probe": probes, "ops": [r.to_json() for r in all_ops]}
    if args.trace:
        layer, layer_extra = per_layer(records, traced, summaries)
        print(f"per-layer metrics, mean per traced op over {len(summaries)} traced ops:")
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {fmt(layer[name]):>12} {unit}")
        print("shares of the mean traced op time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in layer_extra["shares_of_traced_op"].items()))
        print_cross_check(layer_extra["methods"])
        record["per_layer"] = layer
        record["per_layer_extra"] = layer_extra
        spans_path = results / f"{tag}-spans.json"
        spans_path.write_text(json.dumps(span_docs) + "\n")
        print(f"spans of {len(span_docs)} traced ops written to {spans_path.relative_to(ROOT)}")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    out_path = results / f"{tag}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(all_ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
