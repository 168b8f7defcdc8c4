"""Time the hot kernels on every kernel backend that is present.

Usage (from the repository root): python3 perfbench/bench_kernels.py [--quick]

Runs with whatever backends ``tokpool._kernels.available_backends()`` lists:
the numpy/Python fallback always, numba only when it imports. Each kernel is
warmed up once before timing, so numba's JIT compilation is excluded. The
cross-backend u64 identity check needs two backends and is skipped, with a
note, when only one is present.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tokpool import _kernels as kernels  # noqa: E402
from tokpool.pooling import PoolSpec, token_pool  # noqa: E402
from tokpool.transformer import TokenSet  # noqa: E402

REPEATS = {"numba": 20, "numpy": 3}


def timeit(fn, repeats):
    fn()  # warmup (includes JIT compile on the numba path)
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def bench(quick=False):
    n, k, m = (197, 64, 384) if not quick else (64, 16, 64)
    draws = 1_000_000 if not quick else 50_000

    rng = np.random.default_rng(0)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(k, m))
    labels = rng.integers(0, k, size=n).astype(np.int64)
    labels[:k] = np.arange(k)
    d2 = ((a[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
    tokens = TokenSet(rng.normal(size=(n, m)))

    cases = {
        f"rng uniform fill ({draws})": lambda: kernels.fill_uniform(kernels.seed_state(1), draws),
        f"rng normal fill ({draws})": lambda: kernels.fill_normal(kernels.seed_state(1), draws),
        f"pairwise sq dists {n}x{k}x{m}": lambda: kernels.pairwise_sq_dists(a, b),
        f"medoid update n={n} k={k}": lambda: kernels.medoid_update(d2, labels, k),
        f"token_pool kmedoids n={n} k={k}": lambda: token_pool(
            tokens, PoolSpec("kmedoids", k, protect_first=False)
        ),
    }

    backends = kernels.available_backends()
    results = {}
    for backend in backends:
        prev = kernels.set_backend(backend)
        try:
            for name, fn in cases.items():
                reps = REPEATS.get(backend, 3) if not quick else 5
                results.setdefault(name, {})[backend] = timeit(fn, reps)
        finally:
            kernels.set_backend(prev)

    width = max(len(name) for name in cases)
    head = f"{'kernel':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if "numba" in backends and "numpy" in backends:
        head += f"{'speedup':>9}"
    print(head)
    print("-" * len(head))
    for name, times in results.items():
        row = f"{name:<{width}}" + "".join(f"{times[b] * 1e3:>10.3f}ms" for b in backends)
        if "numba" in times and "numpy" in times:
            row += f"{times['numpy'] / times['numba']:>8.1f}x"
        print(row)

    if len(backends) < 2:
        print(f"\nu64 cross-backend identity: skipped, only the {backends[0]} backend is present")
        return
    # the integer streams must agree bit-for-bit between backends
    streams = []
    for backend in backends:
        prev = kernels.set_backend(backend)
        streams.append(kernels.fill_u64(kernels.seed_state(7), 10_000))
        kernels.set_backend(prev)
    same = all(np.array_equal(streams[0], s) for s in streams[1:])
    print(f"\nu64 streams bit-identical across backends ({', '.join(backends)}): {same}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true", help="small sizes, fast run")
    bench(parser.parse_args().quick)
