"""Hot numeric kernels: the random stream, distances, medoids and softmax.

The random stream is xoshiro256** over four 64-bit words. It is produced in
parallel lanes: the state transition is linear over GF(2), so lane starts are
found by jump-ahead (powers of the 256 x 256 bit matrix, built on the first
fill of at least ``_LANE_MIN`` draws) and all lanes step together as
``uint64`` arrays. Output and final state equal the scalar stepper
``_step_py``'s bit for bit; shorter fills run that stepper. Gaussian fills
vectorize the polar method but take each logarithm with ``math.log``, the
function the scalar method calls, because numpy's SIMD ``log`` differs from
it in the last ulp on some inputs (0.36% of them on an AVX-512 host).

Distances are exact by difference: each entry is ``sum((a_i - b_j)**2)``,
never the norm expansion, so identical rows give an exact zero. The kernel
walks cache-sized blocks. :func:`nearest_sq_dists`, the nearest-row search,
screens with one BLAS product and confirms the surviving pairs by
difference, so its labels and distances equal the argmin and min of the full
matrix bit for bit, whatever BLAS rounding or threading does. The medoid
update computes distances within each cluster only, a block of rows at a
time. :func:`softmax` is the only softmax in the package.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import UsageError

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0 ** -53


def splitmix64(x: int) -> tuple[int, int]:
    """One splitmix64 step: returns (advanced state, mixed output)."""
    x = (x + _GAMMA) & _MASK
    z = (x ^ (x >> 30)) * _MIX1 & _MASK
    z = (z ^ (z >> 27)) * _MIX2 & _MASK
    return x, z ^ (z >> 31)


def seed_state(seed: int) -> np.ndarray:
    """Derive the four xoshiro256** state words from a 64-bit seed."""
    x = int(seed) & _MASK
    state = np.empty(4, dtype=np.uint64)
    for i in range(4):
        x, out = splitmix64(x)
        state[i] = out
    if not state.any():  # all-zero state is the one forbidden xoshiro state
        state[0] = np.uint64(1)
    return state


def _step_py(s0, s1, s2, s3):
    r = (s1 * 5) & _MASK
    r = ((r << 7) | (r >> 57)) & _MASK
    r = (r * 9) & _MASK
    t = (s1 << 17) & _MASK
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    return s0, s1, s2, s3, r


def _fill_u64_py(state, out):
    s0, s1, s2, s3 = (int(v) for v in state)
    for i in range(out.shape[0]):
        s0, s1, s2, s3, r = _step_py(s0, s1, s2, s3)
        out[i] = r
    state[0], state[1], state[2], state[3] = s0, s1, s2, s3


# The transition A of _step_py is linear over GF(2) on the 256 state bits, so
# A**k can be applied in O(log k) table lookups (the idea behind xoshiro's
# jump()). A linear map is held as a byte-lookup table of shape (32, 256, 4):
# entry [p, v] is the image of the state whose byte p (of the four words'
# little-endian bytes) is v and every other byte 0, so one application XORs
# 32 rows. A long fill runs in lanes of B = 2**b consecutive draws: lane j
# starts at A**(j*B) s, derived by doubling, and all lanes step together as
# uint64 arrays.

_LANES = 8192        # most lanes per fill; 16384 measured slower
_LANE_MIN = 1024     # fills and jumps shorter than this step in plain Python
_PAIRS = 1 << 17     # uniform pairs per Gaussian chunk, bounding its temporaries
_ROWS = 256 * np.arange(32)  # first row of byte p in the flattened table
_BITS = np.arange(256)


def _table(cols):
    """Byte-lookup table of the linear map whose 256 columns are ``cols``."""
    cols = cols.reshape(32, 8, 4)
    table = np.zeros((32, 256, 4), dtype=np.uint64)
    for bit in range(8):
        w = 1 << bit
        np.bitwise_xor(table[:, :w], cols[:, bit, None], out=table[:, w:2 * w])
    table.flags.writeable = False
    return table


def _apply(table, states):
    """Images of the ``(k, 4)`` states under a tabled linear map."""
    idx = np.ascontiguousarray(states, dtype="<u8").view(np.uint8) + _ROWS
    rows = table.reshape(-1, 4).take(idx, axis=0)  # (k, 32, 4)
    while rows.shape[1] > 1:  # XOR the 32 rows together by halving
        half = rows.shape[1] // 2
        rows = rows[:, :half] ^ rows[:, half:]
    return rows[:, 0]


@functools.cache
def _power(i):
    """Table of A**(2**i); built on first use, by squaring A**(2**(i-1))."""
    if i == 0:
        cols = np.empty((256, 4), dtype=np.uint64)
        for c in range(256):
            basis = [0, 0, 0, 0]
            basis[c // 64] = 1 << (c % 64)
            cols[c] = _step_py(*basis)[:4]
    else:
        prev = _power(i - 1)  # its column c is entry [c // 8, 1 << c % 8]
        cols = _apply(prev, prev[_BITS // 8, 1 << _BITS % 8])
    return _table(cols)


def _advance(state, k):
    """Move ``state`` k draws ahead, as k scalar steps would."""
    if k < _LANE_MIN:
        _fill_u64_py(state, np.empty(k, dtype=np.uint64))
        return
    s = state[None, :]
    for i in range(k.bit_length()):
        if k >> i & 1:
            s = _apply(_power(i), s)
    state[:] = s[0]


def _lane_starts(state, b, lanes):
    """States A**(j * 2**b) s for j < lanes, doubling the known ones."""
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    have = 1
    while have < lanes:
        k = min(have, lanes - have)
        starts[have:have + k] = _apply(_power(b + have.bit_length() - 1), starts[:k])
        have += k
    return starts


def fill_u64(state: np.ndarray, n: int) -> np.ndarray:
    """The next ``n`` 64-bit draws; advances ``state`` in place."""
    n = int(n)
    if n < _LANE_MIN:
        out = np.empty(n, dtype=np.uint64)
        _fill_u64_py(state, out)
        return out
    # Lane length 2**b of about sqrt(n) / 8 balances deriving the lane starts
    # (under 1 us a lane) against the fixed cost of each step over all lanes
    # (about 15 us), up to _LANES lanes.
    b = max(n.bit_length() // 2 - 3, ((n - 1) // _LANES).bit_length())
    steps = 1 << b
    lanes = -(-n // steps)
    s0, s1, s2, s3 = (np.ascontiguousarray(w) for w in _lane_starts(state, b, lanes).T)
    last = n - (lanes - 1) * steps  # draws taken from the last lane
    rows = np.empty((steps, lanes), dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    for i in range(steps):
        r = rows[i]
        np.multiply(s1, 5, out=r)
        np.left_shift(r, 7, out=t)
        r >>= 57
        r |= t
        r *= 9
        np.left_shift(s1, 17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
        if i == last - 1:
            state[:] = s0[-1], s1[-1], s2[-1], s3[-1]
    return rows.T.reshape(-1)[:n]


def fill_uniform(state: np.ndarray, n: int) -> np.ndarray:
    """The next ``n`` uniform doubles in [0, 1); advances ``state`` in place."""
    return (fill_u64(state, n) >> 11) * _DOUBLE_SCALE


def fill_normal(state: np.ndarray, n: int) -> np.ndarray:
    """The next ``n`` standard Gaussian draws; advances ``state`` in place."""
    # Marsaglia polar method over chunks of uniform pairs. Once a chunk holds
    # the last pair needed, the state is rewound to just after that pair; the
    # spare value of an odd n is dropped. The logarithm is math.log on each
    # element: np.log's SIMD path can differ from it in the last ulp.
    n = int(n)
    out = np.empty(n, dtype=np.float64)
    done = 0
    while done < n:
        need = (n - done + 1) // 2
        pairs = min(_PAIRS, need + need // 3 + 8)  # about pi/4 are accepted
        start = state.copy()
        uv = 2.0 * fill_uniform(state, 2 * pairs) - 1.0
        u, v = uv[0::2], uv[1::2]
        s = u * u + v * v
        ok = np.flatnonzero((s < 1.0) & (s != 0.0))
        if ok.size >= need:
            ok = ok[:need]
            state[:] = start
            _advance(state, 2 * (int(ok[-1]) + 1))
        s = s[ok]
        log_s = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=s.size)
        f = np.sqrt(-2.0 * log_s / s)
        pair_out = np.empty((ok.size, 2), dtype=np.float64)
        np.multiply(u[ok], f, out=pair_out[:, 0])
        np.multiply(v[ok], f, out=pair_out[:, 1])
        take = min(2 * ok.size, n - done)
        out[done:done + take] = pair_out.reshape(-1)[:take]
        done += take
    return out


# Elements of one difference block: a few hundred KB, so the subtraction and
# the einsum reduction that reads it back both run from L2 cache.
_BLOCK = 1 << 16


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared distances; ``pairwise_sq_dists(a, a)`` is exactly symmetric."""
    # Differences are squared directly (no norm-expansion trick) so that
    # identical rows give an exact zero, and (x - y)**2 == (y - x)**2 exactly.
    # einsum sums each length-M row in an order that depends only on M, so
    # every block size gives the same bits.
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n, m = a.shape
    k = b.shape[0]
    out = np.empty((n, k), dtype=np.float64)
    cols = max(1, min(k, _BLOCK // max(1, m)))
    rows = max(1, min(n, _BLOCK // max(1, cols * m)))
    buf = np.empty(rows * cols * m)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for clo in range(0, k, cols):
            chi = min(clo + cols, k)
            diff = buf[:(hi - lo) * (chi - clo) * m].reshape(hi - lo, chi - clo, m)
            np.subtract(a[lo:hi, None, :], b[None, clo:chi, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:hi, clo:chi])
    return out


def _confirm(a, b, rows, cols):
    # Exact distances of the listed pairs, by the same einsum reduction as
    # pairwise_sq_dists, in blocks that bound the temporaries.
    m = a.shape[1]
    out = np.empty(rows.shape[0], dtype=np.float64)
    step = max(1, _BLOCK // max(1, m))
    for lo in range(0, rows.shape[0], step):
        hi = min(lo + step, rows.shape[0])
        diff = a[rows[lo:hi]]
        diff -= b[cols[lo:hi]]
        np.einsum("ij,ij->i", diff, diff, out=out[lo:hi])
    return out


def row_argmin(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmin (lowest index wins ties) and the minimum itself."""
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(d2.shape[0]), labels]


# The screen's error analysis needs every product and square to stay a normal
# double: nonzero magnitudes within [2**-400, 2**400] keep squares, products
# and M-term sums far from underflow and overflow.
_SCREEN_RANGE = (2.0 ** -400, 2.0 ** 400)


def _screenable(x) -> bool:
    mag = np.abs(x)
    lo, hi = _SCREEN_RANGE
    return bool(mag.max(initial=0.0) <= hi
                and mag.min(initial=np.inf, where=mag != 0) >= lo)


def nearest_sq_dists(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of ``b`` for every row of ``a``: (labels, squared distances).

    Bit-identical to ``row_argmin(pairwise_sq_dists(a, b))``: lowest
    index wins ties. One GEMM per block of rows screens
    ``s_ij = |a_i|^2 + |b_j|^2 - 2 a_i.b_j``; only the pairs that could still
    hold the row minimum are recomputed by difference. Non-finite input, or
    magnitudes outside ``_SCREEN_RANGE``, take the full matrix instead.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n, m = a.shape
    if n == 0 or not (_screenable(a) and _screenable(b)):
        return row_argmin(pairwise_sq_dists(a, b))
    an = np.einsum("ij,ij->i", a, a)
    bn = np.einsum("ij,ij->i", b, b)
    # Rounding bound, with u = 2**-53, N_ij = |a_i|^2 + |b_j|^2 and the exact
    # squared distance d_ij <= 2 N_ij. Any summation order, FMA or not:
    #   screen:    |s_ij - d_ij| <= (2 gamma_M + 4u) N_ij  (two norms, one dot
    #              product, two additions), gamma_M = M u / (1 - M u);
    #   reference: |e_ij - d_ij| <= gamma_{M+2} d_ij <= 2 gamma_{M+2} N_ij.
    # Together below (4M + 9) u N_ij; tol doubles that, which also covers the
    # rounding of tol itself, of s -+ tol, and of an, bn standing in for N.
    # If column j* holds the reference minimum of row i, then
    #   s_ij* - tol_ij* <= e_ij* <= e_ij <= s_ij + tol_ij  for every j,
    # so j* is kept. Screened-out pairs read as +inf, which no confirmed
    # distance reaches inside the screen range, so the argmin over the
    # block is the full argmin, ties included.
    slack = (4 * m + 16) * 2.0 ** -52
    labels = np.empty(n, dtype=np.intp)
    mins = np.empty(n, dtype=np.float64)
    step = max(1, 4 * _BLOCK // max(1, b.shape[0]))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        s = a[lo:hi] @ b.T
        s *= -2.0
        s += an[lo:hi, None]
        s += bn
        tol = an[lo:hi, None] + bn
        tol *= slack
        ceiling = (s + tol).min(axis=1)
        s -= tol
        rows, cols = np.nonzero(s <= ceiling[:, None])
        d2 = np.full(s.shape, np.inf)
        d2[rows, cols] = _confirm(a[lo:hi], b, rows, cols)
        labels[lo:hi], mins[lo:hi] = row_argmin(d2)
    return labels, mins


def medoid_update(x: np.ndarray, labels: np.ndarray, k: int, weights=None) -> np.ndarray:
    """Per cluster, the member with the least summed distance to the others.

    ``x`` holds the points, one per row. With ``weights``, each distance to
    member ``j`` counts ``weights[j]`` times. Lowest index wins ties; an empty
    cluster gets -1.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    k = int(k)
    order = np.argsort(labels, kind="stable")  # members in ascending index order
    sizes = np.bincount(labels, minlength=k)
    starts = np.cumsum(sizes) - sizes
    med = np.full(k, -1, dtype=np.int64)
    med[sizes == 1] = order[starts[sizes == 1]]
    for j in np.flatnonzero(sizes > 1):
        idx = order[starts[j]:starts[j] + sizes[j]]
        pts = x[idx]
        w = 1.0 if weights is None else weights[idx]
        # Whole rows per chunk keep each row sum in one order and the
        # temporaries at about _BLOCK elements, whatever the cluster size.
        step = max(1, _BLOCK // idx.size)
        costs = np.concatenate([(pairwise_sq_dists(pts[lo:lo + step], pts) * w).sum(axis=1)
                                for lo in range(0, idx.size, step)])
        med[j] = idx[np.argmin(costs)]
    return med


def softmax(logits: np.ndarray, col_weight: np.ndarray | None = None) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place; returns ``logits``.

    A column weight ``c`` gives ``c_j e_j / sum(c e)``. ``-inf`` logits give
    zeros in rows with a finite max. In place, an ``(H, n, n)`` batch makes
    no full-size temporaries, which would cost more than the batch saves.
    """
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    if col_weight is not None:
        logits *= col_weight
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def available_backends() -> tuple[str, ...]:
    """The kernel backends present, for the benchmark's environment record."""
    return ("numpy",)


def get_backend() -> str:
    """The active kernel backend, for the benchmark's environment record."""
    return "numpy"


def set_backend(name: str) -> str:
    """Check a backend name for the benchmark; returns the previous (numpy)."""
    if name != "numpy":
        raise UsageError(f"unknown backend {name!r}; the only backend is 'numpy'")
    return "numpy"
