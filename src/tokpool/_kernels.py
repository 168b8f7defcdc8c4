"""Hot numeric kernels with two interchangeable backends.

The ``numba`` backend JIT-compiles the inner loops; the ``numpy`` backend is
a vectorized fallback. Select a backend with the environment variable
``TOKPOOL_BACKEND`` set to ``numba`` or ``numpy`` before import, or call
:func:`set_backend` at runtime.

The random stream is xoshiro256** over four 64-bit words. Integer and
uniform output is bit-identical between backends because the arithmetic is
exact; floating-point reductions (pairwise distances) may differ in the last
ulp because summation order differs. The numpy backend produces the stream in
parallel lanes: the state transition is linear over GF(2), so lane starts are
found by jump-ahead (powers of the 256 x 256 bit matrix, built on the first
fill of at least ``_LANE_MIN`` draws) and all lanes step together as
``uint64`` arrays. Output and final state equal the scalar stepper
``_step_py``'s bit for bit; shorter fills run that stepper. Gaussian fills
vectorize the polar method but take each logarithm with ``math.log``, the
function the scalar method calls, because numpy's SIMD ``log`` differs from
it in the last ulp on some inputs (0.36% of them on an AVX-512 host).

Distances are exact by difference: each entry is ``sum((a_i - b_j)**2)``,
never the norm expansion, so identical rows give an exact zero. The numpy
kernel walks cache-sized blocks; for a self-distance call (``b is a``) it
fills only the upper triangle and mirrors it. :func:`nearest_sq_dists`, the
nearest-row search, screens with one BLAS product and confirms the surviving
pairs by difference, so its labels and distances equal the argmin and min of
the full numpy matrix bit for bit, whatever BLAS rounding or threading does.
It always confirms in numpy, also when the numba backend is active.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .errors import UsageError

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

ENV_BACKEND = "TOKPOOL_BACKEND"

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


# ---------------------------------------------------------------------------
# numpy / pure-python backend
# ---------------------------------------------------------------------------


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


def _fill_u64_np(state, n):
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


def _fill_uniform_np(state, n):
    return (_fill_u64_np(state, n) >> 11) * _DOUBLE_SCALE


def _fill_normal_np(state, n):
    # Marsaglia polar method over chunks of uniform pairs. Once a chunk holds
    # the last pair needed, the state is rewound to just after that pair; the
    # spare value of an odd n is dropped. The logarithm is math.log on each
    # element: np.log's SIMD path can differ from it in the last ulp.
    out = np.empty(n, dtype=np.float64)
    done = 0
    while done < n:
        need = (n - done + 1) // 2
        pairs = min(_PAIRS, need + need // 3 + 8)  # about pi/4 are accepted
        start = state.copy()
        uv = 2.0 * _fill_uniform_np(state, 2 * pairs) - 1.0
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


def _pairwise_sq_dists_np(a, b):
    # Differences are squared directly (no norm-expansion trick) so that
    # identical rows give an exact zero. einsum sums each length-M row in an
    # order that depends only on M, so every block size gives the same bits.
    # For ``b is a`` only column blocks from each row block's first row on are
    # computed, and the strict lower triangle is mirrored from the upper one:
    # (x - y)**2 == (y - x)**2 exactly.
    n, m = a.shape
    k = b.shape[0]
    symmetric = b is a
    out = np.empty((n, k), dtype=np.float64)
    cols = max(1, min(k, _BLOCK // max(1, m)))
    rows = max(1, _BLOCK // max(1, cols * m))
    buf = np.empty(rows * cols * m)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        for clo in range(lo if symmetric else 0, k, cols):
            chi = min(clo + cols, k)
            diff = buf[:(hi - lo) * (chi - clo) * m].reshape(hi - lo, chi - clo, m)
            np.subtract(a[lo:hi, None, :], b[None, clo:chi, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[lo:hi, clo:chi])
    if symmetric:
        np.copyto(out, out.T, where=np.tri(n, k=-1, dtype=bool))
    return out


def _confirm(a, b, rows, cols):
    # Exact distances of the listed pairs, by the same einsum reduction as
    # _pairwise_sq_dists_np, in blocks that bound the temporaries.
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

    Bit-identical to ``row_argmin(_pairwise_sq_dists_np(a, b))``: lowest
    index wins ties. One GEMM per block of rows screens
    ``s_ij = |a_i|^2 + |b_j|^2 - 2 a_i.b_j``; only the pairs that could still
    hold the row minimum are recomputed by difference. Non-finite input, or
    magnitudes outside ``_SCREEN_RANGE``, take the full matrix instead.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n, m = a.shape
    if n == 0 or not (_screenable(a) and _screenable(b)):
        return row_argmin(_pairwise_sq_dists_np(a, b))
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


def _medoid_update_np(d2, labels, k):
    med = np.full(k, -1, dtype=np.int64)
    for j in range(k):
        idx = np.flatnonzero(labels == j)
        if idx.size == 0:
            continue
        costs = d2[np.ix_(idx, idx)].sum(axis=1)
        med[j] = idx[np.argmin(costs)]
    return med


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True)
    def _next_u64_nb(state):
        s0 = state[0]
        s1 = state[1]
        s2 = state[2]
        s3 = state[3]
        r = s1 * np.uint64(5)
        r = (r << np.uint64(7)) | (r >> np.uint64(57))
        r = r * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 = s2 ^ s0
        s3 = s3 ^ s1
        s1 = s1 ^ s2
        s0 = s0 ^ s3
        s2 = s2 ^ t
        s3 = (s3 << np.uint64(45)) | (s3 >> np.uint64(19))
        state[0] = s0
        state[1] = s1
        state[2] = s2
        state[3] = s3
        return r

    @njit(cache=True)
    def _fill_u64_nb(state, out):
        for i in range(out.shape[0]):
            out[i] = _next_u64_nb(state)

    @njit(cache=True)
    def _fill_uniform_nb(state, out):
        for i in range(out.shape[0]):
            out[i] = np.float64(_next_u64_nb(state) >> np.uint64(11)) * _DOUBLE_SCALE

    @njit(cache=True)
    def _fill_normal_nb(state, out):
        n = out.shape[0]
        i = 0
        while i < n:
            ra = np.float64(_next_u64_nb(state) >> np.uint64(11)) * _DOUBLE_SCALE
            rb = np.float64(_next_u64_nb(state) >> np.uint64(11)) * _DOUBLE_SCALE
            u = 2.0 * ra - 1.0
            v = 2.0 * rb - 1.0
            s = u * u + v * v
            if s >= 1.0 or s == 0.0:
                continue
            f = math.sqrt(-2.0 * math.log(s) / s)
            out[i] = u * f
            i += 1
            if i < n:
                out[i] = v * f
                i += 1

    @njit(cache=True)
    def _pairwise_sq_dists_nb(a, b):
        n, m = a.shape
        k = b.shape[0]
        out = np.empty((n, k), dtype=np.float64)
        for i in range(n):
            for j in range(k):
                acc = 0.0
                for t in range(m):
                    d = a[i, t] - b[j, t]
                    acc += d * d
                out[i, j] = acc
        return out

    @njit(cache=True)
    def _medoid_update_nb(d2, labels, k):
        n = labels.shape[0]
        med = np.full(k, -1, dtype=np.int64)
        best = np.full(k, np.inf)
        for i in range(n):
            j = labels[i]
            cost = 0.0
            for t in range(n):
                if labels[t] == j:
                    cost += d2[i, t]
            if cost < best[j]:  # strict: first (lowest-index) minimum wins
                best[j] = cost
                med[j] = i
        return med


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


_BACKENDS = {
    "numpy": {
        "fill_u64": _fill_u64_np,
        "fill_uniform": _fill_uniform_np,
        "fill_normal": _fill_normal_np,
        "pairwise_sq_dists": _pairwise_sq_dists_np,
        "medoid_update": _medoid_update_np,
    }
}

if HAVE_NUMBA:

    def _nb_fill(fill, dtype):
        def run(state, n):
            out = np.empty(int(n), dtype=dtype)
            fill(state, out)
            return out

        return run

    _BACKENDS["numba"] = {
        "fill_u64": _nb_fill(_fill_u64_nb, np.uint64),
        "fill_uniform": _nb_fill(_fill_uniform_nb, np.float64),
        "fill_normal": _nb_fill(_fill_normal_nb, np.float64),
        "pairwise_sq_dists": _pairwise_sq_dists_nb,
        "medoid_update": _medoid_update_nb,
    }


def _initial_backend() -> str:
    choice = os.environ.get(ENV_BACKEND, "").strip().lower()
    if choice:
        if choice not in _BACKENDS:
            raise UsageError(
                f"{ENV_BACKEND}={choice!r} is not available; "
                f"choose one of {sorted(_BACKENDS)}"
            )
        return choice
    return "numba" if HAVE_NUMBA else "numpy"


_active = _initial_backend()


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def get_backend() -> str:
    return _active


def set_backend(name: str) -> str:
    """Switch kernel backend; returns the previously active one."""
    global _active
    if name not in _BACKENDS:
        raise UsageError(f"unknown backend {name!r}; choose one of {sorted(_BACKENDS)}")
    previous = _active
    _active = name
    return previous


def fill_u64(state: np.ndarray, n: int) -> np.ndarray:
    return _BACKENDS[_active]["fill_u64"](state, int(n))


def fill_uniform(state: np.ndarray, n: int) -> np.ndarray:
    return _BACKENDS[_active]["fill_uniform"](state, int(n))


def fill_normal(state: np.ndarray, n: int) -> np.ndarray:
    return _BACKENDS[_active]["fill_normal"](state, int(n))


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All squared distances; ``pairwise_sq_dists(a, a)`` is exactly symmetric."""
    same = b is a
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = a if same else np.ascontiguousarray(b, dtype=np.float64)
    return _BACKENDS[_active]["pairwise_sq_dists"](a, b)


def medoid_update(d2: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    d2 = np.ascontiguousarray(d2, dtype=np.float64)
    labels = np.ascontiguousarray(labels, dtype=np.int64)
    return _BACKENDS[_active]["medoid_update"](d2, labels, int(k))
