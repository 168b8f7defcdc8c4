"""The generator against the scalar xoshiro256** stepper, bit for bit.

Known answers pin the stream: each digest is the sha256 of the output bytes
and of the four state words after the fill, as the per-draw scalar loop
produced them. The property tests drive ``_kernels._step_py``, one draw at a
time, as the reference for arbitrary interleavings of fills, including sizes
at the scalar/lane switch and at lane and Gaussian chunk boundaries.
"""

import contextlib
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokpool import _kernels
from tokpool import io as tpio
from tokpool.numerics import Rng
from tokpool.transformer import synth_weights

from conftest import FIXTURES


def sha(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


KNOWN = {
    (0, "u64", 20001): (
        "1989345bc271f9284da404cdc4b544dd7b8d83fdaa76d63e883e89d22c2d3c98",
        "acec3e8a0205960cce0171f1eb712e3b65543618a39fde95d6447bcb85f825b5",
    ),
    (0, "random", 20001): (
        "985dc9b1e2e644e60b304b646f2e68ba3c5e1569f50f557e8dd707c1077963f5",
        "acec3e8a0205960cce0171f1eb712e3b65543618a39fde95d6447bcb85f825b5",
    ),
    (0, "normal", (101, 203)): (
        "9479d7940728fd8ab31d67da347374b36b170db0d96c4edb5ce0463ab980278e",
        "79fc06503d3bda0eff1d1c04c068d409c8e73250dfe1c792f3f06149a77d364b",
    ),
    (0, "normal", 1): (
        "9de886f4d79336c63514369170de2f8a8a1b1c8a834f8d59b3f8e671a44f5f88",
        "a0f5b9fb73a159ee22d8eb93674ca6ee681b79f69dd28175d898974b4187d085",
    ),
    (7, "u64", 20001): (
        "a57085e4736e1f9ac66223af61ed87bb924fe4b5776107235e90c8cfb591f49d",
        "d4f78185fb6fda9a735d587b7b796f97ba893d5c3cb6d6dab75644d8cdcc9dc4",
    ),
    (7, "random", 20001): (
        "631b4f9eef98c3663d3a625e861770ead022f4f2e1280ff06f3ac851366f9b8d",
        "d4f78185fb6fda9a735d587b7b796f97ba893d5c3cb6d6dab75644d8cdcc9dc4",
    ),
    (7, "normal", (101, 203)): (
        "f3090e6bf3cab523a3cd1411ac44d7ab34c1d6e729598225832fd753ba42d638",
        "efa8cf52d1258ae8c42c064d932bfb553d59e417e1c08d43b2bbac4c597e5df2",
    ),
    (7, "normal", 1): (
        "206683a61574a2c0a45569be6e71f438863aaf647f05ee9db89b2a5e8c421c13",
        "36163b68b43cdf05aa4721806ee051c942bb5ae965f230d5c2dca1e65e0749a3",
    ),
    (2**64 - 1, "u64", 20001): (
        "432d94114ab902cd5bc62d25f97bdd255739dc6dbfc5cc7d77710ed1746575a0",
        "c6ddf61b6255496dfbe9135be34052fbd81cc2866b0d707389dcd54208a2f9ad",
    ),
    (2**64 - 1, "random", 20001): (
        "a570bb67bc73bc92c68be34fd8672a66f09b8c9b530de9e69b6c888c1f659b66",
        "c6ddf61b6255496dfbe9135be34052fbd81cc2866b0d707389dcd54208a2f9ad",
    ),
    (2**64 - 1, "normal", (101, 203)): (
        "006522737e2ebb9b24bf326cc7099c69200aa098860cd864c30bd7a9718246a9",
        "35053ddc9693d822c06d5ec1f9dc24a2bf77993cc2037a3a24dfac9b04eaad00",
    ),
    (2**64 - 1, "normal", 1): (
        "039fbd75e79d112a1c4707db3aa227f9580d7a85ffbbe3e3d6a7edd907b1cd6e",
        "0e89b155d1696a775a1c9df376356330881787d60e572794d729257b1fa6d951",
    ),
}

# Every weight array of synth_weights(deit-ti, seed 7), in block order
# wq, wk, wv, wo, mlp1, mlp2: 5.3M Gaussian draws over 72 fills.
DEIT_TI_SEED7 = "5ca16d3c90af881601b8ba96c3c9d832d319f2b8ce242f58f7a5a6d04923099f"


@pytest.mark.parametrize("seed, kind, size", list(KNOWN))
def test_known_answers(seed, kind, size):
    rng = Rng(seed)
    out = getattr(rng, kind)(size)
    assert (sha(out), sha(rng._state)) == KNOWN[seed, kind, size]


def test_synth_weights_known_answer():
    blocks = synth_weights(tpio.read_config(FIXTURES / "configs" / "deit-ti.json"), 7)
    digest = hashlib.sha256()
    for block in blocks:
        for name in ("wq", "wk", "wv", "wo", "mlp1", "mlp2"):
            digest.update(getattr(block, name).tobytes())
    assert digest.hexdigest() == DEIT_TI_SEED7


class Reference:
    """xoshiro256** one ``_step_py`` at a time, with the scalar polar method."""

    def __init__(self, seed):
        self.s = tuple(int(v) for v in _kernels.seed_state(seed))

    def _next(self) -> int:
        *self.s, r = _kernels._step_py(*self.s)
        return r

    @property
    def state(self):
        return np.array(self.s, dtype=np.uint64)

    def u64(self, n):
        return np.array([self._next() for _ in range(n)], dtype=np.uint64)

    def random(self, n):
        return np.array([(self._next() >> 11) * 2.0 ** -53 for _ in range(n)])

    def normal(self, n):
        out = []
        while len(out) < n:
            u = 2.0 * ((self._next() >> 11) * 2.0 ** -53) - 1.0
            v = 2.0 * ((self._next() >> 11) * 2.0 ** -53) - 1.0
            s = u * u + v * v
            if s >= 1.0 or s == 0.0:
                continue
            f = math.sqrt(-2.0 * math.log(s) / s)
            out.append(u * f)
            if len(out) < n:
                out.append(v * f)
        return np.array(out, dtype=np.float64)


@contextlib.contextmanager
def geometry(lanes, lane_min, pairs):
    """Shrink the lane and chunk sizes so small fills cross their edges."""
    saved = _kernels._LANES, _kernels._LANE_MIN, _kernels._PAIRS
    _kernels._LANES, _kernels._LANE_MIN, _kernels._PAIRS = lanes, lane_min, pairs
    try:
        yield
    finally:
        _kernels._LANES, _kernels._LANE_MIN, _kernels._PAIRS = saved


REAL = (_kernels._LANES, _kernels._LANE_MIN, _kernels._PAIRS)
SMALL = (8, 4, 16)


def edges(lanes, lane_min, pairs):
    # 0 and 1; the scalar/lane switch; lane counts that fill the last lane
    # exactly or leave it one draw long or short; one Gaussian chunk of pairs.
    sizes = {0, 1, 2, lane_min - 1, lane_min, lane_min + 1, 2 * pairs}
    for n in (4096, 8192, 4 * lanes, 64 * lanes):
        sizes.update((n - 1, n, n + 1))
    return sorted(s for s in sizes if 0 <= s <= 9000)


KINDS = ("u64", "random", "normal")  # Rng and Reference method names


def check_sequence(seed, fills):
    rng, ref = Rng(seed), Reference(seed)
    for kind, n in fills:
        got = getattr(rng, kind)(n)
        want = getattr(ref, kind)(n)
        assert got.dtype == want.dtype and got.shape == (n,)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rng._state, ref.state)


@pytest.mark.parametrize("config", [REAL, SMALL], ids=["real", "small"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_interleaved_fills_match_scalar_stepper(config, data, seed):
    sizes = st.one_of(st.sampled_from(edges(*config)), st.integers(0, 2500))
    fills = data.draw(
        st.lists(st.tuples(st.sampled_from(KINDS), sizes), min_size=1, max_size=4)
    )
    with geometry(*config):
        check_sequence(seed, fills)


@pytest.mark.parametrize("config", [REAL, SMALL], ids=["real", "small"])
@pytest.mark.parametrize("kind", KINDS)
def test_edge_sizes(config, kind):
    with geometry(*config):
        check_sequence(11, [(kind, n) for n in edges(*config)])


@pytest.mark.parametrize("seed", [3, 4])
def test_gaussian_chunk_boundary(seed):
    # n around twice the pairs the first chunk accepts: the fill ends in the
    # first chunk, exactly at its end, or needs a second chunk.
    with geometry(*SMALL):
        u = Reference(seed).random(2 * _kernels._PAIRS)
        s = (2.0 * u[0::2] - 1.0) ** 2 + (2.0 * u[1::2] - 1.0) ** 2
        accepted = int(((s < 1.0) & (s != 0.0)).sum())
        for n in range(2 * accepted - 2, 2 * accepted + 3):
            check_sequence(seed, [("normal", n), ("u64", 3)])


def test_lane_cap_and_long_jumps():
    # More draws than _LANES lanes of the natural length: the lane count caps
    # and lanes grow; the Gaussian rewind jumps by A**k with k >= _LANE_MIN.
    with geometry(8, 4, 1 << 12):
        check_sequence(5, [("u64", 6000), ("normal", 5001), ("random", 3)])


def test_tables_are_lazy():
    # Fills below the lane switch never build the jump tables.
    _kernels._power.cache_clear()
    Rng(1).random(_kernels._LANE_MIN - 1)
    Rng(1).normal(200)
    assert _kernels._power.cache_info().currsize == 0
    Rng(1).u64(_kernels._LANE_MIN)
    assert _kernels._power.cache_info().currsize > 0
