"""Golden sha256 digests of CLI output files.

A refactor that keeps ``pool`` and ``cost`` byte-identical keeps these
digests. Inputs come from ``tokpool.numerics.Rng``, whose uniform and integer
streams are the same on every platform, and stored as TPM1 (float32), so the
input files themselves are fixed. Every pooling distance is exact by
difference, so the outputs do not depend on BLAS either. ``forward`` is not
pinned here: its blocks run BLAS products whose bits depend on the library.
"""

import hashlib

import numpy as np
import pytest

from tokpool import io as tpio
from tokpool.cli import main
from tokpool.numerics import Rng

from conftest import FIXTURES

GRID = (4, 6)
N_TOKENS = 1 + GRID[0] * GRID[1]  # classification token plus a 4x6 grid
DIM = 8


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def inputs(tmp_path):
    rng = Rng(20261018)
    # integer-valued features over a small range: many exact ties, and one
    # pair of duplicate rows, so tie-breaking rules are pinned as well
    feats = np.floor(rng.random(N_TOKENS * DIM) * 9.0 - 4.0).reshape(N_TOKENS, DIM)
    feats[7] = feats[3]
    weights = (0.25 + rng.random(N_TOKENS)).reshape(-1, 1)
    tokens, wfile = tmp_path / "tokens.tpm", tmp_path / "weights.tpm"
    tpio.write_matrix(tokens, feats)
    tpio.write_matrix(wfile, weights)
    assert _sha(tokens.read_bytes()) == (
        "353a747ac711d909745a9bc309a6966a979382427930abb15034566e56e8b88a"
    )
    return tmp_path, str(tokens), str(wfile)


POOL_CASES = {
    "kmeans": ["--method", "kmeans", "--k", "6", "--init", "random", "--seed", "3"],
    "wkmeans": ["--method", "wkmeans", "--k", "6", "--weights", "{w}"],
    "kmedoids": ["--method", "kmedoids", "--k", "5", "--iters", "7"],
    "wkmedoids": ["--method", "wkmedoids", "--k", "6", "--weights", "{w}",
                  "--no-protect-first"],
    "random": ["--method", "random", "--k", "6", "--seed", "11"],
    "importance": ["--method", "importance", "--k", "6", "--weights", "{w}",
                   "--seed", "5"],
    "grid": ["--method", "grid", "--k", "1", "--grid", "4", "6", "--emit-counts"],
    "k-covers-all": ["--method", "kmedoids", "--k", "30", "--emit-counts"],
}

POOL_DIGESTS = {
    "grid": (
        "64be3adc3aa6773134ddf3ce5def56917cf0c012b6540b74b74df215ac8ebddc",
        "03e3d693959383850c9447fa8267bcc21fdbec7bf24debb2f365d6f0ba3639be",
    ),
    "importance": (
        "ff04f9b564a37fe41bd7f2612df7331dbd1c0a3b5d6c914afe937fe957592cf3",
        "9d87778763a65b4e977127fb0a6d78282a3c36e649c7dc4cebc5ba8cbea24207",
    ),
    "k-covers-all": (
        "353a747ac711d909745a9bc309a6966a979382427930abb15034566e56e8b88a",
        "824ddb7410ad8f2370768e8f3c29269ba8938c85d72e8a8f3239d44931e2dd63",
    ),
    "kmeans": (
        "86200b2f4126afc8fa96cbaeaea3cfe363ddd4c927674216548380b0a83d0e33",
        "f050c7713ecc70db49541ecde08f70a986e6d91302b654715657008b87b63fd3",
    ),
    "kmedoids": (
        "9897c2717c20c9e06f64a830296bb6b74bb3fb0080deeea4325ebcf0ab7c300f",
        "a08e4f79d089df9f1f9e6047dcdf9da92f656f30310cc2304a8b181e9891c31c",
    ),
    "random": (
        "8a88ad832bfa05aaa751425057541569b37f08b13e425212b35b0f28ec16d0c6",
        "2ae76066caae50c25f9424480166498bd7acc4ec206c392176b39b6487442367",
    ),
    "wkmeans": (
        "aa25e4d4ff68d24c59286483d956e36059a4ea545938ce69c4878aef2f5e5ca9",
        "521e113da49e11e1ba119981fbfae456defcd23c87c87ec093c0bb17a6e15d71",
    ),
    "wkmedoids": (
        "06ad6fb651b6b7cbc3cb6b4d24634cf1c93865a6f640ef0219d8700ead7be8d7",
        "9c286c2064d9bcb9292f81710f9f2d9e082b0a1825afe08272c5bffd8c79749a",
    ),
}


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_pool_outputs(case, inputs, capsys):
    tmp_path, tokens, wfile = inputs
    out, rec = tmp_path / "out.tpm", tmp_path / "rec.json"
    argv = ["pool", "--input", tokens, "--out", str(out), "--assignments", str(rec)]
    argv += [a.format(w=wfile) for a in POOL_CASES[case]]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    got = (_sha(out.read_bytes()), _sha(rec.read_bytes()))
    assert got == POOL_DIGESTS[case]


COST_DIGESTS = {
    "table": "aa58464614c8acd5fdb86d2b9a85a64f5c025169f0b26d9fc1d114c480ddbd0a",
    "csv": "32303df624a281fba9a82fb6a9b6f248416811c5198b54b0d5b250fb0c5a919e",
    "json": "c57fb981af88cc0316623f7b4929e0f6684a3e5ad7210773b7bad2425936505f",
}


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_cost_outputs(fmt, capsys):
    argv = [
        "cost", "--config", str(FIXTURES / "configs" / "deit-s.json"),
        "--schedule", str(FIXTURES / "schedules" / "deit-s-sparsity5.json"),
        "--clustering", "kmedoids", "--format", fmt,
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out.encode()) == COST_DIGESTS[fmt]
