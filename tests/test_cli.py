import ctypes
import errno
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tokpool
from tokpool import io as tpio
from tokpool.cli import main
from tokpool.numerics import Rng

from conftest import FIXTURES

DEIT_S_CONFIG = str(FIXTURES / "configs" / "deit-s.json")
SHIPPED_SCHEDULES = sorted((FIXTURES / "schedules").glob("*.json"))
_NAMES = ("wq", "wk", "wv", "wo", "mlp1", "mlp2")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_weights_dir(wdir, blocks):
    """Export blocks as layer{L:02d}_{name}.tpm files, heads side by side."""
    wdir.mkdir()
    for layer, w in enumerate(blocks):
        qkv = {
            "wq": np.hstack(list(w.wq)),
            "wk": np.hstack(list(w.wk)),
            "wv": np.hstack(list(w.wv)),
        }
        for name, mat in {**qkv, "wo": w.wo, "mlp1": w.mlp1, "mlp2": w.mlp2}.items():
            tpio.write_matrix(wdir / f"layer{layer:02d}_{name}.tpm", mat)


class TestCost:
    def test_json_grand_total_near_published(self, capsys):
        code, out, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--format", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert abs(payload["grand_total"] - 4.6e9) / 4.6e9 < 0.02
        shares = payload["shares"]
        assert shares["qkv"] + shares["oproj"] + shares["mlp"] > 0.80

    def test_csv_and_table_render(self, capsys):
        code, out, _ = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "layer,tokens,attention,qkv,oproj,mlp,clustering,total"
        code, out, _ = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG)
        assert code == 0 and "fully-connected share" in out

    def test_schedule_override_with_clustering(self, capsys):
        sched = str(FIXTURES / "schedules" / "deit-s-sparsity0.json")
        code, out, _ = run_cli(
            capsys, "cost", "--config", DEIT_S_CONFIG, "--schedule", sched,
            "--clustering", "kmedoids", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.05e9 <= payload["totals"]["clustering"] <= 0.2e9

    def test_all_24_schedules_are_shipped(self):
        assert len(SHIPPED_SCHEDULES) == 24

    @pytest.mark.parametrize("sched", SHIPPED_SCHEDULES, ids=lambda p: p.stem)
    def test_shipped_schedule_prices_on_deit_s(self, capsys, sched):
        assert len(tpio.read_schedule(sched)) == 12
        code, out, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG,
                                 "--schedule", str(sched))
        assert code == 0 and out and err == ""

    def test_deterministic_stdout(self, capsys):
        _, out1, _ = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--format", "json")
        _, out2, _ = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--format", "json")
        assert out1 == out2

    def test_missing_config_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--config", "missing.json")
        assert code == 2 and "data error" in err

    def test_boolean_schedule_is_data_error(self, capsys, tmp_path):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps([True] + [196] * 11))
        code, out, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--schedule", str(sched))
        assert code == 2 and out == "" and "array of integers" in err

    def test_schedule_of_wrong_length_is_data_error(self, capsys, tmp_path):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps([196, 196, 196]))  # deit-s has 12 layers
        code, out, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--schedule", str(sched))
        assert code == 2 and out == "" and "data error" in err and str(sched) in err

    @pytest.mark.parametrize("alpha", ["Infinity", "1" + "0" * 400])
    def test_alpha_beyond_double_range_is_data_error(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"layers": 4, "dim": 16, "heads": 4, "tokens": 10, "alpha": {alpha}}}')
        code, out, err = run_cli(capsys, "cost", "--config", str(cfg))
        assert code == 2 and out == "" and "alpha must be finite and positive" in err


class TestPool:
    def test_identity_guard_byte_identical(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        dst = tmp_path / "o.tpm"
        tpio.write_matrix(src, np.random.default_rng(0).normal(size=(10, 4)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "999",
            "--method", "kmeans", "--out", str(dst),
        )
        assert code == 0 and err == ""
        assert src.read_bytes() == dst.read_bytes()

    def test_kmedoids_with_assignments(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        out = tmp_path / "o.tpm"
        asg = tmp_path / "a.json"
        tpio.write_matrix(src, np.random.default_rng(1).normal(size=(12, 4)))
        code, _, _ = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", "kmedoids",
            "--out", str(out), "--assignments", str(asg),
        )
        assert code == 0
        pooled = tpio.read_matrix(out)
        assert pooled.shape == (4, 4)  # 3 medoids + protected row 0
        record = json.loads(asg.read_text())
        assert record["method"] == "kmedoids"
        assert len(record["assignment"]) == 11
        assert len(record["medoid_indices"]) == 3
        src_vals = tpio.read_matrix(src)
        for idx in record["medoid_indices"]:
            assert (src_vals[1 + idx] == pooled).all(axis=1).any()

    def test_scores_from_attention(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        n, h = 8, 2
        logits = rng.normal(size=(h, n, n))
        maps = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        amap = tmp_path / "a.tpm"
        tpio.write_attention_maps(amap, maps)
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, rng.normal(size=(n, 4)))
        out = tmp_path / "o.tpm"
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", "wkmedoids",
            "--scores-from", str(amap), "--heads", str(h), "--out", str(out),
        )
        assert code == 0 and err == ""
        assert tpio.read_matrix(out).shape == (4, 4)

    @pytest.mark.parametrize("method", ["wkmeans", "wkmedoids", "importance"])
    def test_scores_from_equals_weights_from_score_csv(self, capsys, tmp_path, method):
        # a CSV keeps the float64 scores exactly, so both routes pool the same weights
        rng = np.random.default_rng(8)
        h, n = 3, 40
        maps = rng.random((h, n, n))
        maps /= maps.sum(axis=2, keepdims=True)
        amap, src, scores = tmp_path / "a.tpm", tmp_path / "f.tpm", tmp_path / "s.csv"
        tpio.write_attention_maps(amap, maps)
        tpio.write_matrix(src, rng.normal(size=(n, 6)))
        assert run_cli(capsys, "score", "--attention", str(amap), "--heads", str(h),
                       "--out", str(scores)) == (0, "", "")
        written = []
        for route, flags in (("maps", ["--scores-from", str(amap), "--heads", str(h)]),
                             ("csv", ["--weights", str(scores)])):
            out, record = tmp_path / f"{route}.tpm", tmp_path / f"{route}.json"
            code, _, err = run_cli(
                capsys, "pool", "--input", str(src), "--k", "7", "--method", method,
                "--seed", "3", *flags, "--out", str(out), "--assignments", str(record),
            )
            assert code == 0, err
            written.append((out.read_bytes(), record.read_bytes()))
        assert written[0] == written[1]

    def test_weights_and_scores_conflict(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.ones((4, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "kmeans",
            "--weights", str(src), "--scores-from", str(src), "--heads", "1",
            "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "usage error" in err

    def test_weights_of_wrong_count_is_data_error(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        weights = tmp_path / "w.tpm"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        tpio.write_matrix(weights, np.ones((5, 1)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--weights", str(weights), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and "expected 6 weights, got 5" in err

    @pytest.mark.parametrize("shape", [(3, 2), (1, 6)], ids=["3x2", "1x6"])
    def test_weights_not_one_column_is_data_error(self, capsys, tmp_path, shape):
        # six values, but a weights file is N x 1, as `score` writes it
        src = tmp_path / "f.tpm"
        weights = tmp_path / "w.tpm"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        tpio.write_matrix(weights, np.ones(shape))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--weights", str(weights), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2
        assert err == (f"data error: {weights}: weights must be one column (N x 1), "
                       f"got {shape[0]}x{shape[1]}\n")
        assert not (tmp_path / "o.tpm").exists()

    def test_importance_without_weights_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "importance",
            "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1
        assert err == "usage error: method 'importance' requires token weights\n"

    def test_scores_from_maps_are_released_before_pooling(self, capsys, tmp_path,
                                                         monkeypatch):
        # only the scores may reach pooling; the maps file's payload must be freed
        import tracemalloc

        from tokpool import pooling

        rng = np.random.default_rng(5)
        h, n = 12, 201
        maps = rng.random((h, n, n))
        maps /= maps.sum(axis=2, keepdims=True)
        amap, src = tmp_path / "a.tpm", tmp_path / "f.tpm"
        tpio.write_attention_maps(amap, maps)
        tpio.write_matrix(src, rng.normal(size=(n, 8)))
        seen = []
        real = pooling.token_pool

        def spy(tokens, spec):
            seen.append(tracemalloc.get_traced_memory()[0])
            return real(tokens, spec)

        monkeypatch.setattr(pooling, "token_pool", spy)
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "pool", "--input", str(src), "--k", "50", "--method", "wkmedoids",
                "--scores-from", str(amap), "--heads", str(h),
                "--out", str(tmp_path / "o.tpm"),
            )
        finally:
            tracemalloc.stop()
        assert code == 0, err
        payload = h * n * n * 4
        assert len(seen) == 1 and seen[0] < payload, (seen, payload)

    @pytest.mark.parametrize("method, positive, message", [
        ("wkmeans", 1, "weights sum to zero"),
        ("wkmedoids", 1, "weights sum to zero"),
        ("importance", 1, "probs sum to zero"),
    ])
    def test_too_few_positive_weights_is_data_error(self, capsys, tmp_path, method,
                                                    positive, message):
        # zero weights are valid; row 0 is protected, so `positive` - 1 rows can be drawn
        src = tmp_path / "f.tpm"
        weights = tmp_path / "w.tpm"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        tpio.write_matrix(weights, (np.arange(6) < positive).astype(float).reshape(-1, 1))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", method,
            "--weights", str(weights), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and message in err

    def test_importance_draws_zero_scores_once_positive_mass_is_spent(self, capsys, tmp_path):
        # row 0 is protected and row 1 is the one clusterable positive score;
        # the second draw falls back to the zero-score rows, uniformly
        src, weights = tmp_path / "f.tpm", tmp_path / "w.tpm"
        out, asg = tmp_path / "o.tpm", tmp_path / "a.json"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        tpio.write_matrix(weights, (np.arange(6) < 2).astype(float).reshape(-1, 1))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "importance",
            "--weights", str(weights), "--out", str(out), "--assignments", str(asg),
        )
        assert code == 0, err
        pooled, feats = tpio.read_matrix(out), tpio.read_matrix(src)
        record = json.loads(asg.read_text())
        assert pooled.shape == (3, 2)  # K + 1 rows
        assert 0 in record["medoid_indices"]  # row 1, the positive score, survives
        np.testing.assert_array_equal(pooled[1:], feats[1:][record["medoid_indices"]])
        assert all(c > 0 for c in record["counts"])

    def test_scores_from_without_heads_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.ones((4, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--scores-from", str(src), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "--scores-from requires --heads" in err

    def test_scores_from_zero_heads_is_heads_usage_error(self, capsys, tmp_path):
        # --heads 0 is given, so it reaches the heads check, as in score
        amap = tmp_path / "a.tpm"
        tpio.write_attention_maps(amap, np.full((2, 4, 4), 0.25))
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.ones((4, 2)))
        code, out, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--scores-from", str(amap), "--heads", "0", "--out", str(tmp_path / "o.tpm"),
        )
        assert (code, out, err) == (1, "", "usage error: heads must be >= 1\n")
        assert run_cli(capsys, "score", "--attention", str(amap), "--heads", "0",
                       "--out", str(tmp_path / "s.tpm")) == (code, out, err)
        assert not (tmp_path / "o.tpm").exists() and not (tmp_path / "s.tpm").exists()

    def test_scores_from_other_token_count_is_data_error(self, capsys, tmp_path):
        amap = tmp_path / "a.tpm"
        tpio.write_attention_maps(amap, np.full((2, 5, 5), 0.2))
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(6, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--scores-from", str(amap), "--heads", "2", "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and "maps cover 5 tokens, input has 6" in err

    def test_grid_method_without_grid_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.ones((4, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "1", "--method", "grid",
            "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "the grid method requires --grid H W" in err

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_token_file_is_data_error(self, capsys, tmp_path, shape):
        src = tmp_path / "empty.tpm"
        tpio.write_matrix(src, np.zeros(shape))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "kmeans",
            "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and "data error" in err and "at least one row" in err
        assert not (tmp_path / "o.tpm").exists()

    @pytest.mark.parametrize("emit", [False, True], ids=["record", "emit-counts"])
    @pytest.mark.parametrize("method, seed", [("kmeans", 709), ("wkmeans", 251)])
    def test_iteration_cap_leaves_no_cluster_empty(self, capsys, tmp_path, method, seed, emit):
        # one Lloyd step from topk init leaves a cluster empty on these inputs
        rng = np.random.default_rng(seed)
        src, out, asg = tmp_path / "f.tpm", tmp_path / "o.tpm", tmp_path / "a.json"
        tpio.write_matrix(src, rng.standard_cauchy((12, 1)))
        argv = ["pool", "--input", str(src), "--k", "4", "--method", method, "--iters", "1",
                "--init", "topk", "--out", str(out), "--assignments", str(asg)]
        if method == "wkmeans":
            tpio.write_matrix(tmp_path / "w.tpm", rng.random((12, 1)))
            argv += ["--weights", str(tmp_path / "w.tpm")]
        if emit:
            argv.append("--emit-counts")
        code, _, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        record = json.loads(asg.read_text())
        counts = np.asarray(record["counts"])
        assert (counts > 0).all() and counts.sum() == 11
        assert record["iterations"] > 1  # the steps past the cap are counted
        assert tpio.read_matrix(out).shape == (5, 1)

    @pytest.mark.parametrize("method, scale", [
        ("kmeans", 1e307), ("wkmeans", 1e307), ("kmedoids", 1e307), ("random", 1e307),
        ("kmedoids", 1.7e308),
    ])
    def test_entries_overflowing_squared_distances_are_data_error(self, capsys, tmp_path,
                                                                 method, scale):
        src, wfile = tmp_path / "big.csv", tmp_path / "w.csv"
        feats = np.random.default_rng(1).normal(size=(12, 3))
        tpio.write_matrix(src, np.clip(feats, -1, 1) * scale)
        tpio.write_matrix(wfile, np.ones((12, 1)))
        weights = ["--weights", str(wfile)] if method == "wkmeans" else []
        out, rec = tmp_path / "o.csv", tmp_path / "a.json"
        code, stdout, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", method, *weights,
            "--out", str(out), "--assignments", str(rec),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"data error: {src}: entries up to ") and err.count("\n") == 1
        assert "overflow the squared distances of 12 tokens of dim 3" in err
        assert not out.exists() and not rec.exists()

    def test_largest_entries_within_the_bound_pool(self, capsys, tmp_path):
        # N * M * (2 * max|x|)^2 just below the largest double: every loss is finite
        src, rec = tmp_path / "edge.csv", tmp_path / "a.json"
        feats = np.clip(np.random.default_rng(1).normal(size=(12, 3)), -1, 1)
        feats[0, 0], feats[1, 0] = 1.0, -1.0
        tpio.write_matrix(src, feats * np.sqrt(np.finfo(np.float64).max / (4 * 36)) * 0.999)
        for method in ("kmeans", "kmedoids", "random"):
            code, _, err = run_cli(
                capsys, "pool", "--input", str(src), "--k", "1", "--method", method,
                "--no-protect-first", "--out", str(tmp_path / "o.csv"),
                "--assignments", str(rec),
            )
            assert (code, err) == (0, ""), method
            assert np.isfinite(json.loads(rec.read_text())["loss"])

    def test_non_finite_loss_is_not_written_as_json(self, capsys, tmp_path, monkeypatch):
        # JSON has no Infinity, so a record holding one is refused and nothing
        # is left; the input bounds keep every pooled loss finite, so the
        # overflowed loss is put in after pooling
        real = tokpool.pooling.token_pool

        def overflowing(*args, **kwargs):
            pooled, result = real(*args, **kwargs)
            result.loss = float("inf")
            return pooled, result

        monkeypatch.setattr(tokpool.pooling, "token_pool", overflowing)
        src, wfile = tmp_path / "in.csv", tmp_path / "w.csv"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(12, 3)) * 1e5)
        tpio.write_matrix(wfile, np.ones((12, 1)))
        out, rec = tmp_path / "o.csv", tmp_path / "a.json"
        code, stdout, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", "wkmeans",
            "--weights", str(wfile), "--out", str(out), "--assignments", str(rec),
        )
        assert (code, stdout, err) == (
            2, "", f"data error: {rec}: refusing to write non-finite values\n")
        assert not out.exists() and not rec.exists()

    @pytest.mark.parametrize("assignments", [False, True], ids=["no-record", "record"])
    @pytest.mark.parametrize("method", ["wkmeans", "wkmedoids"])
    def test_weights_overflowing_weighted_squared_distances_are_data_error(
            self, capsys, tmp_path, method, assignments):
        # the features pass the unweighted bound; their weights' total does not
        src, wfile = tmp_path / "in.csv", tmp_path / "w.csv"
        tpio.write_matrix(src, np.random.default_rng(2).normal(size=(12, 3)) * 1e5)
        tpio.write_matrix(wfile, np.full((12, 1), 1e300))
        out, rec = tmp_path / "o.csv", tmp_path / "a.json"
        record = ["--assignments", str(rec)] if assignments else []
        code, stdout, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", method,
            "--weights", str(wfile), "--out", str(out), *record,
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"data error: {wfile}: weights summing to 1.2e+301 overflow "
                              "the weighted squared distances of 12 tokens of dim 3 with "
                              "entries up to ") and err.count("\n") == 1, err
        assert not out.exists() and not rec.exists()

    def test_significance_overflowing_weighted_squared_distances_is_data_error(
            self, capsys, tmp_path):
        # features just inside the unweighted bound; two heads' significance
        # sums to 2N, which doubles it
        src, amap = tmp_path / "edge.csv", tmp_path / "a.tpm"
        feats = np.clip(np.random.default_rng(1).normal(size=(12, 3)), -1, 1)
        tpio.write_matrix(src, feats * np.sqrt(np.finfo(np.float64).max / (4 * 36)) * 0.999)
        tpio.write_attention_maps(amap, np.full((2, 12, 12), 1 / 12))
        out = tmp_path / "o.tpm"
        code, stdout, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", "wkmedoids",
            "--scores-from", str(amap), "--heads", "2", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"data error: {amap}: weights summing to 24 overflow ")
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["wkmeans", "wkmedoids"])
    def test_weights_within_the_weighted_bound_pool(self, capsys, tmp_path, method):
        # sum(w) * M * (2 * max|x|)^2 just below the largest double
        src, wfile, rec = tmp_path / "in.csv", tmp_path / "w.csv", tmp_path / "a.json"
        feats = np.clip(np.random.default_rng(1).normal(size=(12, 3)), -1, 1)
        feats[0, 0], feats[1, 0] = 1.0, -1.0
        tpio.write_matrix(src, feats)
        tpio.write_matrix(wfile, np.full((12, 1), np.finfo(np.float64).max / (4 * 36) * 0.999))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "3", "--method", method,
            "--weights", str(wfile), "--out", str(tmp_path / "o.csv"), "--assignments", str(rec),
        )
        assert (code, err) == (0, "")
        assert np.isfinite(json.loads(rec.read_text())["loss"])

    @pytest.mark.parametrize("flags, message", [
        (["--method", "kmeans", "--weights", "w.tpm", "--scores-from", "m.tpm"],
         "give either --weights or --scores-from, not both"),
        (["--method", "wkmeans", "--scores-from", "m.tpm"], "--scores-from requires --heads"),
        (["--method", "grid", "--scores-from", "m.tpm", "--heads", "2"],
         "the grid method requires --grid H W"),
        (["--method", "wkmeans", "--scores-from", "m.tpm", "--heads", "0"],
         "heads must be >= 1"),
    ], ids=["weights-and-scores", "scores-without-heads", "grid-without-grid", "zero-heads"])
    def test_usage_error_comes_before_any_read(self, capsys, tmp_path, monkeypatch,
                                              flags, message):
        # the input does not exist, so a read before the check would exit 2
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "pool", "--input", "missing.tpm", "--k", "3", *flags,
                                 "--out", "o.tpm")
        assert (code, out, err) == (1, "", f"usage error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_output_files(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.random.default_rng(3).normal(size=(9, 3)))
        outs = []
        for name in ("a.tpm", "b.tpm"):
            dst = tmp_path / name
            code, _, _ = run_cli(
                capsys, "pool", "--input", str(src), "--k", "4", "--method", "random",
                "--seed", "11", "--out", str(dst),
            )
            assert code == 0
            outs.append(dst.read_bytes())
        assert outs[0] == outs[1]


class TestScore:
    def test_scores_written_as_column(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        h, n = 3, 6
        logits = rng.normal(size=(h, n, n))
        maps = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        amap = tmp_path / "a.tpm"
        tpio.write_attention_maps(amap, maps)
        out = tmp_path / "s.tpm"
        code, _, _ = run_cli(
            capsys, "score", "--attention", str(amap), "--heads", str(h), "--out", str(out)
        )
        assert code == 0
        scores = tpio.read_matrix(out)
        assert scores.shape == (n, 1)
        assert abs(scores.sum() - h * n) < 1e-3  # 32-bit storage rounding

    def test_bad_heads_is_data_error(self, capsys, tmp_path):
        amap = tmp_path / "a.tpm"
        tpio.write_matrix(amap, np.zeros((10, 5)))
        code, _, err = run_cli(
            capsys, "score", "--attention", str(amap), "--heads", "3",
            "--out", str(tmp_path / "s.tpm"),
        )
        assert code == 2 and "data error" in err

    def test_maps_covering_no_tokens_is_data_error(self, capsys, tmp_path):
        amap, out = tmp_path / "a.tpm", tmp_path / "s.tpm"
        tpio.write_attention_maps(amap, np.zeros((2, 0, 0)))
        code, stdout, err = run_cli(
            capsys, "score", "--attention", str(amap), "--heads", "2", "--out", str(out))
        assert (code, stdout, err) == (2, "", f"data error: {amap}: attention maps cover "
                                              "no tokens\n")
        assert not out.exists()


class TestForward:
    def _write_desk_config(self, tmp_path, schedule=None, mode=None):
        cfg = {"layers": 4, "dim": 16, "heads": 4, "tokens": 10}
        if schedule is not None:
            cfg["schedule"] = schedule
        if mode is not None:
            cfg["mode"] = mode
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_trace_counts_follow_schedule(self, capsys, tmp_path):
        schedule = [8, 5, 5, 2]
        cfg = self._write_desk_config(tmp_path, schedule)
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(5).normal(size=(10, 16)))
        out = tmp_path / "out.tpm"
        trace = tmp_path / "trace.json"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "3", "--pool-method", "kmedoids",
            "--out", str(out), "--trace", str(trace),
        )
        assert code == 0 and err == ""
        payload = json.loads(trace.read_text())
        n = 10
        for layer in payload["layers"]:
            assert layer["tokens_in"] == n
            n = min(n, layer["k_target"] + 1)
            assert layer["tokens_out"] == n
        assert payload["final_tokens"] == 3
        assert tpio.read_matrix(out).shape == (3, 16)

    def test_trace_csv_by_extension(self, capsys, tmp_path):
        cfg = self._write_desk_config(tmp_path, [8, 5, 5, 2])
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(5).normal(size=(10, 16)))
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "3", "--out", str(tmp_path / "o.tpm"), "--trace", str(trace),
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "layer,tokens_in,tokens_out,k_target,loss,iterations"
        assert len(lines) == 5

    @pytest.mark.parametrize("schedule", [[8, 5, 5, 2], [9, 0, 6, 6], None])
    def test_trace_csv_holds_the_json_trace(self, capsys, tmp_path, schedule):
        import dataclasses

        from tokpool.pipeline import LayerTrace

        cfg = self._write_desk_config(tmp_path, schedule)
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(5).normal(size=(10, 16)))
        traces = {}
        for ext in ("json", "csv"):
            trace = tmp_path / f"trace.{ext}"
            code, out, err = run_cli(
                capsys, "forward", "--config", str(cfg), "--input", str(src),
                "--seed", "3", "--out", str(tmp_path / "o.tpm"), "--trace", str(trace),
            )
            assert (code, out, err) == (0, "", "")
            traces[ext] = trace.read_text()
        fields = [f.name for f in dataclasses.fields(LayerTrace)]
        layers = json.loads(traces["json"])["layers"]
        assert len(layers) == 4 and all(list(layer) == fields for layer in layers)
        rows = [",".join("" if v is None else str(v) for v in layer.values())
                for layer in layers]
        assert traces["csv"] == "\n".join([",".join(fields)] + rows) + "\n"

    def test_no_schedule_keeps_all_tokens(self, capsys, tmp_path):
        cfg = self._write_desk_config(tmp_path)
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(6).normal(size=(10, 16)))
        out = tmp_path / "out.tpm"
        code, _, _ = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        assert tpio.read_matrix(out).shape == (10, 16)

    def test_weights_dir_round_trip(self, capsys, tmp_path):
        # synthesized weights exported per layer reproduce the seeded run
        from tokpool.costmodel import ModelConfig
        from tokpool.transformer import synth_weights

        cfg_path = self._write_desk_config(tmp_path)
        config = ModelConfig(layers=4, dim=16, heads=4, tokens=10)
        blocks = synth_weights(config, 3)
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, blocks)
        src = tmp_path / "in.tpm"
        feats = np.random.default_rng(7).normal(size=(10, 16))
        tpio.write_matrix(src, feats)
        out_dir_run = tmp_path / "o1.tpm"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg_path), "--input", str(src),
            "--weights-dir", str(wdir), "--out", str(out_dir_run),
        )
        assert code == 0, err
        got = tpio.read_matrix(out_dir_run)
        assert got.shape == (10, 16)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("mode, schedule, method", [
        ("standard", [6, 3, 2], "kmedoids"), ("carry", [7, 0, 0], "wkmedoids"),
        ("normalized_alpha", [5, 4, 1], "kmeans"), ("standard", None, "kmedoids"),
    ])
    def test_weights_dir_run_equals_its_float64_widening(self, tmp_path, mode, schedule, method):
        from tokpool.cli import _WeightsDir
        from tokpool.costmodel import ModelConfig
        from tokpool.pipeline import run_forward
        from tokpool.transformer import BlockWeights, TokenSet, synth_weights

        config = ModelConfig(layers=3, dim=16, heads=4, tokens=10, schedule=schedule,
                             mode=mode, alpha=3.0)
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(config, 11))
        held = _WeightsDir(str(wdir), config)
        assert all(getattr(w, n).dtype == np.float32 for w in held for n in _NAMES)
        widened = [BlockWeights(**{n: getattr(w, n).astype(np.float64) for n in _NAMES},
                                alpha=w.alpha) for w in held]
        tokens = TokenSet(np.random.default_rng(12).normal(size=(10, 16)))
        got, got_traces = run_forward(tokens, held, config, pool_method=method, pool_seed=5)
        want, want_traces = run_forward(tokens, widened, config, pool_method=method, pool_seed=5)
        assert got.features.tobytes() == want.features.tobytes()
        assert (got.counts is None) == (want.counts is None)
        if got.counts is not None:
            assert got.counts.tobytes() == want.counts.tobytes()
        assert got_traces == want_traces

    def test_weights_dir_run_holds_weights_as_float32(self, tmp_path):
        # the peak is the float32 weights plus about one layer's float64
        # products; holding every layer as float64 would double the weights
        import tracemalloc

        from tokpool.cli import _WeightsDir
        from tokpool.costmodel import ModelConfig
        from tokpool.pipeline import run_forward
        from tokpool.transformer import TokenSet, synth_weights

        m, layers = 64, 12
        config = ModelConfig(layers=layers, dim=m, heads=4, tokens=16,
                             schedule=[12, 8] * (layers // 2))
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(config, 2))
        tokens = TokenSet(np.random.default_rng(3).normal(size=(16, m)))
        layer_params = 12 * m * m  # q, k, v, o, and two m x 4m MLP matrices
        tracemalloc.start()
        try:
            blocks = _WeightsDir(str(wdir), config)
            run_forward(tokens, blocks, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= layers * layer_params * 4 + 2 * layer_params * 8, peak

    @pytest.mark.parametrize("name, shape, message", [
        ("wq", (16, 8), "wq of layer 0 must be 16x16"),
        ("mlp2", (32, 16), "do not map 16 -> hidden -> 16"),
        ("wo", (16, 15), "layer 0: wo must be 16x16, got (16, 15)"),
        ("mlp1", (15, 64), "layer 0: mlp shapes (15, 64) -> (64, 16) do not map "
                           "16 -> hidden -> 16"),
    ])
    def test_weights_dir_bad_shape_is_data_error(self, capsys, tmp_path, name, shape, message):
        from tokpool.costmodel import ModelConfig
        from tokpool.transformer import synth_weights

        cfg = self._write_desk_config(tmp_path)
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(ModelConfig(layers=4, dim=16, heads=4, tokens=10), 3))
        tpio.write_matrix(wdir / f"layer00_{name}.tpm", np.ones(shape))
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(7).normal(size=(10, 16)))
        code, out, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--weights-dir", str(wdir), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and out == "" and message in err
        assert not (tmp_path / "o.tpm").exists()

    @staticmethod
    def _poison(path, element):
        """Rewrite a TPM file with a NaN at ``element``, keeping its shape."""
        mat = tpio.read_matrix(path)
        mat.reshape(-1)[element] = np.nan
        path.write_bytes(b"TPM1" + struct.pack("<II", *mat.shape) + mat.astype("<f4").tobytes())

    def _count_blocks(self, monkeypatch, before=None):
        calls = []
        real = tokpool.pipeline.block_forward_detailed

        def counted(*args, **kwargs):
            calls.append(1)
            if before is not None:
                before(len(calls) - 1)
            return real(*args, **kwargs)

        monkeypatch.setattr(tokpool.pipeline, "block_forward_detailed", counted)
        return calls

    def _weights_dir_run(self, capsys, tmp_path, layers):
        from tokpool.costmodel import ModelConfig
        from tokpool.transformer import synth_weights

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": layers, "dim": 16, "heads": 4, "tokens": 10,
                                   "schedule": [8] * layers}))
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(ModelConfig(layers=layers, dim=16, heads=4,
                                                          tokens=10), 4))
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(7).normal(size=(10, 16)))

        def run():
            return run_cli(capsys, "forward", "--config", str(cfg), "--input", str(src),
                           "--weights-dir", str(wdir), "--out", str(tmp_path / "o.tpm"))

        return wdir, run

    def test_weights_dir_non_finite_last_file_fails_before_any_block(
            self, capsys, tmp_path, monkeypatch):
        wdir, run = self._weights_dir_run(capsys, tmp_path, 12)
        self._poison(wdir / "layer11_mlp2.tpm", 37)
        calls = self._count_blocks(monkeypatch)
        code, out, err = run()
        assert (code, out) == (2, "")
        assert err == (f"data error: {wdir / 'layer11_mlp2.tpm'}: non-finite value at "
                       "element 37 (byte offset 160)\n")
        assert calls == []
        assert not (tmp_path / "o.tpm").exists()

    @pytest.mark.parametrize("name, shape, message", [
        ("wk", (16, 12), "wk of layer 11 must be 16x16 (heads concatenated column-wise), "
                         "got (16, 12)"),
        ("mlp1", (16, 63), "layer 11: mlp shapes (16, 63) -> (64, 16) do not map "
                           "16 -> hidden -> 16"),
    ])
    def test_weights_dir_bad_shape_in_last_layer_fails_before_any_block(
            self, capsys, tmp_path, monkeypatch, name, shape, message):
        wdir, run = self._weights_dir_run(capsys, tmp_path, 12)
        tpio.write_matrix(wdir / f"layer11_{name}.tpm", np.ones(shape))
        calls = self._count_blocks(monkeypatch)
        code, out, err = run()
        assert (code, out, err) == (2, "", f"data error: {wdir}: {message}\n")
        assert calls == []
        assert not (tmp_path / "o.tpm").exists()

    def test_weights_dir_shape_changed_after_checks_fails_on_reread(
            self, capsys, tmp_path, monkeypatch):
        # the first block gives layer 2's wo a wrong shape; its re-read fails
        # the check pass's shape check, a data error like any other bad file
        wdir, run = self._weights_dir_run(capsys, tmp_path, 4)
        calls = self._count_blocks(
            monkeypatch, lambda block: block == 0 and tpio.write_matrix(
                wdir / "layer02_wo.tpm", np.ones((16, 15))))
        code, out, err = run()
        assert (code, out, err) == (
            2, "", f"data error: {wdir}: layer 2: wo must be 16x16, got (16, 15)\n")
        assert len(calls) == 2
        assert not (tmp_path / "o.tpm").exists()

    def test_weights_dir_file_changed_after_checks_fails_on_reread(
            self, capsys, tmp_path, monkeypatch):
        # the first block rewrites layer 2's wq; its re-read finds the NaN
        wdir, run = self._weights_dir_run(capsys, tmp_path, 4)
        changed = wdir / "layer02_wq.tpm"
        calls = self._count_blocks(
            monkeypatch, lambda block: block == 0 and self._poison(changed, 3))
        code, out, err = run()
        assert (code, out) == (2, "")
        assert err == (f"data error: {changed}: non-finite value at element 3 "
                       "(byte offset 24)\n")
        assert len(calls) == 2
        assert not (tmp_path / "o.tpm").exists()

    @staticmethod
    def _halve_mlp_width(wdir, layer):
        tpio.write_matrix(wdir / f"layer{layer:02d}_mlp1.tpm", np.ones((16, 32)))
        tpio.write_matrix(wdir / f"layer{layer:02d}_mlp2.tpm", np.ones((32, 16)))

    def test_weights_dir_mlp_width_against_config_fails_before_any_block(
            self, capsys, tmp_path, monkeypatch):
        # 16 -> 32 -> 16 makes a block, but the config's mlp_ratio 4 says 64
        wdir, run = self._weights_dir_run(capsys, tmp_path, 2)
        self._halve_mlp_width(wdir, 1)
        calls = self._count_blocks(monkeypatch)
        code, out, err = run()
        assert (code, out, err) == (
            2, "", f"data error: {wdir}: layer 1: mlp1 must be 16x64 (mlp_ratio 4), "
                   "got (16, 32)\n")
        assert calls == []
        assert not (tmp_path / "o.tpm").exists()

    def test_weights_dir_mlp_width_changed_after_checks_fails_on_reread(
            self, capsys, tmp_path, monkeypatch):
        wdir, run = self._weights_dir_run(capsys, tmp_path, 4)
        calls = self._count_blocks(
            monkeypatch, lambda block: block == 0 and self._halve_mlp_width(wdir, 2))
        code, out, err = run()
        assert (code, out, err) == (
            2, "", f"data error: {wdir}: layer 2: mlp1 must be 16x64 (mlp_ratio 4), "
                   "got (16, 32)\n")
        assert len(calls) == 2
        assert not (tmp_path / "o.tpm").exists()

    def test_entries_overflowing_squared_distances_are_data_error(
            self, capsys, tmp_path, monkeypatch):
        cfg = self._write_desk_config(tmp_path, [4, 2, 2, 2])
        src = tmp_path / "in.csv"
        tpio.write_matrix(src, np.random.default_rng(5).normal(size=(10, 16)) * 1e307)
        out, trace = tmp_path / "o.tpm", tmp_path / "t.json"
        calls = self._count_blocks(monkeypatch)
        code, stdout, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src), "--seed", "1",
            "--out", str(out), "--trace", str(trace),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"data error: {src}: entries up to ") and err.count("\n") == 1
        assert "overflow the squared distances of 10 tokens of dim 16" in err
        assert calls == []
        assert not out.exists() and not trace.exists()

    def test_weights_dir_walk_reads_each_file_once_in_order(self, tmp_path, monkeypatch):
        # the check pass reads every file once, layer by layer, in
        # _WEIGHT_NAMES order; one walk re-reads them once in the same order
        from tokpool.cli import _WEIGHT_NAMES, _WeightsDir
        from tokpool.costmodel import ModelConfig
        from tokpool.transformer import synth_weights

        config = ModelConfig(layers=3, dim=16, heads=4, tokens=10)
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(config, 5))
        reads = []
        real = tpio.read_matrix
        monkeypatch.setattr(tpio, "read_matrix", lambda path: reads.append(path) or real(path))
        order = [f"layer{layer:02d}_{name}.tpm" for layer in range(3) for name in _WEIGHT_NAMES]
        blocks = _WeightsDir(str(wdir), config)
        assert [os.path.basename(p) for p in reads] == order and len(blocks) == 3
        walked = [w.wq.shape for w in blocks]
        assert walked == [(4, 16, 4)] * 3
        assert [os.path.basename(p) for p in reads] == order * 2

    def test_weights_dir_walk_frees_each_layer_before_reading_the_next(self, tmp_path,
                                                                       monkeypatch):
        # every array of layer l, as read and as handed to its block, is gone
        # by the first read of layer l+1, so a walk holds one layer at a time
        import weakref

        from tokpool import pipeline
        from tokpool.cli import _WeightsDir
        from tokpool.costmodel import ModelConfig
        from tokpool.pipeline import run_forward
        from tokpool.transformer import TokenSet, synth_weights

        config = ModelConfig(layers=3, dim=16, heads=4, tokens=10, schedule=[7, 5, 3])
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(config, 5))
        blocks = _WeightsDir(str(wdir), config)
        refs = [[] for _ in range(config.layers)]
        alive = []
        real_read, real_block = tpio.read_matrix, pipeline.block_forward_detailed

        def reading(path):
            layer = int(os.path.basename(path)[5:7])
            if layer and not refs[layer]:
                alive.append([r() is not None for r in refs[layer - 1]])
            mat = real_read(path)
            refs[layer].append(weakref.ref(mat))
            return mat

        def running(tokens, w, **kw):  # block l runs after l first reads of a next layer
            refs[len(alive)].extend(weakref.ref(getattr(w, n)) for n in _NAMES)
            return real_block(tokens, w, **kw)

        monkeypatch.setattr(tpio, "read_matrix", reading)
        monkeypatch.setattr(pipeline, "block_forward_detailed", running)
        run_forward(TokenSet(np.random.default_rng(6).normal(size=(10, 16))), blocks, config)
        assert alive == [[False] * 12] * 2

    @pytest.mark.parametrize("shape", [(9, 16), (10, 8)])
    @pytest.mark.parametrize("source", [["--seed", "1"], ["--weights-dir", "no-such-dir"]])
    def test_input_disagreeing_with_config_is_data_error(self, capsys, tmp_path, monkeypatch,
                                                         shape, source):
        # a file-against-file mismatch: exit 2 naming the input, before any weights
        # are read or drawn; the seeded source draws through Rng.normal
        synthesized = []
        monkeypatch.setattr(Rng, "normal", lambda *a: synthesized.append(a))
        cfg = self._write_desk_config(tmp_path, schedule=[8, 5, 5, 2])
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.ones(shape))
        code, out, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src), *source,
            "--out", str(tmp_path / "o.tpm"),
        )
        assert (code, out) == (2, "")
        assert err == (f"data error: {src}: input has {shape[0]} tokens of dim {shape[1]}, "
                       "config says 10 of dim 16\n")
        assert synthesized == []
        assert not (tmp_path / "o.tpm").exists()

    @pytest.mark.parametrize("layers", [12, 24])
    def test_weights_dir_run_peak_is_independent_of_depth(self, tmp_path, layers):
        # a load-and-run holds one layer's float32 weights and about one
        # layer's float64 products, whatever the depth
        import tracemalloc

        from tokpool.cli import _WeightsDir
        from tokpool.costmodel import ModelConfig
        from tokpool.pipeline import run_forward
        from tokpool.transformer import TokenSet, synth_weights

        m = 64
        config = ModelConfig(layers=layers, dim=m, heads=4, tokens=16,
                             schedule=[12, 8] * (layers // 2))
        wdir = tmp_path / "weights"
        write_weights_dir(wdir, synth_weights(config, 2))
        tokens = TokenSet(np.random.default_rng(3).normal(size=(16, m)))
        layer_params = 12 * m * m
        tracemalloc.start()
        try:
            blocks = _WeightsDir(str(wdir), config)
            run_forward(tokens, blocks, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layer_params * 4 + layer_params * 8, peak

    def test_normalized_alpha_zero_row_runs(self, capsys, tmp_path):
        # layer_norm maps a constant row to 0, so its query and key are 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": 2, "dim": 16, "heads": 4, "tokens": 11,
                                   "alpha": 4, "mode": "normalized_alpha"}))
        feats = np.random.default_rng(10).normal(size=(11, 16))
        feats[4] = 0.0
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, feats)
        out = tmp_path / "o.tpm"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "1", "--out", str(out),
        )
        assert code == 0 and err == ""
        assert np.isfinite(tpio.read_matrix(out)).all()

    @pytest.mark.parametrize("method", ["kmeans", "wkmeans", "kmedoids", "wkmedoids",
                                        "random", "importance"])
    def test_underflowed_significance_pools(self, capsys, tmp_path, method):
        # at alpha 1e4 some keys get no attention from any query: significance 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": 1, "dim": 16, "heads": 2, "tokens": 60,
                                   "schedule": [10], "mode": "normalized_alpha",
                                   "alpha": 10000}))
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(0).normal(size=(60, 16)))
        out = tmp_path / "o.tpm"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "0", "--pool-method", method, "--out", str(out),
        )
        assert code == 0 and err == ""
        assert tpio.read_matrix(out).shape == (11, 16)

    def test_carry_mode_runs(self, capsys, tmp_path):
        cfg = self._write_desk_config(tmp_path, schedule=[8, 5, 5, 2], mode="carry")
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(8).normal(size=(10, 16)))
        out = tmp_path / "out.tpm"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "2", "--pool-method", "wkmeans", "--out", str(out),
        )
        assert code == 0, err
        assert tpio.read_matrix(out).shape == (3, 16)

    def test_empty_token_file_is_data_error(self, capsys, tmp_path):
        cfg = self._write_desk_config(tmp_path)
        src = tmp_path / "empty.tpm"
        tpio.write_matrix(src, np.zeros((0, 16)))
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "1", "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 2 and "at least one row" in err

    @pytest.mark.parametrize("alpha", ["Infinity", "1" + "0" * 400])
    def test_alpha_beyond_double_range_is_data_error(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"layers": 4, "dim": 16, "heads": 4, "tokens": 10, "alpha": {alpha},'
                       ' "mode": "normalized_alpha"}')
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.ones((10, 16)))
        out = tmp_path / "o.tpm"
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "1", "--out", str(out),
        )
        assert code == 2 and "alpha must be finite and positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--no-protect-first"], ["--pool-iters", "0"]])
    def test_rejected_before_any_block(self, capsys, tmp_path, monkeypatch, flag):
        blocks_run = []
        real = tokpool.pipeline.block_forward_detailed
        monkeypatch.setattr(tokpool.pipeline, "block_forward_detailed",
                            lambda *a, **kw: blocks_run.append(1) or real(*a, **kw))
        cfg = self._write_desk_config(tmp_path, schedule=[8, 5, 0, 0])
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(9).normal(size=(10, 16)))
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "1", *flag, "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "usage error" in err
        assert blocks_run == []

    def test_unknown_out_extension_fails_before_any_block(self, capsys, tmp_path, monkeypatch):
        cfg = self._write_desk_config(tmp_path, [8, 5, 5, 2])
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.random.default_rng(9).normal(size=(10, 16)))
        out, trace = tmp_path / "o.txt", tmp_path / "t.json"
        calls = self._count_blocks(monkeypatch)
        code, stdout, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src), "--seed", "1",
            "--out", str(out), "--trace", str(trace),
        )
        assert (code, stdout, err) == (
            1, "", f"usage error: {out}: unknown matrix extension (use .tpm or .csv)\n")
        assert calls == []
        assert not out.exists() and not trace.exists()

    def test_seed_and_weights_dir_conflict(self, capsys, tmp_path):
        cfg = self._write_desk_config(tmp_path)
        src = tmp_path / "in.tpm"
        tpio.write_matrix(src, np.ones((10, 16)))
        code, _, err = run_cli(
            capsys, "forward", "--config", str(cfg), "--input", str(src),
            "--seed", "1", "--weights-dir", "wd", "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "usage error" in err


class TestVerifyFilter:
    def test_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-filter", "--n", "16", "--m", "8",
            "--alpha", "3", "--seed", "7",
        )
        assert code == 0
        assert "pass=true" in out
        dev = float(out.split("max_abs_dev=")[1].split()[0])
        assert dev < 1e-9

    @pytest.mark.parametrize("tol, shown", [(None, "1e-09"), ("0.5", "0.5")])
    def test_one_key_stdout_is_pinned(self, capsys, tol, shown):
        # with one key both routes return its value exactly, on any BLAS
        argv = ["verify-filter", "--n", "1", "--m", "4", "--alpha", "3", "--seed", "7"]
        code, out, _ = run_cli(capsys, *argv, *(["--tol", tol] if tol else []))
        assert code == 0
        assert out == f"max_abs_dev=0.0 tol={shown} pass=true\n"

    def test_counterexample_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-filter", "--n", "16", "--m", "8",
            "--alpha", "3", "--seed", "7", "--no-normalize",
        )
        assert code == 3
        assert "pass=false" in out

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "inf"), ("--tol", "inf"), ("--alpha", "nan"), ("--tol", "nan"),
    ])
    def test_non_finite_alpha_or_tol_is_usage_error(self, capsys, flag, value):
        argv = {"--n": "16", "--m": "8", "--alpha": "3", "--seed": "7", flag: value}
        code, out, err = run_cli(capsys, "verify-filter", *[t for kv in argv.items() for t in kv])
        assert code == 1 and out == ""
        assert f"{flag[2:]} must be finite and positive" in err

    def test_all_logits_overflowing_is_no_counterexample(self):
        # at alpha 1e308 every filter-route logit overflows to -inf unless the
        # distances are shifted first; unshifted, the softmax returned NaN
        src = str(Path(tokpool.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "tokpool", "verify-filter", "--n", "1", "--m", "2",
             "--alpha", "1e308", "--seed", "6"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert "pass=true" in result.stdout
        assert result.stderr == ""

    def test_oversized_probe_is_usage_error(self, capsys):
        # n=1e6 asks for 7.28 TiB per n x n array; it must fail before allocating
        code, out, err = run_cli(
            capsys, "verify-filter", "--n", "1000000", "--m", "1",
            "--alpha", "3", "--seed", "7",
        )
        assert code == 1 and out == ""
        assert err.startswith("usage error:")


FILE_ERROR_ARGV = [
    # (argv, the file the one stderr line must name); {d} is a scratch directory
    (["pool", "--input", "{d}/in.tpm", "--k", "2", "--method", "kmeans",
      "--out", "{d}/missing/o.tpm"], "{d}/missing/o.tpm"),
    (["pool", "--input", "{d}/in.tpm", "--k", "2", "--method", "kmeans",
      "--out", "{d}/o.tpm", "--assignments", "{d}/missing/a.json"], "{d}/missing/a.json"),
    (["forward", "--config", "{d}/cfg.json", "--input", "{d}/in.tpm", "--seed", "0",
      "--out", "{d}/o.tpm", "--trace", "{d}/missing/t.json"], "{d}/missing/t.json"),
    (["cost", "--config", "{d}/utf16.json"], "{d}/utf16.json"),
    (["pool", "--input", "{d}/latin1.csv", "--k", "1", "--method", "kmeans",
      "--out", "{d}/o.tpm"], "{d}/latin1.csv"),
]


class TestArgHandling:
    @pytest.mark.parametrize("argv, named", FILE_ERROR_ARGV,
                             ids=["pool-out", "pool-assignments", "forward-trace",
                                  "cost-config-not-utf8", "pool-csv-not-utf8"])
    def test_file_error_is_one_line_data_error(self, capsys, tmp_path, argv, named):
        tpio.write_matrix(tmp_path / "in.tpm", np.random.default_rng(0).normal(size=(10, 16)))
        (tmp_path / "cfg.json").write_text(
            json.dumps({"layers": 1, "dim": 16, "heads": 4, "tokens": 10}))
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        (tmp_path / "latin1.csv").write_bytes(b"\xff1,2\n3,4\n")
        d = str(tmp_path)
        code, _, err = run_cli(capsys, *(a.format(d=d) for a in argv))
        assert code == 2
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert named.format(d=d) in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "{d}/in.tpm", "--k", "4", "--method", "kmeans",
         "--out", "{d}/o.tpm", "--assignments", "{d}/nodir/a.json"],
        ["forward", "--config", "{d}/cfg.json", "--input", "{d}/in.tpm", "--seed", "0",
         "--out", "{d}/o.tpm", "--trace", "{d}/nodir/t.json"],
        ["forward", "--config", "{d}/cfg.json", "--input", "{d}/in.tpm", "--seed", "0",
         "--out", "{d}/o.tpm", "--trace", "{d}/nodir/t.csv"],
    ], ids=["pool-assignments", "forward-trace", "forward-trace-csv"])
    def test_failed_output_write_leaves_no_output(self, capsys, tmp_path, argv):
        # --out is written first; a later write that fails takes it back
        tpio.write_matrix(tmp_path / "in.tpm", np.random.default_rng(0).normal(size=(10, 16)))
        (tmp_path / "cfg.json").write_text(
            json.dumps({"layers": 2, "dim": 16, "heads": 4, "tokens": 10, "schedule": [6, 3]}))
        d = str(tmp_path)
        code, out, err = run_cli(capsys, *(a.format(d=d) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o.tpm").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.tpm"]

    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "missing.tpm", "--k", "3", "--method", "kmeans", "--out", "o.txt"],
        ["score", "--attention", "missing.tpm", "--heads", "2", "--out", "o.txt"],
        ["forward", "--config", "missing.json", "--input", "missing.tpm", "--seed", "1",
         "--out", "o.txt"],
    ], ids=["pool", "score", "forward"])
    def test_unknown_out_extension_is_usage_error_before_any_read(self, capsys, tmp_path,
                                                                  monkeypatch, argv):
        # the inputs do not exist, so a read before the check would exit 2
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, *argv) == (
            1, "", "usage error: o.txt: unknown matrix extension (use .tpm or .csv)\n")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _inputs(tmp_path):
        tpio.write_matrix(tmp_path / "in.tpm", np.random.default_rng(0).normal(size=(10, 16)))
        (tmp_path / "cfg.json").write_text(
            json.dumps({"layers": 2, "dim": 16, "heads": 4, "tokens": 10, "schedule": [6, 3]}))
        tpio.write_attention_maps(tmp_path / "a.tpm", np.full((2, 10, 10), 0.1))
        return sorted(p.name for p in tmp_path.iterdir())

    @pytest.mark.parametrize("argv, first, second", [
        (["pool", "--input", "in.tpm", "--k", "4", "--method", "kmeans",
          "--out", "o.tpm", "--assignments", "o.tpm"], "--out", "--assignments"),
        (["pool", "--input", "in.tpm", "--k", "4", "--method", "kmeans",
          "--out", "./o.tpm", "--assignments", "o.tpm"], "--out", "--assignments"),
        (["forward", "--config", "cfg.json", "--input", "in.tpm", "--seed", "0",
          "--out", "o.tpm", "--trace", "o.tpm"], "--out", "--trace"),
        (["forward", "--config", "cfg.json", "--input", "in.tpm", "--seed", "0",
          "--out", "o.tpm", "--trace", "./o.tpm"], "--out", "--trace"),
    ], ids=["pool", "pool-dot-slash", "forward", "forward-dot-slash"])
    def test_two_outputs_naming_one_file_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                        argv, first, second):
        before = self._inputs(tmp_path)
        monkeypatch.chdir(tmp_path)
        reads = []
        monkeypatch.setattr(tpio, "read_matrix", reads.append)
        monkeypatch.setattr(tpio, "read_config", reads.append)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert first in err and second in err
        assert reads == []
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @staticmethod
    def _failing_writer(path, m):
        """Create the file, write 11 bytes of it, then run out of space."""
        with open(path, "wb") as fh:
            fh.write(b"TPM1" + bytes(7))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    @pytest.mark.parametrize("argv", [
        ["pool", "--input", "{d}/in.tpm", "--k", "4", "--method", "kmeans",
         "--out", "{d}/o.tpm", "--assignments", "{d}/a.json"],
        ["forward", "--config", "{d}/cfg.json", "--input", "{d}/in.tpm", "--seed", "0",
         "--out", "{d}/o.tpm", "--trace", "{d}/t.json"],
        ["score", "--attention", "{d}/a.tpm", "--heads", "2", "--out", "{d}/o.tpm"],
    ], ids=["pool", "forward", "score"])
    def test_failed_write_removes_the_partial_file_it_created(self, capsys, tmp_path,
                                                              monkeypatch, argv):
        before = self._inputs(tmp_path)
        monkeypatch.setattr(tpio, "write_matrix", self._failing_writer)
        code, out, err = run_cli(capsys, *(a.format(d=tmp_path) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        assert str(tmp_path / "o.tpm") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("failing", ["out", "trace"])
    def test_failed_write_keeps_a_path_that_existed(self, capsys, tmp_path, monkeypatch,
                                                    failing):
        # a file the user had before the run is never removed, whichever write fails
        self._inputs(tmp_path)
        kept = tmp_path / "kept.tpm"
        kept.write_bytes(b"the user's")
        trace = str(tmp_path / "nodir" / "t.json")
        if failing == "out":
            monkeypatch.setattr(tpio, "write_matrix", self._failing_writer)
            trace = str(tmp_path / "t.json")
        code, _, err = run_cli(
            capsys, "forward", "--config", str(tmp_path / "cfg.json"),
            "--input", str(tmp_path / "in.tpm"), "--seed", "0",
            "--out", str(kept), "--trace", trace,
        )
        assert code == 2 and err.startswith("data error: ")
        assert kept.exists()
        assert not (tmp_path / "t.json").exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--bogus")
        assert code == 1 and "usage error" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_module_entrypoint_subprocess(self, tmp_path):
        # the child imports the same tokpool as this process, installed or not
        src = str(Path(tokpool.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "tokpool", "cost", "--config", DEIT_S_CONFIG,
             "--format", "csv"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert result.returncode == 0
        assert result.stdout.startswith("layer,tokens,")

    def test_benchmark_tracer_finds_every_name_it_patches(self):
        # the tracer patches names by attribute; a renamed one raises AttributeError
        root = Path(__file__).resolve().parents[1]
        code = (f"import sys; sys.path[:0] = [{str(root / 'perfbench')!r}, {str(root / 'src')!r}]\n"
                "import tracer; tracer.install(tracer.Tracer('t'))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


class TestHeapPolicy:
    """On glibc, ``main`` keeps freed heap in the process; nothing else sets it."""

    @staticmethod
    def _record_libc(monkeypatch):
        calls = []

        class FakeLibc:
            def __init__(self, name):
                calls.append(("CDLL", name))

            def mallopt(self, param, value):
                calls.append(("mallopt", param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
        return calls

    @pytest.mark.parametrize("argv, want", [
        (["cost", "--config", DEIT_S_CONFIG, "--format", "csv"], 0),
        (["frobnicate"], 1),  # set before argv is parsed
    ])
    def test_glibc_main_sets_mmap_and_trim_thresholds(self, capsys, monkeypatch, argv, want):
        calls = self._record_libc(monkeypatch)
        asked = []
        monkeypatch.setattr(os, "confstr", lambda name: asked.append(name) or "glibc 2.36")
        code, _, _ = run_cli(capsys, *argv)
        assert code == want
        assert asked == ["CS_GNU_LIBC_VERSION"]
        assert calls == [("CDLL", None), ("mallopt", -3, 32 << 20), ("mallopt", -1, 32 << 20)]

    @pytest.mark.parametrize("outcome", [
        None, ValueError("unrecognized configuration name"),
        OSError(errno.EINVAL, "Invalid argument"), "missing",
    ], ids=["returns-none", "value-error", "os-error", "missing"])
    def test_other_c_library_loads_nothing(self, capsys, monkeypatch, outcome):
        calls = self._record_libc(monkeypatch)
        if outcome == "missing":
            monkeypatch.delattr(os, "confstr")
        else:
            def confstr(name):
                if outcome is not None:
                    raise outcome
            monkeypatch.setattr(os, "confstr", confstr)
        code, _, err = run_cli(capsys, "cost", "--config", DEIT_S_CONFIG, "--format", "csv")
        assert (code, err) == (0, "")
        assert calls == []

    def test_import_makes_no_call(self):
        # numpy imports ctypes itself; the fake goes in after it, before tokpool
        code = ("import ctypes, numpy\n"
                "calls = []\n"
                "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
                "import tokpool, tokpool.cli, tokpool.__main__\n"
                "assert calls == [], calls\n")
        src = str(Path(tokpool.__file__).parents[1])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src))
        assert result.returncode == 0, result.stderr

    def test_forward_bytes_equal_a_library_run_without_the_policy(self, tmp_path):
        # the CLI run sets the policy, the library run never does; a 197x96
        # token set and 96x384 MLP weights exceed glibc's default 128 KiB mmap
        # threshold, so the two place their largest arrays differently
        from tokpool.costmodel import ModelConfig
        from tokpool.transformer import synth_weights

        cfg = {"layers": 3, "dim": 96, "heads": 4, "tokens": 197, "schedule": [60, 24, 8]}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        write_weights_dir(tmp_path / "weights", synth_weights(ModelConfig(**cfg), 5))
        tpio.write_matrix(tmp_path / "in.tpm", np.random.default_rng(6).normal(size=(197, 96)))
        library = (
            "import sys\n"
            "import numpy as np\n"
            "from tokpool import io, pipeline\n"
            "from tokpool.transformer import BlockWeights, TokenSet\n"
            "config = io.read_config('cfg.json')\n"
            "def part(layer, name):\n"
            "    mat = io.read_matrix(f'weights/layer{layer:02d}_{name}.tpm')\n"
            "    return np.stack(np.split(mat, config.heads, axis=1)) if name in ('wq', 'wk', 'wv') else mat\n"
            "blocks = [BlockWeights(**{n: part(layer, n) for n in ('wq', 'wk', 'wv', 'wo', 'mlp1', 'mlp2')})\n"
            "          for layer in range(config.layers)]\n"
            "for method in sys.argv[1:]:\n"
            "    final, _ = pipeline.run_forward(TokenSet(io.read_matrix('in.tpm')), blocks, config,\n"
            "                                    pool_method=method)\n"
            "    io.write_matrix(f'lib-{method}.tpm', final.features)\n"
        )
        methods = ("kmedoids", "wkmedoids")
        src = str(Path(tokpool.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        cmds = [[sys.executable, "-c", library, *methods]] + [
            [sys.executable, "-m", "tokpool", "forward", "--config", "cfg.json",
             "--input", "in.tpm", "--weights-dir", "weights", "--pool-method", method,
             "--out", f"cli-{method}.tpm"] for method in methods]
        procs = [subprocess.Popen(cmd, cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True) for cmd in cmds]
        for proc in procs:
            _, err = proc.communicate()
            assert proc.returncode == 0, err
        for method in methods:
            got = (tmp_path / f"cli-{method}.tpm").read_bytes()
            assert got == (tmp_path / f"lib-{method}.tpm").read_bytes()
            assert tpio.read_matrix(tmp_path / f"cli-{method}.tpm").shape == (9, 96)
