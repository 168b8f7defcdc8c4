import json
import os
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

    @pytest.mark.parametrize("method, positive, message", [
        ("wkmeans", 1, "weights sum to zero"),
        ("wkmedoids", 1, "weights sum to zero"),
        ("importance", 1, "probs sum to zero"),
        ("importance", 2, "probability mass exhausted before k draws"),
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

    def test_scores_from_without_heads_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "f.tpm"
        tpio.write_matrix(src, np.ones((4, 2)))
        code, _, err = run_cli(
            capsys, "pool", "--input", str(src), "--k", "2", "--method", "wkmeans",
            "--scores-from", str(src), "--out", str(tmp_path / "o.tpm"),
        )
        assert code == 1 and "--scores-from requires --heads" in err

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

    @pytest.mark.parametrize("name, shape, message", [
        ("wq", (16, 8), "wq of layer 0 must be 16x16"),
        ("mlp2", (32, 16), "do not map 16 -> hidden -> 16"),
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


class TestArgHandling:
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
