import json
import struct

import numpy as np
import pytest

from tokpool import io as tpio
from tokpool.errors import DataError, UsageError

from conftest import FIXTURES


class TestMatrixRoundTrip:
    def test_tpm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 7))
        path = tmp_path / "m.tpm"
        tpio.write_matrix(path, m)
        back = tpio.read_matrix(path)
        np.testing.assert_array_equal(back, m.astype(np.float32).astype(np.float64))

    def test_tpm_write_is_byte_stable(self, tmp_path):
        m = np.random.default_rng(1).normal(size=(4, 4))
        a, b = tmp_path / "a.tpm", tmp_path / "b.tpm"
        tpio.write_matrix(a, m)
        tpio.write_matrix(b, m)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        m = np.random.default_rng(2).normal(size=(3, 2))
        path = tmp_path / "m.csv"
        tpio.write_matrix(path, m)
        np.testing.assert_array_equal(tpio.read_matrix(path), m)

    def test_golden_byte_layout(self, tmp_path):
        path = tmp_path / "g.tpm"
        tpio.write_matrix(path, [[1.0, 2.0], [3.0, 4.0]])
        raw = path.read_bytes()
        assert len(raw) == 28
        assert raw[:4] == b"TPM1"
        assert raw[4:8] == b"\x02\x00\x00\x00"
        assert raw[8:12] == b"\x02\x00\x00\x00"
        assert raw[12:] == struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)


class TestMatrixErrors:
    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "bad.tpm"
        path.write_bytes(b"XXXX" + b"\x01\x00\x00\x00" * 2 + b"\x00" * 4)
        with pytest.raises(DataError, match="offset 0"):
            tpio.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.tpm"
        path.write_bytes(b"TPM1" + struct.pack("<II", 2, 2) + b"\x00" * 8)
        with pytest.raises(DataError, match="expected exactly 28"):
            tpio.read_matrix(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.tpm"
        path.write_bytes(b"TPM1" + struct.pack("<II", 1, 1) + b"\x00" * 8)
        with pytest.raises(DataError):
            tpio.read_matrix(path)

    def test_nan_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.tpm"
        path.write_bytes(b"TPM1" + struct.pack("<II", 1, 2) + struct.pack("<2f", 1.0, np.nan))
        with pytest.raises(DataError, match="element 1"):
            tpio.read_matrix(path)

    def test_write_rejects_nan(self, tmp_path):
        with pytest.raises(DataError):
            tpio.write_matrix(tmp_path / "x.tpm", [[np.nan]])

    def test_write_rejects_f32_overflow(self, tmp_path):
        with pytest.raises(DataError):
            tpio.write_matrix(tmp_path / "x.tpm", [[1e300]])

    def test_csv_bad_cell_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(DataError, match="2.*column 2"):
            tpio.read_matrix(path)

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataError):
            tpio.read_matrix(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            tpio.read_matrix(tmp_path / "nope.tpm")

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(UsageError):
            tpio.write_matrix(tmp_path / "m.npy", [[1.0]])


class TestAttentionMaps:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(2, 5, 5))
        maps = np.exp(logits) / np.exp(logits).sum(axis=2, keepdims=True)
        path = tmp_path / "a.tpm"
        tpio.write_attention_maps(path, maps)
        back = tpio.read_attention_maps(path, heads=2)
        np.testing.assert_allclose(back, maps, rtol=0, atol=1e-7)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "a.tpm"
        tpio.write_matrix(path, np.zeros((10, 5)))
        with pytest.raises(DataError):
            tpio.read_attention_maps(path, heads=3)


class TestConfig:
    def test_deit_s_fixture(self):
        cfg = tpio.read_config(FIXTURES / "configs" / "deit-s.json")
        assert (cfg.layers, cfg.dim, cfg.heads, cfg.tokens) == (12, 384, 6, 197)
        assert cfg.mlp_ratio == 4 and cfg.schedule is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"layers": 2, "dim": 8, "heads": 2, "tokens": 5, "depth": 2}')
        with pytest.raises(DataError, match="depth"):
            tpio.read_config(path)

    def test_missing_key_named(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"layers": 2, "dim": 8, "heads": 2}')
        with pytest.raises(DataError, match="tokens"):
            tpio.read_config(path)

    def test_schedule_length_mismatch(self, tmp_path):
        path = tmp_path / "c.json"
        cfg = {"layers": 12, "dim": 8, "heads": 2, "tokens": 5, "schedule": [1] * 11}
        path.write_text(json.dumps(cfg))
        with pytest.raises(DataError, match="schedule"):
            tpio.read_config(path)

    def test_indivisible_heads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"layers": 1, "dim": 7, "heads": 2, "tokens": 3}')
        with pytest.raises(DataError, match="divisible"):
            tpio.read_config(path)

    def test_mode_and_alpha(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            '{"layers": 1, "dim": 8, "heads": 2, "tokens": 3, '
            '"alpha": 2.5, "mode": "normalized_alpha"}'
        )
        cfg = tpio.read_config(path)
        assert cfg.alpha == 2.5 and cfg.mode == "normalized_alpha"


class TestSchedule:
    def test_sparsity7_fixture_parses(self):
        sched = tpio.read_schedule(FIXTURES / "schedules" / "deit-s-sparsity7.json")
        assert sched == [162, 129, 66, 33, 4, 1, 1, 0, 0, 0, 0, 0]
        assert sched[-1] == 0  # only the classification token remains

    def test_rejects_non_integers(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, 2, 3.5]")
        with pytest.raises(DataError):
            tpio.read_schedule(path)

    def test_rejects_negative(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[1, -2]")
        with pytest.raises(DataError):
            tpio.read_schedule(path)

    def test_rejects_booleans(self, tmp_path):
        # JSON true is a Python bool, itself an int subclass; it is not K=1
        path = tmp_path / "s.json"
        path.write_text("[true, 196]")
        with pytest.raises(DataError, match="array of integers"):
            tpio.read_schedule(path)
