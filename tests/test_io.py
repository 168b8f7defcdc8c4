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

    def test_tpm_reads_as_writable_float32(self, tmp_path):
        # the file's own type: weights stay at their file size until a matmul
        m = np.random.default_rng(3).normal(size=(3, 4))
        path = tmp_path / "m.tpm"
        tpio.write_matrix(path, m)
        back = tpio.read_matrix(path)
        assert back.dtype == np.float32 and back.shape == (3, 4)
        assert back.flags.writeable
        np.testing.assert_array_equal(back, m.astype(np.float32))
        back[0, 0] = 7.0  # the array owns its buffer, not a read-only bytes object

    def test_csv_reads_as_float64(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.1,2\n3,4\n")
        back = tpio.read_matrix(path)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, [[0.1, 2.0], [3.0, 4.0]])

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

    @pytest.mark.parametrize("bad, first", [
        ({5: np.nan}, 5), ({3: np.inf}, 3), ({6: -np.inf}, 6),
        ({0: np.nan, 7: np.inf}, 0), ({7: -np.inf}, 7), ({6: np.nan, 2: -np.inf, 4: np.inf}, 2),
    ])
    def test_first_non_finite_element_named(self, tmp_path, bad, first):
        values = np.arange(8, dtype=np.float32)
        for i, v in bad.items():
            values[i] = v
        path = tmp_path / "bad.tpm"
        path.write_bytes(b"TPM1" + struct.pack("<II", 2, 4) + values.astype("<f4").tobytes())
        want = f"{path}: non-finite value at element {first} (byte offset {12 + 4 * first})"
        with pytest.raises(DataError) as err:
            tpio.read_matrix(path)
        assert str(err.value) == want

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

    @pytest.mark.parametrize("name, content, error, message", [
        ("short.tpm", b"TPM1\x01\x00", DataError, "{path}: truncated header (6 bytes, need 12)"),
        ("empty.tpm", b"", DataError, "{path}: truncated header (0 bytes, need 12)"),
        ("m.npy", b"1.0\n", UsageError, "{path}: unknown matrix extension (use .tpm or .csv)"),
        ("inf.csv", b"1.0,2.0\n3.0,inf\n", DataError, "{path}:2: non-finite cell 'inf' in column 2"),
        ("nan.csv", b"nan,1.0\n", DataError, "{path}:1: non-finite cell 'nan' in column 1"),
        ("empty.csv", b"", DataError, "{path}: empty matrix file"),
        ("blank.csv", b"\n  \n", DataError, "{path}: empty matrix file"),
    ])
    def test_read_error_message(self, tmp_path, name, content, error, message):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(error) as err:
            tpio.read_matrix(path)
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize("matrix, shape", [
        (np.zeros(3), "(3,)"), (np.zeros((2, 2, 2)), "(2, 2, 2)"), (1.0, "()"),
    ])
    def test_write_rejects_non_matrix(self, tmp_path, matrix, shape):
        path = tmp_path / "m.tpm"
        with pytest.raises(UsageError) as err:
            tpio.write_matrix(path, matrix)
        assert str(err.value) == f"can only write 2-D matrices, got shape {shape}"
        assert not path.exists()


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

    def test_maps_covering_no_tokens(self, tmp_path):
        path = tmp_path / "a.tpm"
        tpio.write_attention_maps(path, np.zeros((2, 0, 0)))
        with pytest.raises(DataError) as err:
            tpio.read_attention_maps(path, heads=2)
        assert str(err.value) == f"{path}: attention maps cover no tokens"

    @pytest.mark.parametrize("maps, shape", [
        (np.zeros((2, 3, 4)), "(2, 3, 4)"), (np.eye(3), "(3, 3)"),
    ])
    def test_write_rejects_non_maps(self, tmp_path, maps, shape):
        path = tmp_path / "a.tpm"
        with pytest.raises(UsageError) as err:
            tpio.write_attention_maps(path, maps)
        assert str(err.value) == f"attention maps must be (H, N, N), got {shape}"
        assert not path.exists()


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

    @pytest.mark.parametrize("field, message", [
        ({"layers": True}, "key 'layers' must be an integer"),
        ({"dim": 8.0}, "key 'dim' must be an integer"),
        ({"mlp_ratio": "4"}, "key 'mlp_ratio' must be an integer"),
        ({"schedule": [5, True]}, "key 'schedule' must be an array of integers"),
        ({"schedule": 5}, "key 'schedule' must be an array of integers"),
        ({"alpha": "2.5"}, "key 'alpha' must be a number"),
        ({"alpha": True}, "key 'alpha' must be a number"),
        ({"mode": 1}, "key 'mode' must be a string"),
    ])
    def test_key_of_wrong_type(self, tmp_path, field, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"layers": 2, "dim": 8, "heads": 2, "tokens": 5, **field}))
        with pytest.raises(DataError) as err:
            tpio.read_config(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("", "invalid JSON (Expecting value: line 1 column 1 (char 0))"),
        ("[2, 8, 2, 5]", "config must be a JSON object"),
        ('"layers"', "config must be a JSON object"),
    ])
    def test_not_a_config_object(self, tmp_path, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(DataError) as err:
            tpio.read_config(path)
        assert str(err.value) == f"{path}: {message}"


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
