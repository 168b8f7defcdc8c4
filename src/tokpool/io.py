"""Deterministic file formats.

TPM1 matrix files: 4 ASCII magic bytes ``TPM1``, then rows and cols as
unsigned 32-bit little-endian integers, then rows*cols IEEE-754 32-bit
little-endian floats in row-major order. File length is exactly
``12 + 4*rows*cols`` bytes. Values are widened to float64 in memory.

CSV matrix files (``.csv``): comma-separated, no header, one row per line.

Config files: a JSON object with keys ``layers``, ``dim``, ``heads``,
``tokens``, and optional ``mlp_ratio`` (default 4), ``schedule`` (array of
``layers`` integers), ``alpha``, ``mode``. Unknown keys are rejected.
Schedule-only files are a bare JSON array.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .costmodel import ModelConfig
from .errors import DataError, UsageError

MAGIC = b"TPM1"
_HEADER = struct.Struct("<4sII")

_CONFIG_KEYS = {"layers", "dim", "heads", "tokens", "mlp_ratio", "schedule", "alpha", "mode"}
_REQUIRED_KEYS = {"layers", "dim", "heads", "tokens"}


def write_matrix(path, m) -> None:
    """Write a matrix as TPM1 (``.tpm``) or CSV (``.csv``), by extension."""
    path = Path(path)
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"can only write 2-D matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: refusing to write non-finite values")
    if path.suffix == ".tpm":
        with np.errstate(over="ignore"):  # overflow is detected and reported below
            payload = arr.astype("<f4")
        if not np.isfinite(payload).all():
            raise DataError(f"{path}: values overflow 32-bit float storage")
        if arr.shape[0] >= 1 << 32 or arr.shape[1] >= 1 << 32:
            raise DataError(f"{path}: dimensions exceed the 32-bit header")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
            fh.write(payload.tobytes(order="C"))
    elif path.suffix == ".csv":
        with open(path, "w", encoding="utf-8") as fh:
            for row in arr:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
    else:
        raise UsageError(f"{path}: unknown matrix extension (use .tpm or .csv)")


def read_matrix(path) -> np.ndarray:
    """Read a TPM1 or CSV matrix; values are widened to float64."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    if path.suffix == ".tpm":
        return _read_tpm(path)
    if path.suffix == ".csv":
        return _read_csv(path)
    raise UsageError(f"{path}: unknown matrix extension (use .tpm or .csv)")


def _read_tpm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header ({len(raw)} bytes, need 12)")
    magic, rows, cols = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at byte offset 0")
    expected = _HEADER.size + 4 * rows * cols
    if len(raw) != expected:
        raise DataError(
            f"{path}: payload is {len(raw)} bytes, expected exactly {expected} "
            f"for {rows}x{cols}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: non-finite value at element {i} (byte offset {12 + 4 * i})"
        )
    return data.astype(np.float64).reshape(rows, cols)


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _read_csv(path: Path) -> np.ndarray:
    rows = []
    width = None
    # newlines arrive translated to "\n", so these are the lines a file iterator yields
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise DataError(
                f"{path}:{lineno}: row has {len(cells)} cells, expected {width}"
            )
        parsed = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric cell {cell!r} in column {col}"
                ) from None
            if not np.isfinite(value):
                raise DataError(
                    f"{path}:{lineno}: non-finite cell {cell!r} in column {col}"
                )
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty matrix file")
    return np.asarray(rows, dtype=np.float64)


def write_attention_maps(path, maps) -> None:
    """Store H stacked NxN maps as one (H*N)xN TPM1 matrix."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3 or maps.shape[1] != maps.shape[2]:
        raise UsageError(f"attention maps must be (H, N, N), got {maps.shape}")
    write_matrix(path, maps.reshape(maps.shape[0] * maps.shape[1], maps.shape[2]))


def read_attention_maps(path, heads: int) -> np.ndarray:
    """Read a (H*N)xN TPM1/CSV file back into (H, N, N); H comes out-of-band."""
    if heads < 1:
        raise UsageError("heads must be >= 1")
    flat = read_matrix(path)
    rows, n = flat.shape
    if rows % heads != 0 or rows // heads != n:
        raise DataError(
            f"{path}: shape {rows}x{n} does not factor into {heads} stacked "
            f"square maps"
        )
    return flat.reshape(heads, n, n)


def _config_from_dict(obj: dict, source: str) -> ModelConfig:
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise DataError(f"{source}: unknown config key {sorted(unknown)[0]!r}")
    missing = _REQUIRED_KEYS - set(obj)
    if missing:
        raise DataError(f"{source}: missing config key {sorted(missing)[0]!r}")
    for key in ("layers", "dim", "heads", "tokens", "mlp_ratio"):
        if key in obj and (isinstance(obj[key], bool) or not isinstance(obj[key], int)):
            raise DataError(f"{source}: key {key!r} must be an integer")
    if "schedule" in obj and obj["schedule"] is not None:
        sched = obj["schedule"]
        if not isinstance(sched, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in sched
        ):
            raise DataError(f"{source}: key 'schedule' must be an array of integers")
    if "alpha" in obj and obj["alpha"] is not None:
        if not isinstance(obj["alpha"], (int, float)) or isinstance(obj["alpha"], bool):
            raise DataError(f"{source}: key 'alpha' must be a number")
    if "mode" in obj and not isinstance(obj["mode"], str):
        raise DataError(f"{source}: key 'mode' must be a string")
    try:
        return ModelConfig(
            layers=obj["layers"],
            dim=obj["dim"],
            heads=obj["heads"],
            tokens=obj["tokens"],
            mlp_ratio=obj.get("mlp_ratio", 4),
            schedule=obj.get("schedule"),
            alpha=obj.get("alpha"),
            mode=obj.get("mode", "standard"),
        )
    except UsageError as exc:
        raise DataError(f"{source}: {exc}") from None


def _read_json(path: Path):
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from None


def read_config(path) -> ModelConfig:
    path = Path(path)
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return _config_from_dict(obj, str(path))


def read_schedule(path) -> list[int]:
    """Read a schedule-only file: a bare JSON array of token counts."""
    path = Path(path)
    obj = _read_json(path)
    if not isinstance(obj, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) for k in obj
    ):
        raise DataError(f"{path}: schedule must be a JSON array of integers")
    if any(k < 0 for k in obj):
        raise DataError(f"{path}: schedule entries must be >= 0")
    return list(obj)
