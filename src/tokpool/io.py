"""Deterministic file formats.

TPM1 matrix files: 4 ASCII magic bytes ``TPM1``, then rows and cols as
unsigned 32-bit little-endian integers, then rows*cols IEEE-754 32-bit
little-endian floats in row-major order. File length is exactly
``12 + 4*rows*cols`` bytes. A TPM1 matrix is read as a writable float32
array, the file's own type; every reader widens it to float64 before its
arithmetic (a float64 @ float32 product widens the float32 operand exactly,
so the bits are those of a float64 matrix). A read checks the 12-byte header
(length, then magic), then the file size against the header, before it
allocates anything; then it reads the payload straight into the array in
steps of 1 MiB and checks each step for NaN and infinities while the step is
still in cache. CSV matrices are read as float64.

CSV matrix files (``.csv``): comma-separated, no header, one row per line,
each value as the shortest text that reads back to the same double.

Config files: a JSON object of ``ModelConfig``'s fields. A field without a
default is a required key, an absent key takes its field's default, and an
unknown key is rejected. ``schedule`` is an array of ``layers`` integers.
Schedule-only files are a bare JSON array.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import typing
from pathlib import Path

import numpy as np

from .costmodel import ModelConfig
from .errors import DataError, UsageError

MAGIC = b"TPM1"
_HEADER = struct.Struct("<4sII")


def csv_lines(rows):
    """One ``a,b,c`` line per row, newline included; ``None`` is an empty
    cell and any other cell is written with ``str``."""
    for row in rows:
        yield ",".join("" if v is None else str(v) for v in row) + "\n"


def matrix_format(path) -> str:
    """``"tpm"`` or ``"csv"``, by the extension of matrix file ``path``."""
    path = Path(path)
    if path.suffix not in (".tpm", ".csv"):
        raise UsageError(f"{path}: unknown matrix extension (use .tpm or .csv)")
    return path.suffix[1:]


def write_matrix(path, m) -> None:
    """Write a matrix as TPM1 (``.tpm``) or CSV (``.csv``), by extension."""
    path = Path(path)
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise UsageError(f"can only write 2-D matrices, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: refusing to write non-finite values")
    if matrix_format(path) == "tpm":
        with np.errstate(over="ignore"):  # overflow is detected and reported below
            payload = arr.astype("<f4")
        if not np.isfinite(payload).all():
            raise DataError(f"{path}: values overflow 32-bit float storage")
        if arr.shape[0] >= 1 << 32 or arr.shape[1] >= 1 << 32:
            raise DataError(f"{path}: dimensions exceed the 32-bit header")
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, arr.shape[0], arr.shape[1]))
            fh.write(payload.tobytes(order="C"))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(csv_lines(row.tolist() for row in arr))


def read_matrix(path) -> np.ndarray:
    """Read a TPM1 matrix as writable float32 or a CSV matrix as float64."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    return _read_tpm(path) if matrix_format(path) == "tpm" else _read_csv(path)


def _read_tpm(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DataError(f"{path}: truncated header ({len(header)} bytes, need 12)")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DataError(f"{path}: bad magic {magic!r} at byte offset 0")
        expected = _HEADER.size + 4 * rows * cols
        size = os.fstat(fh.fileno()).st_size
        if size == expected:  # checked before the payload is allocated
            data = np.empty(rows * cols, dtype="<f4")
            size, bad = _read_payload(fh, data)
    if size != expected:
        raise DataError(
            f"{path}: payload is {size} bytes, expected exactly {expected} "
            f"for {rows}x{cols}"
        )
    if bad is not None:
        raise DataError(
            f"{path}: non-finite value at element {bad} (byte offset {12 + 4 * bad})"
        )
    return data.reshape(rows, cols)


_STEP = 1 << 18  # floats per payload read: 1 MiB, checked while still in cache


def _read_payload(fh, data: np.ndarray) -> tuple[int, int | None]:
    """Read ``data``'s bytes from ``fh`` in steps and check each step's values.

    Returns the file's byte count so far (header included), which falls short
    of the expected size only on a short read, and the index of the first
    non-finite element or ``None``. The size is reported before the values,
    so every step is read even after a bad one."""
    bad = None
    for start in range(0, data.size, _STEP):
        step = data[start:start + _STEP]
        got = fh.readinto(step.view(np.uint8))  # a view: the bytes land in data
        if got < step.nbytes:
            return _HEADER.size + 4 * start + got, bad
        # NaN propagates through both reductions and an infinity shows in one,
        # so the element search runs only on failure, over this step alone
        if bad is None and not (np.isfinite(step.min()) and np.isfinite(step.max())):
            bad = start + int(np.flatnonzero(~np.isfinite(step))[0])
    return _HEADER.size + 4 * data.size, bad


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
    if n == 0:
        raise DataError(f"{path}: attention maps cover no tokens")
    return flat.reshape(heads, n, n)


def _is_int_array(value) -> bool:
    """Whether JSON value ``value`` is an array of integers. A decoded JSON
    value has an exact type, so ``type`` tells an integer from a boolean."""
    return type(value) is list and all(type(k) is int for k in value)


def _config_from_dict(obj: dict, source: str) -> ModelConfig:
    fields = dataclasses.fields(ModelConfig)
    unknown = set(obj) - {f.name for f in fields}
    if unknown:
        raise DataError(f"{source}: unknown config key {sorted(unknown)[0]!r}")
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - set(obj)
    if missing:
        raise DataError(f"{source}: missing config key {sorted(missing)[0]!r}")
    for key, hint in typing.get_type_hints(ModelConfig).items():
        if hint is int and key in obj and type(obj[key]) is not int:
            raise DataError(f"{source}: key {key!r} must be an integer")
    if obj.get("schedule") is not None and not _is_int_array(obj["schedule"]):
        raise DataError(f"{source}: key 'schedule' must be an array of integers")
    if obj.get("alpha") is not None and type(obj["alpha"]) not in (int, float):
        raise DataError(f"{source}: key 'alpha' must be a number")
    if "mode" in obj and type(obj["mode"]) is not str:
        raise DataError(f"{source}: key 'mode' must be a string")
    try:
        return ModelConfig(**obj)
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
    if not _is_int_array(obj):
        raise DataError(f"{path}: schedule must be a JSON array of integers")
    if any(k < 0 for k in obj):
        raise DataError(f"{path}: schedule entries must be >= 0")
    return list(obj)
