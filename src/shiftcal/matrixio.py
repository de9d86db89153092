"""Deterministic on-disk formats for matrices, labels and reports.

Two matrix formats are supported, chosen by file suffix:

* ``.csv``: headerless comma-separated text, one row per line, LF line
  endings, floats printed with %.17g so float64 values round-trip exactly.
* ``.f32``: a 16-byte header (magic ``TCAL``, u32 row count, u32 column
  count, u32 reserved zero, little-endian) followed by row-major float32
  payload. Lossy by design; loaders upcast to float64.

Labels are always written as a single-column integer CSV regardless of
matrix suffix. JSON reports are emitted with sorted keys, two-space
indentation and no timestamps so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import struct
import warnings
from pathlib import Path

import numpy as np

from .metrics import ROW_SUM_TOL

__all__ = [
    "RAW_MAGIC",
    "dump_json",
    "is_raw_path",
    "load_labels",
    "load_matrix",
    "load_probabilities",
    "save_labels",
    "save_matrix",
]

RAW_MAGIC = b"TCAL"
_HEADER = struct.Struct("<4sIII")
_CSV_BLOCK_ROWS = 4096


def is_raw_path(path) -> bool:
    return Path(path).suffix == ".f32"


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-d matrix, got shape {arr.shape}")
    return arr


def _load_text(path, kind: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` as a 2-d array on an ASCII handle; parse errors name the path.

    ``comments=None``: a ``#`` line is a parse error, not a skipped line.
    Blank lines are skipped, and a file with no data is an error.
    """
    with Path(path).open(encoding="ascii") as fh, warnings.catch_warnings():
        # loadtxt warns on an empty file; the size check below reports it instead
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.x reads "1.7" as the integer 1 with only a DeprecationWarning;
        # as an error it is a parse failure like any other
        warnings.simplefilter("error", DeprecationWarning)
        try:
            arr = np.loadtxt(fh, comments=None, ndmin=2, **kwargs)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if arr.size == 0:
        raise ValueError(f"{path}: empty {kind} file")
    return arr


def save_matrix(path, values) -> None:
    """Write a matrix in the format implied by the path suffix."""
    arr = _as_matrix(values)
    path = Path(path)
    if is_raw_path(path):
        header = _HEADER.pack(RAW_MAGIC, arr.shape[0], arr.shape[1], 0)
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        return
    # np.savetxt's own format, one ``%`` per block of rows instead of one per row
    row = ",".join(["%.17g"] * arr.shape[1]) + "\n"
    with path.open("w", encoding="ascii", newline="\n") as fh:
        for start in range(0, arr.shape[0], _CSV_BLOCK_ROWS):
            block = arr[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by ``save_matrix``; always returns float64."""
    path = Path(path)
    if is_raw_path(path):
        blob = path.read_bytes()
        if len(blob) < _HEADER.size:
            raise ValueError(f"{path}: truncated raw matrix header")
        magic, rows, cols, reserved = _HEADER.unpack_from(blob)
        if magic != RAW_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {RAW_MAGIC!r}")
        if reserved != 0:
            raise ValueError(f"{path}: reserved header field must be zero, got {reserved}")
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: empty matrix ({rows} x {cols})")
        expected = _HEADER.size + 4 * rows * cols
        if len(blob) != expected:
            raise ValueError(f"{path}: payload is {len(blob)} bytes, expected {expected}")
        data = np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
        out = data.astype(np.float64).reshape(rows, cols)
    else:
        out = _load_text(path, "matrix", delimiter=",")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return out


def load_probabilities(path) -> np.ndarray:
    """Load a probability matrix, repairing storage-precision row sums.

    Rows are renormalized only when some row sum strays from one by more
    than the validation tolerance, which happens after float32 storage but
    never for exactly-round-tripped float64 CSV.
    """
    probs = load_matrix(path)
    if np.any(probs < 0.0) or np.any(probs > 1.0 + ROW_SUM_TOL):
        raise ValueError(f"{path}: probabilities outside [0, 1]")
    sums = probs.sum(axis=1)
    if np.any(sums <= 0.0):
        raise ValueError(f"{path}: a probability row sums to zero")
    if np.max(np.abs(sums - 1.0)) > ROW_SUM_TOL:
        probs = probs / sums[:, None]
    return probs


def save_labels(path, labels) -> None:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"labels must be a non-empty 1-d array, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {arr.dtype}")
    Path(path).write_text("\n".join(str(int(v)) for v in arr) + "\n", encoding="ascii", newline="\n")


def load_labels(path) -> np.ndarray:
    labels = _load_text(path, "label", dtype=np.int64)
    if labels.shape[1] != 1:
        raise ValueError(f"{path}: labels must be a single column, got {labels.shape[1]}")
    return labels[:, 0]


def _sanitize(value):
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if np.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def dump_json(path, payload: dict) -> None:
    """Write a report deterministically: sorted keys, non-finite as null."""
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="ascii", newline="\n")
