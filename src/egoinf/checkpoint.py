"""Versioned binary container for named fp64 matrices.

Layout (all integers little-endian, documented for external readers):

    magic   4 bytes  b"EGCK"
    version u32      currently 1
    mlen    u32      length of the UTF-8 JSON metadata blob
    meta    mlen bytes
    count   u32      number of matrices
    then per matrix, in file order:
        nlen  u16         name length
        name  nlen bytes  UTF-8
        rows  u32
        cols  u32
        data  rows*cols float64, little-endian, row-major
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

MAGIC = b"EGCK"
VERSION = 1


def save_checkpoint(path, matrices: dict[str, np.ndarray], meta: dict) -> None:
    blob = json.dumps(meta, separators=(",", ":"), sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(blob)), blob]
    parts.append(struct.pack("<I", len(matrices)))
    for name, arr in matrices.items():
        a = np.ascontiguousarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise DataError(f"checkpoint matrix '{name}' must be 2-D, got {a.shape}")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<II", a.shape[0], a.shape[1]))
        parts.append(a.astype("<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; any malformed, truncated or non-finite content
    raises DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    off = 0

    def take(size: int, what: str) -> bytes:
        nonlocal off
        if size > len(raw) - off:
            raise DataError(f"{path}: truncated checkpoint (reading {what})")
        off += size
        return raw[off - size : off]

    if take(4, "magic") != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    (mlen,) = struct.unpack("<I", take(4, "metadata length"))
    try:
        meta = json.loads(take(mlen, "metadata").decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: malformed checkpoint metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataError(f"{path}: checkpoint metadata is not an object")
    (count,) = struct.unpack("<I", take(4, "matrix count"))
    matrices: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(nlen, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: malformed matrix name: {exc}") from exc
        if name in matrices:
            raise DataError(f"{path}: matrix '{name}' appears twice")
        rows, cols = struct.unpack("<II", take(8, f"shape of '{name}'"))
        data = take(rows * cols * 8, f"data of '{name}'")
        arr = np.frombuffer(data, dtype="<f8").reshape(rows, cols).astype(np.float64)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: matrix '{name}' has non-finite entries")
        matrices[name] = arr
    if off != len(raw):
        raise DataError(f"{path}: {len(raw) - off} trailing bytes after the last matrix")
    return matrices, meta
