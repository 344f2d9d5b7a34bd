"""Feature-matrix file I/O: CSV rows or the compact FSFE binary layout.

FSFE files are magic bytes ``FSFE``, little-endian uint32 row and column
counts, then row-major float32 values. Loading auto-detects the format from
the magic.
"""

from __future__ import annotations

import codecs
import io
import struct
import warnings
from pathlib import Path
from typing import IO

import numpy as np

MAGIC = b"FSFE"
_HEADER = struct.Struct("<II")


def save_features_csv(path: str | Path | IO[str], features: np.ndarray) -> None:
    """Write one CSV row per feature vector to a path or an open text file.

    Values are written as ``%.17g``, which reads back as the same float64.
    """
    np.savetxt(path, _checked_matrix(features), fmt="%.17g", delimiter=",")


def save_features_fsfe(path: str | Path, features: np.ndarray) -> None:
    x = _checked_matrix(features)
    n, d = x.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(n, d))
        fh.write(np.ascontiguousarray(x, dtype="<f4").tobytes())


def load_features(path: str | Path) -> np.ndarray:
    """Read a feature matrix, auto-detecting FSFE binary vs. CSV.

    A NaN or infinite value raises ValueError naming the path and the first
    row (1-based, counting feature rows) that holds one.
    """
    x = _read_features(path)
    finite = np.isfinite(x)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0]) + 1
        raise ValueError(f"{path}: row {row} contains non-finite values")
    return x


def _read_features(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == MAGIC:
            return _read_fsfe_body(fh, path)
    if head.startswith(codecs.BOM_UTF8):
        raise ValueError(f"{path}: Unexpected UTF-8 BOM: save the file without a byte-order mark")
    return _read_csv(path)


def _checked_matrix(features: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"features must be a non-empty 2-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite values")
    return x


def _read_fsfe_body(fh: io.BufferedReader, path: str | Path) -> np.ndarray:
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError(f"{path}: truncated FSFE header")
    n, d = _HEADER.unpack(header)
    if n < 1 or d < 1:
        raise ValueError(f"{path}: FSFE dimensions must be positive, got {n}x{d}")
    payload = fh.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise ValueError(
            f"{path}: FSFE payload is {len(payload)} bytes, expected {expected} for {n}x{d}"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return values.reshape(n, d)


def _read_csv(path: str | Path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # An empty file is reported below; numpy's own warning would only repeat it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: not an FSFE file and not parseable as CSV: {exc}") from exc
    if x.size == 0:
        raise ValueError(f"{path}: no feature rows found")
    return x
