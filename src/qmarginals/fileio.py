"""Matrix and spectrum files.

A matrix file is JSON with the subsystem dimensions and the complex entries
in row-major order as [re, im] pairs, written one pair per line; a spectrum
file holds a flat list of real values. Plain text keeps fixture diffs
readable, and Python's float repr round-trips exactly, so write-then-read is
bit-exact. Every file is written under a temporary name beside its target
and then renamed into place, so a reader never sees a partial file.
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .tensorcore import SystemDims, as_dims, hermitize


def write_matrix(path, matrix, dims) -> None:
    """Write a square complex matrix on `dims` as a matrix file.

    No Hermiticity check: unitaries are written too, though `read_matrix`
    reads back only Hermitian matrices.
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    dims = as_dims(dims)
    if m.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims.dims}")
    pairs = json.dumps(np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist())
    write_text(path, f'{{"dims": {json.dumps(list(dims.dims))}, "entries": [\n '
                     + pairs[1:-1].replace("], [", "],\n [") + "\n]}\n")


def write_text(path, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it onto `path`."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()
        if isinstance(exc, OSError):   # name the target, not the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def read_matrix(path) -> tuple[np.ndarray, SystemDims]:
    """Parse a matrix file; the matrix is validated finite and Hermitian (within 1e-12)."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "dims" not in payload or "entries" not in payload:
        raise ValueError(f"{path}: expected an object with 'dims' and 'entries'")
    dims, entries = payload["dims"], payload["entries"]
    if not (isinstance(dims, list) and dims
            and all(type(d) is int and d >= 1 for d in dims)):   # a boolean is not an int
        raise ValueError(f"{path}: dims must be a nonempty list of positive integers")
    if not isinstance(entries, list):
        raise ValueError(f"{path}: entries must be a list of [re, im] pairs")
    dims = SystemDims(dims)
    n = dims.total
    if len(entries) != n * n:
        raise ValueError(f"{path}: expected {n * n} entries for dims {dims.dims}, "
                         f"got {len(entries)}")
    try:
        _numbers_only(chain.from_iterable(entries))
        pairs = np.array(entries, dtype=float).reshape(n * n, 2)   # fails unless all are pairs
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: entries must be [re, im] pairs of floats") from exc
    m = pairs.view(complex).reshape(n, n)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{path}: entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > 1e-12:
        raise ValueError(f"{path}: matrix is not Hermitian within 1e-12")
    return hermitize(m), dims


def _numbers_only(items) -> None:
    """TypeError unless every item is a JSON number; a boolean is not one."""
    if not {int, float}.issuperset(map(type, items)):
        raise TypeError("expected numbers")


def write_spectrum(path, values) -> None:
    v = np.asarray(values, dtype=float).ravel()
    write_text(path, json.dumps({"values": [float(x) for x in v]}, indent=1) + "\n")


def read_spectrum(path) -> np.ndarray:
    """Parse a spectrum file, sorted descending.

    Values printed to few decimals may sum slightly off 1; deviations up to
    1e-3 are renormalized (larger ones are rejected as not a probability
    vector).
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or "values" not in payload:
        raise ValueError(f"{path}: expected an object with 'values'")
    try:
        _numbers_only(payload["values"])
        v = np.sort(np.array(payload["values"], dtype=float))[::-1]
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: values must be a list of floats") from exc
    if v.size == 0:
        raise ValueError(f"{path}: empty spectrum")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{path}: values must be finite")
    s = float(v.sum())
    if abs(s - 1.0) > 1e-3:
        raise ValueError(f"{path}: values sum to {s}, not a probability vector")
    return v / s
