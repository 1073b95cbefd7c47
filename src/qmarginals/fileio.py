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
from operator import itemgetter
from pathlib import Path

import numpy as np

from .tensorcore import SystemDims, as_dims, hermitize, _finite, _psd


def write_matrix(path, matrix, dims) -> None:
    """Write a square complex matrix on `dims` as a matrix file.

    No Hermiticity check: unitaries are written too, though `read_matrix`
    reads back only Hermitian matrices. Numbers are written as `json.dumps`
    writes them, by float repr, and each distinct number is formatted once:
    the entries' bit patterns are made unique (so -0.0 stays apart from
    0.0) and indexed back into place. A constructed state repeats a few
    dozen values over thousands of entries. NaN and infinities, which JSON
    lacks, raise a ValueError naming `path` before anything is written.
    """
    m = np.asarray(getattr(matrix, "matrix", matrix), dtype=complex)
    dims = as_dims(dims)
    if m.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims.dims}")
    _finite(m, str(path))
    bits, index = np.unique(m.ravel().view(np.int64), return_inverse=True)
    texts = list(map(float.__repr__, bits.view(float).tolist()))
    numbers = iter(itemgetter(*index.tolist())(texts))
    pairs = "],\n [".join(map(", ".join, zip(numbers, numbers)))
    write_text(path, f'{{"dims": {json.dumps(list(dims.dims))}, "entries": [\n [{pairs}]\n]}}\n')


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
        if not ({list}.issuperset(map(type, entries)) and {2}.issuperset(map(len, entries))):
            raise TypeError("expected pairs")
        flat = list(chain.from_iterable(entries))
        _numbers_only(flat)
        m = np.array(flat, dtype=float).view(complex).reshape(n, n)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: entries must be [re, im] pairs of floats") from exc
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
    """Write a spectrum file of `values` as given. Values that `read_spectrum`
    would reject (empty, NaN or infinite, negative, or not summing to 1
    within 1e-3) raise a ValueError naming `path` before anything is written."""
    v = _finite(np.asarray(values, dtype=float).ravel(), str(path))
    _probability_sum(np.sort(v)[::-1], path)
    write_text(path, json.dumps({"values": [float(x) for x in v]}, indent=1) + "\n")


def read_spectrum(path) -> np.ndarray:
    """Parse a spectrum file, sorted descending.

    The values must be a probability vector: finite, at least -PSD_ATOL
    each (`tensorcore._psd`), summing to 1 within 1e-3. Values printed to
    few decimals may sum slightly off 1; they are renormalized.
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
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{path}: values must be finite")
    return v / _probability_sum(v, path)


def _probability_sum(v: np.ndarray, path) -> float:
    """The sum of the finite, descending v, or a ValueError naming `path`
    unless v is a probability vector as a spectrum file holds one."""
    if v.size == 0:
        raise ValueError(f"{path}: empty spectrum")
    if not _psd(v[::-1]):
        raise ValueError(f"{path}: values must be nonnegative, got {v[-1]}")
    s = float(v.sum())
    if abs(s - 1.0) > 1e-3:
        raise ValueError(f"{path}: values sum to {s}, not a probability vector")
    return s
