"""Tensor-structured linear algebra on multipartite Hermitian matrices.

Subsystems of a k-partite space C^{n_1} x ... x C^{n_k} are labelled 1..k
throughout the package. Kept-index sets are arbitrary nonempty subsets of
{1, ..., k}; factors inside an output always follow ascending label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Iterable

import numpy as np

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SystemDims:
    """Ordered subsystem dimensions (n_1, ..., n_k) of a tensor factorization."""

    dims: tuple[int, ...]

    def __init__(self, dims: Iterable[int]):
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if len(self.dims) < 1:
            raise ValueError("need at least one subsystem")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.dims}")

    @property
    def k(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        return math.prod(self.dims)

    def validate_keep(self, keep: Iterable[int]) -> tuple[int, ...]:
        """Normalize a kept-index set to a sorted tuple of 1-based labels."""
        j = sorted({int(i) for i in keep})
        if not j:
            raise ValueError("kept-index set must be nonempty")
        if j[0] < 1 or j[-1] > self.k:
            raise ValueError(f"kept indices {j} outside 1..{self.k}")
        return tuple(j)

    def subdim(self, labels: Iterable[int]) -> int:
        """Product of the dimensions of the given subsystem labels."""
        return math.prod(self.dims[i - 1] for i in labels)

    def local_dims(self, labels: Iterable[int]) -> "SystemDims":
        return SystemDims(self.dims[i - 1] for i in sorted(set(labels)))


def as_dims(dims) -> SystemDims:
    if isinstance(dims, SystemDims):
        return dims
    if isinstance(dims, int):
        return SystemDims((dims,))
    return SystemDims(dims)


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2; kills round-off drift accumulated through projection loops."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return _sym(a)


def _sym(a: np.ndarray) -> np.ndarray:
    """(A + A*)/2 in A's own dtype, built in one new array: a real A stays real."""
    t = np.conjugate(a.T, order="C") if np.iscomplexobj(a) else np.array(a.T, order="C")
    return np.divide(np.add(t, a, out=t), 2, out=t)


def _as_square(a, what: str, dims: SystemDims | None = None) -> np.ndarray:
    """The one check of a matrix argument: `a` (or its `.matrix`) as a complex
    square matrix with finite entries, of order dims.total when dims are given.
    Each failure raises a ValueError that names the argument as `what`."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if dims is not None and m.shape[0] != dims.total:
        raise ValueError(f"{what} order {m.shape[0]} does not match dims {dims.dims}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what}: entries must be finite, got non-finite values")
    return m


def numerical_rank(a) -> int:
    """Count of eigenvalues above 1e-10 * max(1, lambda_max), of a matrix or
    of its eigenvalues given as a 1-D array, which must be finite too."""
    values = (a if isinstance(a, np.ndarray) and a.ndim == 1
              else np.linalg.eigvalsh(hermitize(_as_square(a, "a"))))
    if not np.isfinite(values).all():
        raise ValueError("a: entries must be finite, got non-finite values")
    if len(values) == 0:
        return 0
    return int(np.sum(values > RANK_RTOL * max(1.0, float(np.max(values)))))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; realizes tensor products of subsystem operators."""
    return np.kron(np.asarray(a), np.asarray(b))


def kron_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    return reduce(np.kron, mats)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not in `keep`.

    On product inputs returns the tensor factor over `keep` scaled by the
    traces of the discarded factors; kept factors stay in ascending label
    order.
    """
    dims = as_dims(dims)
    return _reducer(dims, tuple(keep))(_as_square(rho, "rho", dims))


@lru_cache(maxsize=256)
def _reducer(dims: SystemDims, keep: tuple[int, ...]):
    """The einsum that traces a matrix on `dims` down to `keep`, built once per pair."""
    j = dims.validate_keep(keep)
    keep0 = [i - 1 for i in j]
    k = dims.k
    shape = dims.dims * 2
    in_labels = list(range(k)) + [k + i if i in keep0 else i for i in range(k)]
    out_labels = keep0 + [k + i for i in keep0]
    nj = dims.subdim(j)

    def trace_down(m: np.ndarray) -> np.ndarray:
        return np.einsum(m.reshape(shape), in_labels, out_labels).reshape(nj, nj)

    return trace_down


def swap_bipartite(m: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Reorder C^{n1} x C^{n2} -> C^{n2} x C^{n1}."""
    return np.ascontiguousarray(
        m.reshape(n1, n2, n1, n2).transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix of unit trace on a tensor-factored space."""

    matrix: np.ndarray
    dims: SystemDims = field(default=None)  # type: ignore[assignment]

    def __init__(self, matrix, dims=None):
        d = as_dims(dims) if dims is not None else None
        m = density_input(matrix, dims=d)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", d or SystemDims((m.shape[0],)))

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype) if dtype else np.array(self.matrix)


def density_input(rho, what: str = "density matrix",
                  dims: SystemDims | None = None) -> np.ndarray:
    """Check a DensityMatrix-or-array is finite, unit-trace and PSD (and of
    order dims.total when dims are given); return it Hermitized."""
    if isinstance(rho, DensityMatrix):
        return np.array(_as_square(rho, what, dims))
    m = hermitize(_as_square(rho, what, dims))
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{what}: trace must be 1 within {TRACE_ATOL}, got {tr}")
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -PSD_ATOL:
        raise ValueError(f"{what}: not PSD, min eigenvalue {lo}")
    return m


def as_spectrum(values, *, probability: bool = False) -> np.ndarray:
    """Canonicalize a finite real spectrum to descending order.

    With probability=True the entries must also be nonnegative and sum to 1
    within TRACE_ATOL (prescribed-eigenvalue use).
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 1:
        raise ValueError("spectrum must be nonempty")
    if not np.isfinite(v).all():
        raise ValueError("spectrum entries must be finite")
    v = np.sort(v)[::-1]
    if probability:
        if v[-1] < -PSD_ATOL:
            raise ValueError(f"spectrum entries must be >= 0, got {v[-1]}")
        s = float(v.sum())
        if abs(s - 1.0) > TRACE_ATOL:
            raise ValueError(f"spectrum must sum to 1 within {TRACE_ATOL}, got {s}")
        v = np.clip(v, 0.0, None)
    return v


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    # Ginibre + QR; rescaling by the phases of R's diagonal gives Haar measure.
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_probvec(rng: np.random.Generator, n: int) -> np.ndarray:
    # Normalized i.i.d. exponentials: flat Dirichlet on the simplex.
    p = rng.standard_exponential(n)
    p /= p.sum()
    return np.sort(p)[::-1]


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary; deterministic for a given seed."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _haar_unitary(np.random.default_rng(seed), n)


def random_probability_vector(n: int, seed: int) -> np.ndarray:
    """Random probability vector, sorted descending; deterministic for a given seed."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return _random_probvec(np.random.default_rng(seed), n)


def random_density(dims, seed: int) -> DensityMatrix:
    """U diag(p) U* with Haar U and flat-Dirichlet p."""
    dims = as_dims(dims)
    rng = np.random.default_rng(seed)
    n = dims.total
    u = _haar_unitary(rng, n)
    p = _random_probvec(rng, n)
    return DensityMatrix(hermitize((u * p) @ u.conj().T), dims)
