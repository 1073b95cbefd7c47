"""Tensor-structured linear algebra on multipartite Hermitian matrices.

Subsystems of a k-partite space C^{n_1} x ... x C^{n_k} are labelled 1..k
throughout the package. Kept-index sets are arbitrary nonempty subsets of
{1, ..., k}; factors inside an output always follow ascending label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10      # PSD: the smallest eigenvalue is at least -PSD_ATOL
RANK_RTOL = 1e-10     # rank: eigenvalues above RANK_RTOL * max(1, lambda_max)
SPECTRUM_ATOL = 1e-8  # spectrum c: every sorted eigenvalue within this of c


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


def _re_inner(a: np.ndarray, b: np.ndarray):
    """Re <A, B> = Re tr(A* B) as one real dot product over float views: an
    entry x + iy counts as the real pair (x, y). A and B share one dtype,
    float64 or complex128, and are matrices or stacks of them, (m, n, n),
    whose products come out as a vector or matrix over the stack index.
    C-contiguous inputs are not copied."""
    if a.ndim == 2:
        return a.ravel().view(float) @ b.ravel().view(float)
    rows = a.reshape(len(a), -1).view(float)
    return rows @ (b.ravel().view(float) if b.ndim == 2 else b.reshape(len(b), -1).view(float).T)


def _as_square(a, what: str, dims: SystemDims | None = None) -> np.ndarray:
    """The one check of a matrix argument: `a` (or its `.matrix`) as a complex
    square matrix with finite entries, of order dims.total when dims are given.
    Each failure raises a ValueError that names the argument as `what`."""
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    if dims is not None and m.shape[0] != dims.total:
        raise ValueError(f"{what} order {m.shape[0]} does not match dims {dims.dims}")
    return _finite(m, what)


def _finite(a: np.ndarray, what: str) -> np.ndarray:
    """`a`, or a ValueError naming it as `what` when an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what}: entries must be finite, got non-finite values")
    return a


def _psd(values) -> bool:
    """The one PSD rule: ascending eigenvalues whose smallest is at least -PSD_ATOL."""
    return bool(values[0] >= -PSD_ATOL)


def _positive_definite(z: np.ndarray) -> bool:
    """Whether `np.linalg.cholesky` factors the Hermitian z, of which it reads
    the lower triangle. Success shows that no eigenvalue of z is negative
    beyond rounding, so a projection onto the PSD cone has nothing to clip:
    a sufficient test that lets a projection skip its eigendecomposition. It
    decides no verdict; `_psd` is the one PSD rule."""
    try:
        np.linalg.cholesky(z)
    except np.linalg.LinAlgError:
        return False
    return True


def numerical_rank(a) -> int:
    """Count of eigenvalues above RANK_RTOL * max(1, lambda_max), of a matrix or
    of its eigenvalues given as a 1-D array, which must be finite too."""
    values = (_finite(a, "a") if isinstance(a, np.ndarray) and a.ndim == 1
              else np.linalg.eigvalsh(hermitize(_as_square(a, "a"))))
    if len(values) == 0:
        return 0
    return int(np.sum(values > RANK_RTOL * max(1.0, float(np.max(values)))))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; realizes tensor products of subsystem operators."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not in `keep`.

    On product inputs returns the tensor factor over `keep` scaled by the
    traces of the discarded factors; kept factors stay in ascending label
    order. One gather and one segment sum (`_gather`): the kernel that
    traces a sweep's iterate to every lattice node at once.
    """
    dims = as_dims(dims)
    keep = dims.validate_keep(keep)
    nj = dims.subdim(keep)
    return _segment_sums(_as_square(rho, "rho", dims), *_gather(dims, keep)).reshape(nj, nj)


def _segment_sums(m: np.ndarray, gather: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of the runs of m's entries at the flat indices `gather` that begin
    at `starts`. A sum of finite entries that overflows is inf, without a
    warning; `check_consistency` reads the NaN gap it leads to as a failure."""
    with np.errstate(over="ignore"):
        return np.add.reduceat(np.take(m, gather), starts)


@lru_cache(maxsize=256)
def _gather(dims: SystemDims, keep: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(indices, starts) tracing an n x n matrix on `dims` down to S = `keep`:
    the n n_S flat indices of the entries whose row and column agree outside
    S, ordered (row on S, column on S, complement) and built from per-axis
    strides, and the start of the run of n_{S^c} that each entry of the
    trace sums. The lift D x I/n_{S^c} writes D_ij / n_{S^c} over run (i, j).
    """
    n = dims.total
    stride = [math.prod(dims.dims[a:]) for a in range(1, dims.k + 1)]
    index = np.zeros(1, dtype=np.intp)
    for a, step in ([(a, n) for a in keep] + [(a, 1) for a in keep]
                    + [(a, n + 1) for a in range(1, dims.k + 1) if a not in keep]):
        index = np.add.outer(index, step * stride[a - 1] * np.arange(dims.dims[a - 1])).ravel()
    starts = np.arange(0, index.size, n // dims.subdim(keep))
    for array in (index, starts):
        array.setflags(write=False)
    return index, starts


def swap_bipartite(m: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Reorder C^{n1} x C^{n2} -> C^{n2} x C^{n1}."""
    return np.ascontiguousarray(
        m.reshape(n1, n2, n1, n2).transpose(1, 0, 3, 2).reshape(n1 * n2, n1 * n2)
    )


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix of unit trace on a tensor-factored space.

    `_eigenvalues` holds, read-only, the ascending eigenvalues that the PSD
    check computed (`_eigvalsh`), so that a construction's rank check and
    the CLI's summary of the state decompose it no second time.
    """

    matrix: np.ndarray
    dims: SystemDims = field(default=None)  # type: ignore[assignment]

    def __init__(self, matrix, dims=None):
        d = as_dims(dims) if dims is not None else None
        self._store(*_density(matrix, "density matrix", d), d)

    @classmethod
    def _named(cls, matrix, what: str) -> "DensityMatrix":
        """DensityMatrix(matrix), whose check names the matrix as `what` in
        each error, as `density_input` does."""
        state = cls.__new__(cls)
        state._store(*_density(matrix, what, None), None)
        return state

    def _store(self, m, values, d) -> None:
        for array in (m, values):
            array.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", d or SystemDims((m.shape[0],)))
        object.__setattr__(self, "_eigenvalues", values)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype) if dtype else np.array(self.matrix)


def density_input(rho, what: str = "density matrix",
                  dims: SystemDims | None = None) -> np.ndarray:
    """Check a DensityMatrix-or-array is finite, unit-trace and PSD (and of
    order dims.total when dims are given); return it Hermitized."""
    return _density(rho, what, dims)[0]


def _density(rho, what: str, dims: SystemDims | None) -> tuple[np.ndarray, np.ndarray]:
    """density_input, and the ascending eigenvalues its PSD check read: a
    DensityMatrix's own, else those of `_eigvalsh`."""
    if isinstance(rho, DensityMatrix):
        return np.array(_as_square(rho, what, dims)), rho._eigenvalues
    m = hermitize(_as_square(rho, what, dims))
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"{what}: trace must be 1 within {TRACE_ATOL}, got {tr}")
    values = _eigvalsh(m)
    if not _psd(values):
        raise ValueError(f"{what}: not PSD, min eigenvalue {values[0]}")
    return m, values


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian m, of which the lower triangle
    is read: in float64 when m's imaginary part is exactly zero, at 0.6 of
    the price of the complex decomposition (n = 48)."""
    return np.linalg.eigvalsh(m.real if np.iscomplexobj(m) and not m.imag.any() else m)


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
        if not _psd(v[::-1]):
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
