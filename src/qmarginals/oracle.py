"""Brute-force ground truth for the affine projections.

Marginal constraints are turned into an explicit real linear system on an
isometric parametrization of Hermitian matrices; the Moore-Penrose
pseudo-inverse of the stacked system then yields the exact Frobenius
projection. Slow by design and restricted to desk scale; used to validate
the closed-form and inclusion-exclusion projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projections import ConstraintSet
from .tensorcore import SystemDims, hermitize, partial_trace, _as_square

PINV_RCOND = 1e-12
CONSISTENT_RESIDUAL = 1e-8

_SQRT2 = np.sqrt(2.0)


def parametrize(h: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix; Euclidean norm = Frobenius norm.

    Layout: n diagonal entries, then sqrt(2) * real and sqrt(2) * imaginary
    parts of the strict upper triangle in row-major order.
    """
    h = _as_square(h, "h")
    n = h.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([
        np.real(np.diagonal(h)),
        _SQRT2 * np.real(h[iu]),
        _SQRT2 * np.imag(h[iu]),
    ])


def unparametrize(x: np.ndarray, n: int) -> np.ndarray:
    m = n * (n - 1) // 2
    if x.shape != (n * n,):
        raise ValueError(f"expected {n * n} coordinates, got {x.shape}")
    h = np.zeros((n, n), dtype=complex)
    h[np.diag_indices(n)] = x[:n]
    iu = np.triu_indices(n, k=1)
    upper = (x[n:n + m] + 1j * x[n + m:]) / _SQRT2
    h[iu] = upper
    h[(iu[1], iu[0])] = upper.conj()
    return h


@dataclass(frozen=True)
class VectorizedConstraints:
    matrix: np.ndarray   # stacked constraint rows on the parametrization
    rhs: np.ndarray
    dims: SystemDims


def vectorize_constraints(cs: ConstraintSet) -> VectorizedConstraints:
    """Matrixize every marginal constraint against the Hermitian parametrization."""
    n = cs.dims.total
    rows = []
    rhs = []
    for c in cs.constraints:
        nj = cs.dims.subdim(c.keep)
        block = np.zeros((nj * nj, n * n))
        for r in range(n * n):
            e = np.zeros(n * n)
            e[r] = 1.0
            basis = unparametrize(e, n)
            block[:, r] = parametrize(partial_trace(basis, cs.dims, c.keep))
        rows.append(block)
        rhs.append(parametrize(c.target))
    return VectorizedConstraints(np.vstack(rows), np.concatenate(rhs), cs.dims)


def pseudoinverse_projection(z, vc: VectorizedConstraints) -> np.ndarray:
    """x - A^+(Ax - b), mapped back to a Hermitian matrix.

    Raises if the stacked system is inconsistent (least-squares residual
    above 1e-8): the affine set is then empty and no projection exists.
    """
    z = hermitize(_as_square(z, "z", vc.dims))
    n = vc.dims.total
    a_pinv = np.linalg.pinv(vc.matrix, rcond=PINV_RCOND)
    x_feas = a_pinv @ vc.rhs
    residual = float(np.linalg.norm(vc.matrix @ x_feas - vc.rhs))
    if residual > CONSISTENT_RESIDUAL:
        raise ValueError(f"inconsistent constraint system: residual {residual:.3e}")
    x = parametrize(z)
    x_star = x - a_pinv @ (vc.matrix @ x - vc.rhs)
    return hermitize(unparametrize(x_star, n))


def variational_inequality_check(z, x_star, feasible_samples) -> float:
    """max_y <z - x*, y - x*> over the samples (real Frobenius inner product).

    Nonpositive values (up to tolerance) are consistent with x* being the
    projection of z onto the convex set the samples were drawn from.
    """
    z = _as_square(z, "z")
    x_star = _as_square(x_star, "x_star")
    d = z - x_star
    worst = -np.inf
    for y in feasible_samples:
        y = _as_square(y, "feasible sample")
        worst = max(worst, float(np.real(np.trace(d.conj().T @ (y - x_star)))))
    return worst
