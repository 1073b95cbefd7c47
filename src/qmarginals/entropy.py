"""Entropy functionals and their gradients.

Natural logarithm throughout. Eigenvalues are floored at 1e-15 before logs
and fractional powers so gradients stay finite at the PSD boundary. Each
formula is one private kernel on (values[, U]) from a plain `np.linalg.eigh`,
as none depends on eigenvalue order or eigenvector phases;
`entropy_objective` hands the kernels to the projected gradient solver.
"""

from __future__ import annotations

import numpy as np

from .tensorcore import PSD_ATOL, density_input, hermitize, _as_square, _psd

LOG_FLOOR = 1e-15


def _von_neumann(values: np.ndarray) -> float:
    """-sum v ln v over the positive entries of `values`."""
    v = np.clip(values, 0.0, None)
    v = v[v > 0.0]
    return float(-(v * np.log(v)).sum()) if v.size else 0.0


def _renyi(v: np.ndarray, alpha: float) -> float:
    """ln(sum v^alpha) / (1 - alpha) over exactly the entries given."""
    return float(np.log(np.sum(v ** alpha)) / (1.0 - alpha))


def _grad_von_neumann_objective(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """ln(rho) + I for rho = U diag(values) U*, eigenvalues floored at 1e-15."""
    g = np.log(np.clip(values, LOG_FLOOR, None)) + 1.0
    return hermitize((u * g) @ u.conj().T)


def _grad_renyi(values: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """alpha/(1 - alpha) * rho^(alpha-1) / tr(rho^alpha), eigenvalues floored at 1e-15."""
    v = np.clip(values, LOG_FLOOR, None)
    powers = v ** (alpha - 1.0)
    scale = alpha / ((1.0 - alpha) * float(np.sum(v ** alpha)))
    return hermitize(scale * (u * powers) @ u.conj().T)


def _check_alpha(alpha, strict: bool) -> None:
    """Raise ValueError unless alpha is a finite Renyi order: > 0 when
    `strict`, else >= 0, and not 1, the von Neumann limit."""
    if alpha is None or not np.isfinite(alpha) or alpha < 0 or (strict and alpha == 0):
        raise ValueError(f"alpha must be finite and {'>' if strict else '>='} 0, got {alpha}")
    if alpha == 1:
        raise ValueError("alpha = 1 is the von Neumann limit")


def _clipped_spectrum(rho) -> np.ndarray:
    """Eigenvalues of rho's Hermitian part, as `numerical_rank` reads it, clipped at 0."""
    values = np.linalg.eigvalsh(hermitize(_as_square(rho, "rho")))
    if not _psd(values):
        raise ValueError(f"matrix is not PSD within {PSD_ATOL}: min eigenvalue {values[0]}")
    return np.clip(values, 0.0, None)


def von_neumann(rho) -> float:
    """S(rho) = -sum lambda_j ln lambda_j, with 0 ln 0 = 0."""
    return _von_neumann(_clipped_spectrum(rho))


def renyi(rho, alpha: float) -> float:
    """S_alpha(rho) = ln(sum lambda_j^alpha) / (1 - alpha), alpha >= 0, alpha != 1."""
    _check_alpha(alpha, strict=False)
    v = _clipped_spectrum(rho)
    return _renyi(v[v > 0.0], alpha)


def negative_entropy(rho) -> float:
    """tr(rho ln rho) = -S(rho); the convex objective the entropy solver descends."""
    return -von_neumann(rho)


def grad_von_neumann_objective(rho) -> np.ndarray:
    """Gradient of tr(rho ln rho): ln(rho) + I, eigenvalues floored at 1e-15."""
    return _grad_von_neumann_objective(*np.linalg.eigh(density_input(rho)))


def grad_renyi(rho, alpha: float) -> np.ndarray:
    """Gradient of S_alpha: alpha/(1 - alpha) * rho^(alpha-1) / tr(rho^alpha)."""
    _check_alpha(alpha, strict=True)
    return _grad_renyi(*np.linalg.eigh(density_input(rho)), alpha)


def entropy_objective(objective: str, alpha: float | None):
    """(S, grad f) on (values, U) for f = -S, the objective the projected
    gradient solver descends; `objective` is 'von-neumann' or 'renyi'.

    Descending f drives the iterates toward the entropy maximum. The Renyi
    entropy is taken on the spectrum floored at LOG_FLOOR.
    """
    if objective == "von-neumann":
        return _von_neumann, _grad_von_neumann_objective
    if objective == "renyi":
        _check_alpha(alpha, strict=True)

        def entropy(values):
            return _renyi(np.clip(values, LOG_FLOOR, None), alpha)

        def grad_of(values, u):
            return -_grad_renyi(values, u, alpha)

        return entropy, grad_of
    raise ValueError(f"unknown objective {objective!r}; use 'von-neumann' or 'renyi'")
