from pathlib import Path

import numpy as np
import pytest

from qmarginals import ConstraintSet, fileio, partial_trace, random_density
from qmarginals.projections import _add_lifted
from qmarginals.tensorcore import as_dims

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def random_hermitian(rng, n, scale=1.0):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (z + z.conj().T) / 2


def random_density_pair(rng, n1, n2):
    """Two random full-rank density matrices as plain arrays."""
    out = []
    for n in (n1, n2):
        p = rng.exponential(size=n)
        p /= p.sum()
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q = np.linalg.qr(z)[0]
        out.append((q * p) @ q.conj().T)
    return out[0], out[1]


def nested_family():
    """Kept sets (1,2), (2,3) and (2,) of a seeded three-qubit state: a lattice
    node, {2}, that is itself a kept set with two further owners."""
    dims = (2, 2, 2)
    rho = random_density(dims, 21).matrix
    return ConstraintSet(dims, [(keep, partial_trace(rho, dims, keep))
                                for keep in [(1, 2), (2, 3), (2,)]])


def subsystem_permutation(dims, keep):
    """Permutation P with P (a_1 x ... x a_k) P^T = (x_{i not in J} a_i) x (x_{i in J} a_i).

    Factors of the complement come first, then the kept factors, each group
    in ascending label order. A test-only reference for the affine projection.
    """
    dims = as_dims(dims)
    j = dims.validate_keep(keep)
    order = [a for a in range(dims.k) if a + 1 not in j] + [i - 1 for i in j]
    # row `new` of P is the basis vector of the entry that the axis reorder moves to `new`
    return np.eye(dims.total)[np.arange(dims.total).reshape(dims.dims).transpose(order).ravel()]


def marginal_correction(z, sigma, dims, keep):
    """M_J(Z, sigma) = (tr_{J^c}(Z) - sigma) x I/n_{J^c}, factors in label order.

    Z - M_J(Z, sigma) is the least-squares point whose marginal on `keep`
    equals sigma. A test-only reference for the affine projection.
    """
    dims = as_dims(dims)
    j = dims.validate_keep(keep)
    out = np.zeros((dims.total, dims.total), dtype=complex)
    _add_lifted(out, 1.0, partial_trace(z, dims, j) - sigma, dims, j)
    return out


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def load_matrix(name):
    return fileio.read_matrix(FIXTURES / name)


def load_spectrum(name):
    return fileio.read_spectrum(FIXTURES / name)
