"""Kernels against the implementations they replaced, kept here as
test-only references: the shared entropy kernels, the single alternation
loop, the vectorized eigenvector phase fix and the one-pair-per-line matrix
writer.

Agreement is exact: `==` on values, `np.array_equal` on matrices, and equal
bytes where the sign of a zero matters.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    EigDecomposition,
    fileio,
    hermitian_eig,
    hermitize,
    marginal_residual,
    project_marginals,
    project_psd,
    random_unitary,
)
from qmarginals.entropy import LOG_FLOOR
from qmarginals.solvers import _alternate, _entropy_objective

from conftest import random_density_pair, random_hermitian


def reference_objective_and_gradient(kind, alpha):
    """The projected gradient solver's former private copy of the formulas."""
    if kind == "von-neumann":
        def f(values):
            v = np.clip(values, 0.0, None)
            v = v[v > 0.0]
            return float((v * np.log(v)).sum()) if v.size else 0.0

        def grad(values, u):
            g = np.log(np.clip(values, LOG_FLOOR, None)) + 1.0
            return hermitize((u * g) @ u.conj().T)

        return f, grad

    def f(values):
        v = np.clip(values, LOG_FLOOR, None)
        return float(np.log(np.sum(v ** alpha)) / (alpha - 1.0))

    def grad(values, u):
        v = np.clip(values, LOG_FLOOR, None)
        scale = alpha / ((alpha - 1.0) * float(np.sum(v ** alpha)))
        return hermitize(scale * (u * (v ** (alpha - 1.0))) @ u.conj().T)

    return f, grad


def reference_dykstra_loop(z, cs, mode, max_sweeps, err_tol=0.0, change_tol=0.0):
    """The former Dykstra loop, kept apart from the sweep solvers' loop."""
    x = z
    increment = np.zeros_like(z)
    history = []
    converged = False
    with_increments = mode == "with-increments"
    track_err = err_tol > 0.0
    for _ in range(max_sweeps):
        x_prev = x
        y = project_marginals(x, cs)
        if with_increments:
            t = y + increment
            x = project_psd(t)
            increment = t - x
        else:
            x = project_psd(y)
        if track_err:
            err = marginal_residual(x, cs)
            history.append(err)
            if err < err_tol:
                converged = True
                break
        if change_tol and np.linalg.norm(x - x_prev) <= change_tol:
            converged = True
            break
    return x, history, converged


def spectra(seed):
    """A random spectrum and the eigendecomposition of a state with it: full
    rank, rank deficient, or with tiny negative eigenvalues as at a boundary."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    p = rng.exponential(size=n)
    rank = int(rng.integers(1, n + 1))
    p[rank:] = 0.0
    if seed % 3 == 2:
        p[rank:] = -1e-17 * rng.random(n - rank)
    p /= p.sum()
    u = random_unitary(n, seed)
    return [np.sort(p)[::-1], hermitian_eig(hermitize((u * p) @ u.conj().T))]


OBJECTIVES = [("von-neumann", None), ("renyi", 0.5), ("renyi", 2.0), ("renyi", 3.7)]


@pytest.mark.parametrize("kind,alpha", OBJECTIVES)
def test_entropy_objective_matches_reference_exactly(kind, alpha):
    entropy, grad_of = _entropy_objective(kind, alpha)
    f_ref, grad_ref = reference_objective_and_gradient(kind, alpha)
    for seed in range(40):
        exact, (values, u) = spectra(seed)
        for v in (exact, values):
            assert -entropy(v) == f_ref(v)
        assert np.array_equal(grad_of(values, u), grad_ref(values, u))


def instances():
    for seed, (n1, n2) in enumerate([(2, 2), (2, 3), (3, 3), (2, 4)]):
        rng = np.random.default_rng(seed)
        r1, r2 = random_density_pair(rng, n1, n2)
        cs = ConstraintSet((n1, n2), [((1,), r1), ((2,), r2)])
        yield cs, hermitize(random_hermitian(rng, n1 * n2))


@pytest.mark.parametrize("mode", ["with-increments", "plain-alternation"])
@pytest.mark.parametrize("tols", [dict(err_tol=1e-10)])
def test_alternate_matches_reference_loop_exactly(mode, tols):
    for cs, z in instances():
        x, history, converged = _alternate(z, cs, project_psd, 400,
                                           increments=mode == "with-increments", **tols)
        x_ref, history_ref, converged_ref = reference_dykstra_loop(z, cs, mode, 400, **tols)
        assert np.array_equal(x, x_ref)
        assert history == history_ref
        assert converged == converged_ref


def reference_hermitian_eig(h):
    """The former eigendecomposition, with its per-column phase-fix loop."""
    m = hermitize(np.asarray(h, dtype=complex))
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    anchors = np.argmax(np.abs(vectors), axis=0)
    for col, row in enumerate(anchors):
        pivot = vectors[row, col]
        if abs(pivot) > 0:
            vectors[:, col] *= pivot.conjugate() / abs(pivot)
    return EigDecomposition(values, vectors)


def eig_inputs(n, seed):
    """Hermitian matrices of order n: generic, with repeated eigenvalues, and diagonal."""
    rng = np.random.default_rng(seed)
    u = random_unitary(n, seed)
    generic = random_hermitian(rng, n)
    repeated = np.repeat(rng.exponential(size=(n + 2) // 3), 3)[:n]
    degenerate = (u * repeated) @ u.conj().T
    diagonal = np.diag(np.repeat([0.5, 0.0, -0.25], n)[:n])
    return [hermitize(generic), hermitize(degenerate), hermitize(diagonal)]


@pytest.mark.parametrize("n", [1, 2, 4, 12, 48])
def test_hermitian_eig_matches_per_column_phase_fix_exactly(n):
    for seed in range(20):
        for h in eig_inputs(n, seed):
            values, vectors = hermitian_eig(h)
            ref_values, ref_vectors = reference_hermitian_eig(h)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(vectors, ref_vectors)


def reference_write_matrix(path, m, dims):
    """The former writer: Python's pure-Python encoder at indent=1."""
    payload = {"dims": list(dims),
               "entries": [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def file_matrices(seed):
    """Hermitian matrices carrying -0.0, the smallest subnormal, 1e300 and random entries."""
    rng = np.random.default_rng(seed)
    special = np.array([[-0.0, 5e-324 + 1e300j, 0.0],
                        [5e-324 - 1e300j, 1e300, -0.0 - 5e-324j],
                        [0.0, -0.0 + 5e-324j, 5e-324]])
    return [hermitize(special), hermitize(random_hermitian(rng, 6, scale=1e-3)),
            hermitize(random_hermitian(rng, 12))]


@pytest.mark.parametrize("seed", range(4))
def test_matrix_files_round_trip_bit_exact_in_either_layout(tmp_path, seed):
    for m in file_matrices(seed):
        dims = (m.shape[0],)
        fileio.write_matrix(tmp_path / "new.json", m, dims)
        reference_write_matrix(tmp_path / "old.json", m, dims)
        new, new_dims = fileio.read_matrix(tmp_path / "new.json")
        old, old_dims = fileio.read_matrix(tmp_path / "old.json")
        assert new_dims == old_dims
        assert new.tobytes() == old.tobytes() == m.tobytes()
        lines = (tmp_path / "new.json").read_text().splitlines()
        assert len(lines) == m.size + 2   # one [re, im] pair per line
