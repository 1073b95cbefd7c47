"""The exact projection onto (marginals) intersect (PSD cone), the CLI's and NSPG's.

`project_intersection` solves the dual of this semidefinite least-squares
problem by semismooth Newton; `dykstra_project` with increments converges to
the same Frobenius projection and is the reference here. The instances are
chosen so that the PSD constraint is active (the affine projection of z has
a negative eigenvalue) and Dykstra reaches Err < 1e-12 within its budget.
"""

import re

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SolveOptions,
    dykstra_project,
    hermitize,
    kron,
    marginal_residual,
    nspg_minimize,
    project_intersection,
    project_marginals,
    projections,
    random_density,
    solvers,
)

from conftest import load_matrix, random_density_pair, random_hermitian


def _unit(h):
    return h / np.linalg.norm(h)


def bipartite_case(n1, n2, seed=1):
    rng = np.random.default_rng(seed)
    r1, r2 = random_density_pair(rng, n1, n2)
    cs = ConstraintSet((n1, n2), [((1,), r1), ((2,), r2)])
    return cs, hermitize(kron(r1, r2) + 0.5 * _unit(random_hermitian(rng, n1 * n2)))


def tripartite_case():
    rho_12, _ = load_matrix("tripartite_222/rho_12.json")
    rho_23, _ = load_matrix("tripartite_222/rho_23.json")
    cs = ConstraintSet((2, 2, 2), [((1, 2), rho_12), ((2, 3), rho_23)])
    h = random_hermitian(np.random.default_rng(1), 8)
    return cs, hermitize(project_marginals(np.eye(8) / 8, cs) + 0.5 * _unit(h))


def rank_deficient_case():
    # every feasible state lives on the face span{|0>, |1>} x C^2, which has
    # no interior point; z is perturbed within that face
    rng = np.random.default_rng(1)
    r1 = np.diag([0.7, 0.3, 0.0])
    _, r2 = random_density_pair(rng, 2, 2)
    cs = ConstraintSet((3, 2), [((1,), r1), ((2,), r2)])
    face = kron(np.diag([1.0, 1.0, 0.0]), np.eye(2))
    return cs, hermitize(kron(r1, r2) + 0.5 * _unit(face @ random_hermitian(rng, 6) @ face))


CASES = {
    "2x2": lambda: bipartite_case(2, 2),
    "2x3": lambda: bipartite_case(2, 3),
    "3x4": lambda: bipartite_case(3, 4),
    "tripartite_222": tripartite_case,
    "rank-deficient": rank_deficient_case,
}


@pytest.mark.parametrize("name", list(CASES))
def test_matches_dykstra_limit(name):
    cs, z = CASES[name]()
    assert np.linalg.eigvalsh(project_marginals(z, cs))[0] < 0   # PSD constraint active
    reference = dykstra_project(z, cs, SolveOptions(max_iterations=5000, tolerance=1e-12))
    assert reference.converged
    x, _gnorm, capped = project_intersection(z, cs)
    assert not capped
    assert np.linalg.norm(x - reference.solution) <= 1e-8


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_psd_and_meets_marginals(name):
    cs, z = CASES[name]()
    x, _gnorm, _capped = project_intersection(z, cs)
    assert np.array_equal(x, x.conj().T)
    assert np.linalg.eigvalsh(x)[0] >= -1e-15
    assert marginal_residual(x, cs) <= 1e-12


def test_rejects_a_wrong_order_and_inconsistent_marginals():
    cs, _z = bipartite_case(2, 3)
    with pytest.raises(ValueError, match="does not match dims"):
        project_intersection(np.eye(4), cs)
    r1, r2 = (np.array(random_density((2,), seed)) for seed in (1, 2))
    inconsistent = ConstraintSet((2, 2), [((1,), r1), ((2,), 0.9 * r2)])
    with pytest.raises(ValueError, match="inconsistent"):
        project_intersection(np.eye(4) / 4, inconsistent)


@pytest.mark.parametrize("dims,size", [((2, 2), 7), ((3, 4), 24)])
def test_dual_basis_is_orthonormal_and_b_matches_feasible_points(dims, size):
    r1, r2 = random_density_pair(np.random.default_rng(3), *dims)
    cs = ConstraintSet(dims, [((1,), r1), ((2,), r2)])
    basis, b = cs._dual_basis
    flat = basis.reshape(len(basis), -1)
    assert len(basis) == size
    np.testing.assert_allclose((flat.conj() @ flat.T).real, np.eye(size), atol=1e-12)
    np.testing.assert_allclose((flat.conj() @ kron(r1, r2).ravel()).real, b, atol=1e-14)


def small_nspg_case():
    r1, r2 = random_density_pair(np.random.default_rng(5), 2, 3)
    return ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])


def test_nspg_is_bit_reproducible():
    cs = small_nspg_case()
    a, b = (nspg_minimize(cs, opts=SolveOptions(max_iterations=300, seed=5)) for _ in range(2))
    assert a.converged
    assert np.array_equal(a.solution, b.solution)
    assert np.array_equal(a.residual_history, b.residual_history)
    assert np.array_equal(a.objective_history, b.objective_history)
    assert (a.iterations, a.notes) == (b.iterations, b.notes)


def test_nspg_rejects_inconsistent_marginals():
    r1 = np.array(random_density((2,), 1))
    r2 = 0.9 * np.array(random_density((2,), 2))
    cs = ConstraintSet((2, 2), [((1,), r1), ((2,), r2)])
    with pytest.raises(ValueError, match="inconsistent"):
        nspg_minimize(cs, opts=SolveOptions())


def test_nspg_projects_without_alternation(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("NSPG must not alternate projections")

    for name in ["_alternate", "_project_psd", "_project_affine"]:
        monkeypatch.setattr(solvers, name, forbidden)
    rep = nspg_minimize(small_nspg_case(), opts=SolveOptions(max_iterations=300, seed=5))
    assert rep.converged


def test_nspg_notes_projections_ended_by_the_cap(monkeypatch):
    cs = small_nspg_case()
    opts = SolveOptions(max_iterations=300, seed=5)
    assert nspg_minimize(cs, opts=opts).notes == ""
    monkeypatch.setattr(projections, "DUAL_MAX_ITERATIONS", 1)
    notes = nspg_minimize(cs, opts=SolveOptions(max_iterations=3, seed=5)).notes
    assert "inner projection stopped at its 1-step cap" in notes


def test_affine_start_is_the_answer_when_the_affine_projection_is_psd(monkeypatch):
    r1, r2 = random_density_pair(np.random.default_rng(2), 2, 3)
    cs = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
    z = hermitize(kron(r1, r2) + 1e-3 * _unit(random_hermitian(np.random.default_rng(3), 6)))
    affine = project_marginals(z, cs)
    assert np.linalg.eigvalsh(affine)[0] > 0   # the PSD constraint is inactive
    monkeypatch.setattr(projections, "DUAL_MAX_ITERATIONS", 0)
    x = project_intersection(z, cs)[0]
    assert np.linalg.norm(x - affine) <= 1e-14


def test_nspg_certifies_near_singular_marginals():
    r1, r2 = random_density_pair(np.random.default_rng(0), 2, 2)   # eigenvalue 3.9e-4
    cs = ConstraintSet((2, 2), [((1,), r1), ((2,), r2)])
    rep = nspg_minimize(cs, opts=SolveOptions(max_iterations=600, seed=5))
    assert rep.converged
    assert np.linalg.norm(rep.solution - kron(r1, r2)) <= 1e-8
    capped = re.search(r"cap in (\d+) of", rep.notes)
    assert capped is None or int(capped.group(1)) <= 1


def test_nspg_certifies_a_3x3_draw():
    r1, r2 = random_density_pair(np.random.default_rng(12), 3, 3)
    cs = ConstraintSet((3, 3), [((1,), r1), ((2,), r2)])
    assert nspg_minimize(cs, opts=SolveOptions(max_iterations=300, seed=2)).converged


def test_nspg_unit_step_reuses_the_stationarity_projection(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return project_intersection(*args, **kwargs)

    monkeypatch.setattr(solvers, "project_intersection", counted)
    nspg_minimize(small_nspg_case(), opts=SolveOptions(max_iterations=1, seed=5))
    assert len(calls) == 2   # the start and rho - grad f; the unit step reuses the latter
