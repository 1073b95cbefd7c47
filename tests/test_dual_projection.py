"""The exact projection onto (marginals) intersect (PSD cone), the CLI's and NSPG's.

`project_intersection` solves the dual of this semidefinite least-squares
problem by semismooth Newton and returns its dual point H with X. The
reference is the KKT certificate `kkt_residuals`, which reads X, H and z
with no solver code; Dykstra's scheme, the paper's method, cross-checks it.
The instances are chosen so that the PSD constraint is active (the affine
projection of z has a negative eigenvalue).
"""

import re

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SolveOptions,
    greedy_minmatch,
    hermitize,
    interlace_decomposition,
    kron,
    marginal_residual,
    nspg_minimize,
    project_intersection,
    project_marginals,
    projections,
    random_density,
    rank_k_roots_of_unity,
    rank_sweep,
    solvers,
    variational_inequality_check,
)

from conftest import (
    kkt_residuals,
    load_matrix,
    random_density_pair,
    random_hermitian,
    reference_dykstra_loop,
)


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
def test_kkt_certificate_holds(name):
    cs, z = CASES[name]()
    assert np.linalg.eigvalsh(project_marginals(z, cs))[0] < 0   # PSD constraint active
    x, h, _gnorm, capped = project_intersection(z, cs)
    assert not capped
    assert np.array_equal(h, h.conj().T)
    assert max(kkt_residuals(z, x, h, cs)) <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_a_step_inside_the_marginal_set_fails_the_certificate(name):
    """x moved by 1e-9 along a direction with zero marginals is no projection."""
    cs, z = CASES[name]()
    x, h, _gnorm, _capped = project_intersection(z, cs)
    r = random_hermitian(np.random.default_rng(0), x.shape[0])
    d = project_marginals(x + r, cs) - x
    d *= 1e-9 / np.linalg.norm(d)
    assert max(kkt_residuals(z, x + d, h, cs)) > 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_dykstra_reaches_the_projection(name):
    cs, z = CASES[name]()
    reference, _history, converged = reference_dykstra_loop(z, cs, 2000, err_tol=1e-12)
    assert converged
    assert np.linalg.norm(project_intersection(z, cs)[0] - reference) <= 1e-11


@pytest.mark.parametrize("name", list(CASES))
def test_output_is_psd_and_meets_marginals(name):
    cs, z = CASES[name]()
    x, _h, _gnorm, _capped = project_intersection(z, cs)
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

    for name in ["_sweeps", "_project_psd", "_project_affine"]:
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


def near_product_start(pair_rng, h_rng):
    """2x3 marginals drawn from pair_rng and z = rho1 x rho2 + 1e-3 H, with H
    a unit Hermitian drawn from h_rng."""
    r1, r2 = random_density_pair(pair_rng, 2, 3)
    cs = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
    return cs, hermitize(kron(r1, r2) + 1e-3 * _unit(random_hermitian(h_rng, 6)))


def product_start():
    """2x2 marginals and z = rho1 x rho2, which is its own projection."""
    r1, r2 = random_density_pair(np.random.default_rng(5), 2, 2)
    return ConstraintSet((2, 2), [((1,), r1), ((2,), r2)]), kron(r1, r2)


AFFINE_STARTS = {
    "near-product": lambda: near_product_start(*map(np.random.default_rng, (2, 3))),
    "near-product-one-stream": lambda: near_product_start(*[np.random.default_rng(8)] * 2),
    "product": product_start,
}


@pytest.mark.parametrize("name", list(AFFINE_STARTS))
def test_affine_start_is_the_answer_when_the_affine_projection_is_psd(monkeypatch, name):
    cs, z = AFFINE_STARTS[name]()
    affine = project_marginals(z, cs)
    assert np.linalg.eigvalsh(affine)[0] > 0   # the PSD constraint is inactive
    monkeypatch.setattr(projections, "DUAL_MAX_ITERATIONS", 0)
    x, h, _gnorm, capped = project_intersection(z, cs)
    assert not capped
    assert np.linalg.norm(x - affine) <= 1e-14
    assert max(kkt_residuals(z, x, h, cs)) <= 1e-12


def test_variational_inequality():
    rng = np.random.default_rng(6)
    p1 = rng.exponential(size=2)
    p2 = rng.exponential(size=2)
    r1 = np.diag(np.sort(p1 / p1.sum())[::-1])
    r2 = np.diag(np.sort(p2 / p2.sum())[::-1])
    cs = ConstraintSet((2, 2), [((1,), r1), ((2,), r2)])
    z = random_hermitian(rng, 4)
    x, _h, _gnorm, capped = project_intersection(z, cs)
    assert not capped
    # feasible probes: every direct construction plus random mixtures
    base = [np.array(greedy_minmatch(r1, r2)[0]),
            np.array(interlace_decomposition(r1, r2)[0]),
            np.array(rank_k_roots_of_unity(r1, r2, 2)),
            np.array(rank_k_roots_of_unity(r1, r2, 3)),
            np.array(rank_sweep(r1, r2, 4)),
            kron(r1, r2)]
    samples = list(base)
    while len(samples) < 200:
        w = rng.dirichlet(np.ones(len(base)))
        samples.append(sum(wi * b for wi, b in zip(w, base)))
    assert variational_inequality_check(z, x, samples) <= 1e-8


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
