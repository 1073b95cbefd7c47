"""The exact projection onto (marginals) intersect (PSD cone), the CLI's and NSPG's.

`project_intersection` solves the dual of this semidefinite least-squares
problem by semismooth Newton and returns its dual point H with X. The
reference is the KKT certificate `kkt_residuals`, which reads X, H and z
with no solver code; Dykstra's scheme, the paper's method, cross-checks it.
The instances are chosen so that the PSD constraint is active (the affine
projection of z has a negative eigenvalue).
"""

import itertools
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

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
    partial_trace,
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
    subsystem_permutation,
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


LAYOUTS = {   # dims, kept sets, m
    "2x2": ((2, 2), [(1,), (2,)], 7),
    "3x4": ((3, 4), [(1,), (2,)], 24),
    "nested": ((2, 2, 2), [(1, 2), (2, 3), (2,)], 28),
    "all-pairs-5q": ((2,) * 5, list(itertools.combinations(range(1, 6), 2)), 106),
    "2x1x2": ((2, 1, 2), [(1, 2), (2, 3)], 7),
    "1x3": ((1, 3), [(1,), (2,)], 9),
}


def layout_case(name, seed=3):
    """The layout's constraint set on the marginals of a seeded state, and the state."""
    dims, keeps, _m = LAYOUTS[name]
    rho = random_density(dims, seed).matrix
    return ConstraintSet(dims, [(keep, partial_trace(rho, dims, keep)) for keep in keeps]), rho


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_dual_basis_is_orthonormal_and_b_matches_feasible_points(name):
    cs, rho = layout_case(name)
    basis, b = cs._dual_basis
    flat = basis.reshape(len(basis), -1)
    size = LAYOUTS[name][2]
    assert len(basis) == size
    np.testing.assert_allclose((flat.conj() @ flat.T).real, np.eye(size), atol=1e-12)
    np.testing.assert_allclose((flat.conj() @ rho.ravel()).real, b, atol=1e-14)


def _split(a, dims, i):
    """a as the n_i^2 x (n / n_i)^2 matrix of its operator-Schmidt split at
    subsystem i (0-based): rank 1 iff a is a product across that cut."""
    k = len(dims)
    return np.moveaxis(a.reshape(dims + dims), (i, k + i), (0, 1)).reshape(dims[i] ** 2, -1)


def _hermitian_units(d):
    """d^2 Hermitian d x d matrices spanning the Hermitian matrices over the reals."""
    for a, c in itertools.product(range(d), repeat=2):
        e = np.zeros((d, d), dtype=complex)
        if a <= c:
            e[a, c] = e[c, a] = 1.0
        else:
            e[a, c], e[c, a] = 1j, -1j
        yield e


@pytest.mark.parametrize("name", list(LAYOUTS))
def test_dual_basis_is_products_of_local_bases_over_supports(name):
    """Every element of B is a Kronecker product with I/sqrt(n_i) on each
    subsystem off its support S and a traceless factor on each one in S, S
    a subset of a kept set; each support S has prod_{i in S} (n_i^2 - 1)
    elements, so m is their sum; and every lifted unit E x I_{J^c} lies in
    span B."""
    dims, keeps, _m = LAYOUTS[name]
    basis, _b = layout_case(name)[0]._dual_basis
    supports = []
    for e in basis:
        support = []
        for i, d in enumerate(dims):
            split, unit = _split(e, dims, i), np.eye(d).ravel() / np.sqrt(d)
            if np.linalg.norm(split - np.outer(unit, unit @ split)) <= 1e-14:
                continue   # I/sqrt(n_i) times a factor of norm 1 on the rest
            support.append(i + 1)
            assert np.linalg.norm(unit @ split) <= 1e-14
            assert np.all(np.linalg.svd(split, compute_uv=False)[1:] <= 1e-14)
        supports.append(tuple(support))
    counts = {s: math.prod(dims[i - 1] ** 2 - 1 for i in s)
              for keep in keeps for size in range(len(keep) + 1)
              for s in itertools.combinations(keep, size)}
    assert len(basis) == sum(counts.values())
    assert Counter(supports) == {s: c for s, c in counts.items() if c}
    flat = basis.reshape(len(basis), -1)
    for keep in keeps:
        njc = math.prod(dims) // math.prod(dims[i - 1] for i in keep)
        p = subsystem_permutation(dims, keep)
        for e in _hermitian_units(math.prod(dims[i - 1] for i in keep)):
            lifted = (p.T @ np.kron(np.eye(njc), e) @ p).ravel()
            assert np.linalg.norm(lifted - ((flat.conj() @ lifted).real @ flat)) <= 1e-13


def test_building_the_all_pairs_frame_of_7_qubits_peaks_near_its_basis():
    """In a fresh process, building the all-pairs dual frame of 7 qubits, a
    55 MB basis, raises the peak resident set (`ru_maxrss`, KiB on Linux)
    by at most 1.5 times the basis's bytes: the build holds no lifted stack,
    Gram matrix or second copy of the basis."""
    code = ("import itertools, resource\n"
            "from qmarginals.projections import _dual_frame\n"
            "from qmarginals.tensorcore import as_dims\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "basis, _r = _dual_frame(as_dims((2,) * 7), "
            "tuple(itertools.combinations(range(1, 8), 2)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, basis.nbytes)\n")
    source = str(Path(projections.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    rise_kib, nbytes = map(int, out.split())
    assert rise_kib * 1024 <= 1.5 * nbytes


def test_sets_on_one_layout_share_one_read_only_basis():
    """The basis depends on the dims and the kept sets alone, so sets with
    other targets on the same layout share it (`projections._dual_frame`),
    read-only; other kept sets on the same dims, or the same ones in another
    order, get a basis of their own."""
    rng = np.random.default_rng(7)
    (r1, r2), (s1, s2) = (random_density_pair(rng, 2, 3) for _ in range(2))
    a = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
    basis = a._dual_basis[0]
    assert ConstraintSet((2, 3), [((1,), s1), ((2,), s2)])._dual_basis[0] is basis
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0, 0] = 1.0
    others = [ConstraintSet((2, 3), [((1,), r1)]),
              ConstraintSet((2, 3), [((2,), r2), ((1,), r1)])]
    assert [len(cs._dual_basis[0]) for cs in [a, *others]] == [12, 4, 12]
    assert all(cs._dual_basis[0] is not basis for cs in others)


def test_the_frame_cache_keeps_only_the_last_layout():
    """Once its sets are gone, at most one basis stays alive: the last
    layout's. A set on an earlier layout builds its basis again."""
    rng = np.random.default_rng(9)
    r1, r2 = random_density_pair(rng, 2, 3)
    forward, backward = [((1,), r1), ((2,), r2)], [((2,), r2), ((1,), r1)]
    projections._dual_frame.cache_clear()
    for targets in (forward, backward, forward):
        ConstraintSet((2, 3), targets)._dual_basis
    info = projections._dual_frame.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (0, 3, 1, 1)


def test_sets_on_one_layout_keep_their_own_b():
    """Each set's b = <B, X> comes from its own targets, for X the product of
    them, and its projections certify, on a layout whose basis is shared."""
    rng = np.random.default_rng(8)
    for _ in range(3):
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
        basis, b = cs._dual_basis
        np.testing.assert_allclose(
            (basis.reshape(len(basis), -1).conj() @ kron(r1, r2).ravel()).real, b, atol=1e-14)
        z = hermitize(kron(r1, r2) + 0.5 * _unit(random_hermitian(rng, 6)))
        x, h, _gnorm, capped = project_intersection(z, cs)
        assert not capped
        assert max(kkt_residuals(z, x, h, cs)) <= 1e-12


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
