"""Kernels against the implementations they replaced, kept here as
test-only references: the shared entropy kernels, the sweep loop in its
alternation and Douglas-Rachford forms, the vectorized eigenvector phase
fix of the direct constructions, the matrix writers over nested lists, the
phase-free spectral projections, and the sweeps that trace each iterate
once per constraint, in real arithmetic when the instance is real. The
last tests pin the trace kernel that every partial trace and every sweep
shares: one gather of precomputed indices and one segment sum.

Agreement is exact: `==` on values, `np.array_equal` on matrices, and equal
bytes where the sign of a zero matters. The spectral projections round
differently from the full phase-fixed reconstruction they replaced, so they
agree within 1e-13 of the input's norm instead. The real sweeps and the
Douglas-Rachford loop that reuses the reductions of x round differently from
their complex, trace-everything references, and agree within 1e-12 (scaled
by ||z||_F where the Douglas-Rachford iterate z grows).
"""

import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SolveOptions,
    fileio,
    greedy_minmatch,
    hermitize,
    marginal_residual,
    project_marginals,
    partial_trace,
    project_psd,
    project_spectrum,
    random_density,
    random_unitary,
    solve_feasible,
    solve_with_rank_cap,
    solvers,
)
from qmarginals.constructive import _phase_fixed_eig
from qmarginals.entropy import LOG_FLOOR, entropy_objective
from qmarginals.projections import _deficits, _project_affine, _project_psd
from qmarginals.solvers import _project_rank, _sweeps
from qmarginals.tensorcore import SystemDims, _gather

from conftest import (
    load_matrix,
    load_spectrum,
    nested_family,
    random_density_pair,
    random_hermitian,
)


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


def spectra(seed):
    """A random spectrum and the eigendecomposition of a state with it (as
    NSPG takes it, from np.linalg.eigh): full rank, rank deficient, or with
    tiny negative eigenvalues as at a boundary."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    p = rng.exponential(size=n)
    rank = int(rng.integers(1, n + 1))
    p[rank:] = 0.0
    if seed % 3 == 2:
        p[rank:] = -1e-17 * rng.random(n - rank)
    p /= p.sum()
    u = random_unitary(n, seed)
    return [np.sort(p)[::-1], np.linalg.eigh(hermitize((u * p) @ u.conj().T))]


OBJECTIVES = [("von-neumann", None), ("renyi", 0.5), ("renyi", 2.0), ("renyi", 3.7)]


@pytest.mark.parametrize("kind,alpha", OBJECTIVES)
def test_entropy_objective_matches_reference_exactly(kind, alpha):
    entropy, grad_of = entropy_objective(kind, alpha)
    f_ref, grad_ref = reference_objective_and_gradient(kind, alpha)
    for seed in range(40):
        exact, (values, u) = spectra(seed)
        for v in (exact, values):
            assert -entropy(v) == f_ref(v)
        assert np.array_equal(grad_of(values, u), grad_ref(values, u))


def instances():
    """Bipartite pairs, then overlapping families whose lattice has nodes
    below the kept sets, each with a random Hermitian start."""
    for seed, (n1, n2) in enumerate([(2, 2), (2, 3), (3, 3), (2, 4)]):
        rng = np.random.default_rng(seed)
        r1, r2 = random_density_pair(rng, n1, n2)
        cs = ConstraintSet((n1, n2), [((1,), r1), ((2,), r2)])
        yield cs, hermitize(random_hermitian(rng, n1 * n2))
    rng = np.random.default_rng(4)
    for cs in [tripartite_fixture(), twofold_extension(), all_pairs(5, 3), nested_family()]:
        yield cs, hermitize(random_hermitian(rng, cs.dims.total))


def reference_alternation(z, cs, second, max_sweeps, err_tol):
    """X -> second(P_A(X)) from z until Err < err_tol, through the public
    marginal projection and `marginal_residual`. Returns (x, Err history,
    converged)."""
    x, history = z, []
    for _ in range(max_sweeps):
        x = second(project_marginals(x, cs))
        history.append(marginal_residual(x, cs))
        if history[-1] < err_tol:
            return x, history, True
    return x, history, False


def test_alternate_matches_reference_loop_exactly():
    """The alternation sweeps of `solve rank`, at cap 2."""
    def second(y):
        return _project_rank(y, 2)

    for cs, z in instances():
        x, history, converged = _sweeps(z, cs, second, 400, err_tol=1e-10, reflect=False)
        x_ref, history_ref, converged_ref = reference_alternation(z, cs, second, 400, 1e-10)
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
    return values, vectors


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
            values, vectors = _phase_fixed_eig(h)
            ref_values, ref_vectors = reference_hermitian_eig(h)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(vectors, ref_vectors)


def reference_write_matrix(path, m, dims):
    """The former writer: Python's pure-Python encoder at indent=1."""
    payload = {"dims": list(dims),
               "entries": [[float(z.real), float(z.imag)] for z in np.asarray(m).ravel()]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def reference_pair_per_line_writer(path, m, dims):
    """The former one-pair-per-line writer: json.dumps over nested lists, then
    a line break spliced in after every pair."""
    m = np.asarray(m, dtype=complex)
    pairs = json.dumps(np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist())
    Path(path).write_text(f'{{"dims": {json.dumps(list(dims))}, "entries": [\n '
                          + pairs[1:-1].replace("], [", "],\n [") + "\n]}\n")


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


@pytest.mark.parametrize("seed", range(4))
def test_matrix_writer_matches_the_pair_per_line_reference_byte_for_byte(tmp_path, seed):
    for m in file_matrices(seed) + [file_matrices(seed)[2].T]:   # and a non-contiguous one
        dims = (m.shape[0],)
        fileio.write_matrix(tmp_path / "new.json", m, dims)
        reference_pair_per_line_writer(tmp_path / "old.json", m, dims)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def reference_project_psd(z):
    """The former PSD projection: full reconstruction from the phase-fixed eigenbasis."""
    values, u = _phase_fixed_eig(z)
    return hermitize((u * np.clip(values, 0.0, None)) @ u.conj().T)


def reference_project_spectrum(p, c):
    """The former spectrum projection, c paired with the descending eigenvalues."""
    values, u = _phase_fixed_eig(p)
    return hermitize((u * np.sort(c)[::-1]) @ u.conj().T)


def reference_project_rank(y, r):
    """The former rank step of the rank-cap solver."""
    values, u = _phase_fixed_eig(y)
    s = np.clip(values, 0.0, None)
    s[r:] = 0.0
    return hermitize((u * s) @ u.conj().T)


NEGATIVE_SHARES = {"none": 0.0, "few": 0.1, "half": 0.5, "most": 0.9, "all": 1.0}


def signed_hermitian(n, share, seed):
    """Hermitian of order n with round(share * n) negative eigenvalues; a share
    strictly between 0 and 1 leaves at least one of either sign when n > 1."""
    k = round(share * n)
    if 0 < share < 1:
        k = min(max(k, 1), n - 1)
    magnitudes = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    u = random_unitary(n, seed)
    return hermitize((u * np.where(np.arange(n) < k, -magnitudes, magnitudes)) @ u.conj().T)


def assert_projections_match_references(z, c):
    n = z.shape[0]
    for r in sorted({1, max(1, n // 3), n}):
        pairs = [(project_psd(z), reference_project_psd(z)),
                 (project_spectrum(z, c), reference_project_spectrum(z, c)),
                 (_project_rank(z, r), reference_project_rank(z, r))]
        for x, x_ref in pairs:
            assert np.array_equal(x, x.conj().T)
            assert np.linalg.norm(x - x_ref) <= 1e-13 * np.linalg.norm(z)


@pytest.mark.parametrize("share", NEGATIVE_SHARES)
@pytest.mark.parametrize("n", [1, 2, 4, 12, 48, 128])
def test_spectral_projections_match_full_reconstruction(n, share):
    c = np.random.default_rng(n).exponential(size=n)
    c /= c.sum()
    for seed in range(3):
        assert_projections_match_references(signed_hermitian(n, NEGATIVE_SHARES[share], seed), c)


@pytest.mark.parametrize("n", [1, 2, 4, 12, 48])
def test_spectral_projections_pair_ties_and_tiny_eigenvalues_alike(n):
    """Exact ties must pair with targets in the reference's stable order."""
    c = np.arange(n, 0, -1.0)
    cycled = np.diag(np.resize([0.5, 1e-10, 0.0, -0.25, 0.5, -1e-10], n)).astype(complex)
    for z in eig_inputs(n, n) + [cycled]:
        assert_projections_match_references(z, c)


@pytest.mark.parametrize("n", [1, 2, 4, 12, 48, 128])
def test_psd_projection_fixes_psd_input_exactly(n):
    for seed in range(3):
        z = signed_hermitian(n, NEGATIVE_SHARES["none"], seed)
        assert np.array_equal(project_psd(z), z)


@pytest.mark.parametrize("share", NEGATIVE_SHARES)
def test_psd_projection_of_lower_triangle_input_needs_hermitize(share):
    """project_psd reads both triangles: a matrix held in its lower triangle is
    completed by hermitize, and the result projects that Hermitian part."""
    for n in [2, 12]:
        z = signed_hermitian(n, NEGATIVE_SHARES[share], n)
        lower = np.tril(z)
        x = project_psd(hermitize(lower))
        assert np.array_equal(x, x.conj().T)
        assert np.linalg.norm(x - reference_project_psd(hermitize(lower))) <= 1e-13 * np.linalg.norm(z)


def tripartite_fixture():
    return ConstraintSet((2, 2, 2), [((1, 2), load_matrix("tripartite_222/rho_12.json")[0]),
                                     ((2, 3), load_matrix("tripartite_222/rho_23.json")[0])])


def five_qubit_chain():
    dims = (2,) * 5
    rho = random_density(dims, 7).matrix
    return ConstraintSet(dims, [((i, i + 1), partial_trace(rho, dims, (i, i + 1)))
                                for i in range(1, 5)])


@pytest.mark.parametrize("make_cs", [tripartite_fixture, five_qubit_chain],
                         ids=["tripartite_222", "chain-5q"])
def test_feasible_solver_takes_the_reference_sweeps(monkeypatch, make_cs):
    cs = make_cs()
    rep = solve_feasible(cs)
    monkeypatch.setattr(solvers, "_project_psd", reference_project_psd)
    ref = solve_feasible(cs)
    assert ref.converged and rep.converged
    assert rep.iterations == ref.iterations
    assert np.abs(rep.solution - ref.solution).max() <= 1e-12


def reference_douglas_rachford(z, cs, max_sweeps, *, err_tol, iterates=None):
    """The former Douglas-Rachford loop: P_A(z) and Err(x) each trace their own
    matrix, so a sweep takes two partial traces per constraint. Appends
    (x, ||z||_F) of every sweep to `iterates` when given."""
    a = z = project_marginals(z, cs)
    history = []
    while True:
        x = project_psd(2 * a - z)
        if iterates is not None:
            iterates.append((x, np.linalg.norm(z)))
        history.append(marginal_residual(x, cs))
        if history[-1] < err_tol or len(history) == max_sweeps:
            return x, history, history[-1] < err_tol
        z = z + x - a
        a = project_marginals(z, cs)


def reference_iterates(z, cs, second, sweeps):
    """Every iterate of the alternation in complex arithmetic through the
    public marginal projection, which traces each lattice node from x."""
    x, iterates = z.astype(complex), []
    for _ in range(sweeps):
        x = second(project_marginals(x, cs))
        iterates.append(x)
    return iterates


def recording(step, iterates):
    """`step`, appending each of its results to `iterates`."""
    def recorded(*args):
        iterates.append(step(*args))
        return iterates[-1]
    return recorded


def rank_3x4_greedy():
    """The real rank_3x4 marginals and their greedy min-matching state."""
    a, b = (np.diag(v / v.sum()) for v in (load_spectrum(f"rank_3x4/spectrum_{side}.json")
                                          for side in "ab"))
    return ConstraintSet((3, 4), [((1,), a), ((2,), b)]), greedy_minmatch(a, b)[0].matrix


def real_tripartite():
    """Pair marginals (1,2), (2,3) of a real three-qubit state."""
    g = np.random.default_rng(5).normal(size=(8, 8))
    rho = g @ g.T / np.trace(g @ g.T)
    dims = (2, 2, 2)
    return ConstraintSet(dims, [(keep, partial_trace(rho, dims, keep))
                                for keep in [(1, 2), (2, 3)]])


def real_cases():
    cs34, greedy = rank_3x4_greedy()
    return {"rank-cap-greedy": (cs34, greedy.real, lambda y: _project_rank(y, 2))}


@pytest.mark.parametrize("case", ["rank-cap-greedy"])
def test_real_sweeps_follow_the_complex_loop(case):
    cs, z, second = real_cases()[case]
    assert z.dtype == np.float64
    iterates = []
    _sweeps(z, cs, recording(second, iterates), 200, err_tol=0.0, reflect=False)
    reference = reference_iterates(z, cs, second, 200)
    assert len(iterates) == len(reference) == 200
    assert all(x.dtype == np.float64 for x in iterates)
    assert all(x.dtype == np.complex128 for x in reference)
    for x, x_ref in zip(iterates, reference):
        assert np.abs(x - x_ref).max() <= 1e-12


def with_imaginary_entry(m):
    m = np.array(m, dtype=complex)
    m[0, 1] += 1e-9j
    return m


def sweep_cases():
    """(solver call, name of the step it sweeps through, whether the sweeps should be real)."""
    cs34, greedy = rank_3x4_greedy()
    cs_tri = real_tripartite()
    a, b = (c.target for c in cs34)
    cs34_complex = ConstraintSet((3, 4), [((1,), a), ((2,), with_imaginary_entry(b))])
    opts = SolveOptions(max_iterations=30)

    def rank(cs, start):
        return solve_with_rank_cap(cs, 2, opts, initial=start)

    return {
        "rank-cap-greedy": (lambda: rank(cs34, greedy), "_project_rank", True),
        "rank-cap-imaginary-start": (lambda: rank(cs34, with_imaginary_entry(greedy)),
                                     "_project_rank", False),
        "rank-cap-imaginary-target": (lambda: rank(cs34_complex, greedy), "_project_rank", False),
        "feasible-real-start": (lambda: solve_feasible(cs_tri, opts, initial=np.eye(8) / 8),
                                "_project_psd", True),
        "feasible-random-start": (lambda: solve_feasible(cs_tri, opts), "_project_psd", False),
    }


@pytest.mark.parametrize("case", list(sweep_cases()))
def test_real_instances_sweep_in_float64_and_return_complex(monkeypatch, case):
    solve, step, real = sweep_cases()[case]
    seen = []
    original = getattr(solvers, step)

    def spy(y, *args):
        seen.append(y.dtype)
        return original(y, *args)

    monkeypatch.setattr(solvers, step, spy)
    rep = solve()
    assert rep.iterations == len(seen) > 0
    assert set(seen) == {np.dtype(np.float64 if real else np.complex128)}
    assert rep.solution.dtype == np.complex128


def singlet_triangle():
    v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    singlet = np.outer(v, v)
    return ConstraintSet((2, 2, 2), [(pair, singlet) for pair in [(1, 2), (1, 3), (2, 3)]])


@pytest.mark.parametrize("make_cs,growth", [(tripartite_fixture, 1.0), (singlet_triangle, 50.0)],
                         ids=["tripartite_222", "singlet-triangle"])
def test_douglas_rachford_follows_the_former_loop(make_cs, growth):
    """On the singlet triangle, which no state has, z grows linearly."""
    cs = make_cs()
    z = random_density(cs.dims, 0).matrix
    iterates, reference = [], []
    _sweeps(z, cs, recording(_project_psd, iterates), 200, err_tol=0.0, reflect=True)
    reference_douglas_rachford(z, cs, 200, err_tol=0.0, iterates=reference)
    assert len(iterates) == len(reference) == 200
    for x, (x_ref, z_norm) in zip(iterates, reference):
        assert np.linalg.norm(x - x_ref) <= 1e-12 * max(1.0, z_norm)
    assert reference[-1][1] >= growth * reference[0][1]


def twofold_extension():
    ext = load_matrix("twofold_extension_222/rho_12_13.json")[0]
    return ConstraintSet((2, 2, 2), [((1, 2), ext), ((1, 3), ext)])


def all_pairs(k, seed):
    """All pair marginals of a seeded mixture of a pure and a random k-qubit state."""
    dims = (2,) * k
    psi = random_unitary(2 ** k, seed)[:, 0]
    rho = 0.3 * np.outer(psi, psi.conj()) + 0.7 * random_density(dims, seed).matrix
    return ConstraintSet(dims, [(pair, partial_trace(rho, dims, pair))
                                for pair in itertools.combinations(range(1, k + 1), 2)])


@pytest.mark.parametrize("make_cs", [tripartite_fixture, twofold_extension]
                         + [lambda seed=seed: all_pairs(6, seed) for seed in range(3)],
                         ids=["tripartite_222", "twofold_extension_222"]
                         + [f"all-pairs-6q-{seed}" for seed in range(3)])
def test_feasible_solver_takes_the_former_loops_sweep_count(monkeypatch, make_cs):
    cs = make_cs()
    rep = solve_feasible(cs, SolveOptions(max_iterations=500))

    def former_loop(z, cs, second, max_sweeps, *, err_tol, reflect):
        assert second is solvers._project_psd and reflect
        return reference_douglas_rachford(z, cs, max_sweeps, err_tol=err_tol)

    monkeypatch.setattr(solvers, "_sweeps", former_loop)
    ref = solve_feasible(cs, SolveOptions(max_iterations=500))
    assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
    assert np.abs(rep.solution - ref.solution).max() <= 1e-10


def test_partial_trace_of_a_strided_view_equals_its_contiguous_copy():
    rng = np.random.default_rng(12)
    dims = (2, 3, 2)
    view = random_hermitian(rng, 12).T
    assert not view.flags.c_contiguous
    for r in range(1, 4):
        for keep in itertools.combinations(range(1, 4), r):
            assert np.array_equal(partial_trace(view, dims, keep),
                                  partial_trace(np.ascontiguousarray(view), dims, keep))


def test_real_iterate_gives_real_deficits_and_affine_step():
    cs, greedy = rank_3x4_greedy()
    x = np.ascontiguousarray(greedy.real)
    deficits = _deficits(x, cs._nodes)
    assert deficits.dtype == np.float64
    assert _project_affine(x, cs, deficits).dtype == np.float64


def test_gathered_entries_scale_with_the_index_set():
    """All pairs of 8 qubits: the table gathers n n_S entries per node, not n^2,
    and building one node's indices allocates a small multiple of them."""
    cs = all_pairs(8, 0)
    n = cs.dims.total
    nodes = [labels for _w, labels, _t in cs.correction_terms if labels]
    assert len(nodes) == 28 + 8
    assert cs._nodes.gather.size == sum(n * cs.dims.subdim(s) for s in nodes) == 32768
    assert cs._nodes.lift.size == cs._nodes.gather.size
    tracemalloc.start()
    index, starts = _gather.__wrapped__(SystemDims((2,) * 8), (3, 7))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert index.size == n * 4 and starts.size == 16
    # 32 kB at most, where one n^2 index temporary alone would take 512 kB
    assert peak <= 4 * index.nbytes


def test_overflowing_trace_gives_inf_without_a_warning():
    """The targets of the NaN-discrepancy test: their entries are finite, and
    the trace down to subsystem 1 overflows."""
    big = np.eye(6, dtype=complex) / 6
    for b in range(3):
        big[b, 3 + b] = big[3 + b, b] = 6e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = partial_trace(big, (2, 3), (1,))
    assert np.isinf(reduced[0, 1]) and np.isinf(reduced[1, 0])
    assert np.isfinite(np.diag(reduced)).all()
