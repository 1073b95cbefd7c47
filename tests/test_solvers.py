import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SolveOptions,
    dykstra_project,
    greedy_minmatch,
    hermitize,
    interlace_decomposition,
    kron,
    marginal_residual,
    nspg_minimize,
    numerical_rank,
    partial_trace,
    project_marginals,
    project_psd,
    project_spectrum,
    random_density,
    rank_k_roots_of_unity,
    rank_sweep,
    solve_feasible,
    solve_with_rank_cap,
    solve_with_spectrum,
    variational_inequality_check,
    von_neumann,
)
from qmarginals import solvers

from conftest import load_matrix, load_spectrum, random_density_pair, random_hermitian


def bipartite_cs(r1, r2):
    return ConstraintSet((r1.shape[0], r2.shape[0]), [((1,), r1), ((2,), r2)])


def solve_rank_3x4_from_greedy(opts):
    """Rank cap 2 from the greedy start on the real rank_3x4 marginals, which
    the solver sweeps in real arithmetic."""
    a, b = (np.diag(v / v.sum()) for v in (load_spectrum(f"rank_3x4/spectrum_{side}.json")
                                          for side in "ab"))
    greedy = greedy_minmatch(a, b)[0].matrix
    return solve_with_rank_cap(bipartite_cs(a, b), 2, opts, initial=greedy)


class TestSolveOptions:
    def test_defaults(self):
        o = SolveOptions()
        assert o.max_iterations == 1000 and o.tolerance == 1e-12
        assert (o.seed, o.restarts) == (0, 1)
        assert o.nspg_stationarity_tol == 1e-8

    @pytest.mark.parametrize("field,value", [
        ("tolerance", 0.0), ("tolerance", -1.0), ("tolerance", np.nan), ("tolerance", np.inf),
        ("nspg_stationarity_tol", 0.0), ("nspg_stationarity_tol", -1.0),
        ("nspg_stationarity_tol", np.nan), ("nspg_stationarity_tol", np.inf),
        ("max_iterations", 0), ("restarts", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            SolveOptions(**{field: value})


class TestSolveWithSpectrum:
    def test_feasible_start_converges_at_zero(self):
        rng = np.random.default_rng(0)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        x0 = kron(r1, r2)
        c = np.sort(np.linalg.eigvalsh(x0))[::-1]
        rep = solve_with_spectrum(cs, c, SolveOptions(), initial=x0)
        assert rep.converged and rep.iterations == 0
        assert len(rep.residual_history) == rep.iterations

    def test_bipartite_fixture_instance(self):
        r1, _ = load_matrix("bipartite_2x3/rho_a.json")
        r2, _ = load_matrix("bipartite_2x3/rho_b.json")
        c = load_spectrum("bipartite_2x3/target_spectrum.json")
        cs = bipartite_cs(r1, r2)
        rep = solve_with_spectrum(cs, c, SolveOptions(max_iterations=5000,
                                                      tolerance=1e-10, seed=0))
        assert rep.converged
        assert marginal_residual(rep.solution, cs) <= 1e-10
        final = np.sort(np.linalg.eigvalsh(rep.solution))[::-1]
        assert np.abs(final - c).max() < 1e-8

    def test_leg_properties(self):
        # affine leg restores marginals exactly; spectrum leg restores eigenvalues
        rng = np.random.default_rng(1)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        c = np.array([0.6, 0.3, 0.1, 0.0])
        x = random_hermitian(rng, 4)
        y = project_marginals(x, cs)
        assert marginal_residual(y, cs) < 1e-10
        z = project_spectrum(y, c)
        assert np.abs(np.sort(np.linalg.eigvalsh(z))[::-1] - c).max() < 1e-10

    def test_min_so_far_residual_sane(self):
        r1, _ = load_matrix("bipartite_2x3/rho_a.json")
        r2, _ = load_matrix("bipartite_2x3/rho_b.json")
        c = load_spectrum("bipartite_2x3/target_spectrum.json")
        cs = bipartite_cs(r1, r2)
        rep = solve_with_spectrum(cs, c, SolveOptions(max_iterations=400,
                                                      tolerance=1e-14, seed=1))
        hist = rep.residual_history
        assert len(hist) >= 100
        running = np.minimum.accumulate(hist)
        for t in range(50, len(hist), 50):
            assert running[t] <= running[t - 50] + 1e-15

    def test_rejects_bad_spectrum(self):
        rng = np.random.default_rng(2)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        with pytest.raises(ValueError):
            solve_with_spectrum(cs, np.array([0.9, 0.4, -0.2, -0.1]), SolveOptions())
        with pytest.raises(ValueError):
            solve_with_spectrum(cs, np.array([0.5, 0.5, 0.5, 0.5]), SolveOptions())

    def test_non_convergence_reported(self):
        # an isospectral-pair instance with an incompatible target spectrum
        r1 = np.diag([0.9, 0.1])
        r2 = np.diag([0.9, 0.1])
        cs = bipartite_cs(r1, r2)
        c = np.array([0.25, 0.25, 0.25, 0.25])  # maximally mixed is infeasible here
        rep = solve_with_spectrum(cs, c, SolveOptions(max_iterations=300, seed=0))
        assert not rep.converged
        assert rep.final_residual > 1e-6
        assert len(rep.residual_history) == rep.iterations == 300


class TestSolveWithRankCap:
    def test_cap_inactive_reduces_to_feasibility(self):
        rng = np.random.default_rng(3)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        rep = solve_with_rank_cap(cs, 6, SolveOptions(max_iterations=2000,
                                                      tolerance=1e-10, seed=0))
        assert rep.converged
        assert marginal_residual(rep.solution, cs) <= 1e-10

    def test_rank_two_from_greedy_start(self):
        r1 = np.diag([0.5951, 0.2341, 0.1708])
        r2 = np.diag([0.6124, 0.1926, 0.1654, 0.0296])
        cs = bipartite_cs(r1, r2)
        g, _ = greedy_minmatch(r1, r2)
        rep = solve_with_rank_cap(cs, 2, SolveOptions(max_iterations=20000,
                                                      tolerance=1e-12),
                                  initial=np.array(g))
        assert rep.converged
        assert numerical_rank(rep.solution) == 2
        assert von_neumann(project_psd(rep.solution)) == pytest.approx(0.189284, abs=2e-3)

    def test_stall_signal_on_hard_instance(self):
        # rank cap 2 on the 3x6 benchmark: the residual stalls well above
        # tolerance within a reduced budget, reported as non-convergence
        r1 = np.diag([0.8213, 0.1234, 0.0553])
        r2 = np.diag([0.5720, 0.3068, 0.1000, 0.0189, 0.0020, 0.0003])
        cs = bipartite_cs(r1, r2)
        start, _ = interlace_decomposition(r1, r2)
        rep = solve_with_rank_cap(cs, 2, SolveOptions(max_iterations=2000,
                                                      tolerance=1e-12),
                                  initial=np.array(start))
        assert not rep.converged
        assert rep.final_residual > 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_start_certifies_within_2000_sweeps(self, seed):
        # the greedy start's zero pattern holds a rank-2 saddle at Err 0.013142;
        # without the seeded nudge the sweeps leave it only on rounding noise,
        # after 2,862 sweeps in all
        rep = solve_rank_3x4_from_greedy(SolveOptions(max_iterations=2000, seed=seed))
        assert rep.converged and rep.iterations <= 2000
        assert von_neumann(project_psd(rep.solution)) == pytest.approx(0.189284, abs=1e-6)

    def test_start_in_the_target_set_comes_back_unchanged(self):
        # the greedy state has rank 3 and meets its marginals: no nudge, no sweep
        a, b = (np.diag(v / v.sum()) for v in (load_spectrum(f"rank_3x4/spectrum_{side}.json")
                                              for side in "ab"))
        greedy = greedy_minmatch(a, b)[0].matrix
        rep = solve_with_rank_cap(bipartite_cs(a, b), 3, SolveOptions(), initial=greedy)
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(rep.solution, greedy)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_nudge_is_seeded_hermitian_and_of_fixed_relative_size(self, dtype):
        x = hermitize(random_hermitian(np.random.default_rng(9), 6))
        x = np.ascontiguousarray(x.real) if dtype == np.float64 else x
        y = solvers._nudged(x, 3)
        assert y.dtype == dtype
        assert np.array_equal(y, y.conj().T)
        assert np.array_equal(y, solvers._nudged(x, 3))
        assert not np.array_equal(y, solvers._nudged(x, 4))
        assert np.linalg.norm(y - x) == pytest.approx(solvers.RANK_NUDGE * np.linalg.norm(x),
                                                      rel=1e-6)

    def test_iterate_is_psd_with_rank_bound(self):
        rng = np.random.default_rng(4)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        rep = solve_with_rank_cap(cs, 3, SolveOptions(max_iterations=3000,
                                                      tolerance=1e-10, seed=2))
        values = np.linalg.eigvalsh(rep.solution)
        assert values[0] >= -1e-12
        assert numerical_rank(rep.solution) <= 3

    def test_start_meeting_marginals_but_not_psd_is_iterated(self):
        # eigenvalues 0.55, 0.55, -0.05, -0.05: the start meets the marginals
        # and has two positive eigenvalues, but it is not PSD
        cs = bipartite_cs(np.eye(2) / 2, np.eye(2) / 2)
        x0 = np.eye(4) / 4 + 0.3 * np.diag([1.0, -1.0, -1.0, 1.0])
        rep = solve_with_rank_cap(cs, 2, SolveOptions(), initial=x0)
        assert rep.converged and rep.iterations > 0
        assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-12
        assert numerical_rank(rep.solution) <= 2
        assert marginal_residual(rep.solution, cs) < 1e-12


def test_residual_needs_no_consistent_marginals():
    # verify reads the residual of a state against marginals no state may have
    half = np.eye(2) / 2
    cs = bipartite_cs(half, 0.9 * half)
    assert marginal_residual(np.eye(4) / 4, cs) == pytest.approx(0.1 * np.linalg.norm(half))


class TestSolveFeasible:
    def test_tripartite_fixture(self):
        rho23, _ = load_matrix("tripartite_222/rho_23.json")
        rho12, _ = load_matrix("tripartite_222/rho_12.json")
        cs = ConstraintSet((2, 2, 2), [((2, 3), rho23), ((1, 2), rho12)])
        rep = solve_feasible(cs, SolveOptions(max_iterations=5000,
                                              tolerance=1e-10, seed=0))
        assert rep.converged
        assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-12
        assert marginal_residual(rep.solution, cs) <= 1e-10

    def test_pure_state_marginals_certify(self):
        # the marginals of a pure state leave a thin feasible set: plain
        # alternation does not reach 1e-10 here within 5,000 sweeps
        rng = np.random.default_rng(100)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        cs = ConstraintSet((2, 3), [(keep, partial_trace(rho, (2, 3), keep))
                                    for keep in [(1,), (2,)]])
        rep = solve_feasible(cs, SolveOptions(max_iterations=1000, tolerance=1e-10, seed=0))
        assert rep.converged
        assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-12
        assert marginal_residual(rep.solution, cs) <= 1e-10

    def test_start_with_psd_affine_projection_takes_one_sweep(self):
        rng = np.random.default_rng(8)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        h = random_hermitian(rng, 6)
        x0 = hermitize(kron(r1, r2) + 0.001 * h / np.linalg.norm(h))  # P_A(x0) stays PSD
        rep = solve_feasible(cs, SolveOptions(), initial=x0)
        assert rep.converged and rep.iterations == 1
        assert np.array_equal(rep.solution, project_psd(project_marginals(x0, cs)))

    def test_every_psd_step_takes_an_exactly_hermitian_matrix(self, monkeypatch):
        rho23, _ = load_matrix("tripartite_222/rho_23.json")
        rho12, _ = load_matrix("tripartite_222/rho_12.json")
        cs = ConstraintSet((2, 2, 2), [((2, 3), rho23), ((1, 2), rho12)])
        exact = []

        def spy(z):
            exact.append(np.array_equal(z, z.conj().T))
            return project_psd(z)

        monkeypatch.setattr(solvers, "_project_psd", spy)
        rep = solve_feasible(cs, SolveOptions(tolerance=1e-12, seed=1))
        assert rep.converged
        assert len(exact) == rep.iterations > 1 and all(exact)

    def test_singlet_triangle_is_reported_infeasible(self):
        # consistent marginals with no state: no three qubits share a singlet
        # on every pair; the Douglas-Rachford iterate grows linearly, while
        # the returned point stays finite and PSD up to rounding
        v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        singlet = np.outer(v, v).astype(complex)
        cs = ConstraintSet((2, 2, 2), [(pair, singlet) for pair in [(1, 2), (1, 3), (2, 3)]])
        rep = solve_feasible(cs, SolveOptions(max_iterations=2000, tolerance=1e-10))
        assert not rep.converged and rep.iterations == 2000
        assert np.isfinite(rep.solution).all()
        assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-10
        assert rep.final_residual == pytest.approx(np.sqrt(3), abs=1e-6)

    def test_inconsistent_rejected(self):
        r1 = np.array(random_density((2,), 1))
        r2 = 0.9 * np.array(random_density((2,), 2))
        cs = ConstraintSet((2, 2), [((1,), r1), ((2,), r2)])
        with pytest.raises(ValueError, match="inconsistent"):
            solve_feasible(cs, SolveOptions())

    @pytest.mark.parametrize("solve", [
        lambda cs, start: solve_feasible(cs, SolveOptions(), initial=start),
        lambda cs, start: nspg_minimize(cs, opts=SolveOptions(), initial=start),
    ])
    def test_non_finite_initial_point_rejected(self, solve):
        r1, r2 = random_density_pair(np.random.default_rng(0), 2, 2)
        with pytest.raises(ValueError, match="initial point"):
            solve(bipartite_cs(r1, r2), np.full((4, 4), np.nan))


class TestDykstra:
    def test_fixed_point(self):
        rng = np.random.default_rng(5)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        z = kron(r1, r2)
        rep = dykstra_project(z, cs, SolveOptions(max_iterations=50, tolerance=1e-12))
        assert rep.converged and rep.iterations <= 2
        assert np.abs(rep.solution - z).max() < 1e-12

    def test_feasible_psd_start_comes_back_unchanged(self):
        r1, r2 = (hermitize(r) for r in random_density_pair(np.random.default_rng(5), 2, 2))
        z = kron(r1, r2)
        rep = dykstra_project(z, bipartite_cs(r1, r2), SolveOptions(tolerance=1e-12))
        assert rep.converged and rep.iterations == 0
        assert np.array_equal(rep.solution, z)

    def test_restarts_never_start_from_a_random_point(self):
        rng = np.random.default_rng(7)
        cs = bipartite_cs(*random_density_pair(rng, 2, 3))
        z = random_hermitian(rng, 6)
        one, three = (dykstra_project(z, cs, SolveOptions(max_iterations=3, seed=4,
                                                          restarts=restarts))
                      for restarts in (1, 3))
        assert not one.converged and one.iterations == 3
        for field in ["solution", "iterations", "residual_history", "converged",
                      "final_residual", "seed_used", "notes"]:
            assert np.array_equal(getattr(three, field), getattr(one, field)), field
        assert three.seed_used == 4

    def test_wrong_order_names_the_initial_point(self):
        r1, r2 = random_density_pair(np.random.default_rng(5), 2, 2)
        with pytest.raises(ValueError, match="initial point order 3 does not match dims"):
            dykstra_project(np.eye(3) / 3, bipartite_cs(r1, r2))

    def test_variational_inequality(self):
        rng = np.random.default_rng(6)
        p1 = rng.exponential(size=2)
        p2 = rng.exponential(size=2)
        r1 = np.diag(np.sort(p1 / p1.sum())[::-1])
        r2 = np.diag(np.sort(p2 / p2.sum())[::-1])
        cs = bipartite_cs(r1, r2)
        z = random_hermitian(rng, 4)
        rep = dykstra_project(z, cs, SolveOptions(max_iterations=30000, tolerance=1e-12))
        assert rep.converged
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
        assert variational_inequality_check(z, rep.solution, samples) <= 1e-8

    def test_modes_both_land_in_intersection(self):
        rng = np.random.default_rng(7)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        z = random_hermitian(rng, 4)
        opts = SolveOptions(max_iterations=30000, tolerance=1e-11)
        a = dykstra_project(z, cs, opts)
        b = solve_feasible(cs, opts, initial=z)  # Douglas-Rachford from z
        for rep in (a, b):
            assert rep.converged
            assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-12
            assert marginal_residual(rep.solution, cs) <= 1e-11
        # the two limits may differ; record the gap rather than equate them
        gap = np.linalg.norm(a.solution - b.solution)
        assert np.isfinite(gap)

    def test_affine_only_pair_equals_single_shot(self):
        rng = np.random.default_rng(8)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        h = random_hermitian(rng, 6)
        h /= np.linalg.norm(h)
        z = kron(r1, r2) + 0.001 * h  # affine projection stays PSD
        rep = dykstra_project(z, cs, SolveOptions(max_iterations=100, tolerance=1e-12))
        assert rep.converged
        assert np.abs(rep.solution - project_marginals(z, cs)).max() < 1e-10


class TestNspg:
    def test_window_max_nonincreasing_and_bound(self):
        r1 = np.diag([0.5951, 0.2341, 0.1708])
        r2 = np.diag([0.6124, 0.1926, 0.1654, 0.0296])
        cs = bipartite_cs(r1, r2)
        rep = nspg_minimize(cs, "von-neumann",
                            opts=SolveOptions(max_iterations=200, seed=0))
        obj = rep.objective_history
        m = 10
        for t in range(1, len(obj)):
            w_prev = max(obj[max(0, t - m):t])
            w_cur = max(obj[max(0, t + 1 - m):t + 1])
            assert w_cur <= w_prev + 1e-12
        assert obj[-1] <= obj[0] + 1e-9  # final objective below the start
        s = von_neumann(project_psd(rep.solution))
        assert s <= von_neumann(r1) + von_neumann(r2) + 1e-8

    def test_singleton_feasible_set(self):
        # rank-one first marginal pins the feasible set to the product state
        r1 = np.diag([1.0, 0.0])
        r2 = np.array(random_density((2,), 9))
        cs = bipartite_cs(r1, r2)
        target = kron(r1, r2)
        rep = nspg_minimize(cs, "von-neumann",
                            opts=SolveOptions(max_iterations=1, seed=0),
                            initial=target)
        assert rep.converged
        assert np.abs(rep.solution - target).max() < 1e-10
        assert von_neumann(project_psd(rep.solution)) == pytest.approx(
            von_neumann(r2), abs=1e-10)
        # from a random start the interior-empty intersection caps the inner
        # projection accuracy; the iterates still close in on the point
        rep2 = nspg_minimize(cs, "von-neumann",
                             opts=SolveOptions(max_iterations=3, seed=0))
        assert np.abs(rep2.solution - target).max() < 2e-2
        assert von_neumann(project_psd(rep2.solution)) == pytest.approx(
            von_neumann(r2), abs=2e-2)

    def test_isospectral_marginals_stationarity_recorded(self):
        values = np.array([0.8, 0.2])
        r1, r2 = np.diag(values), np.diag(values)
        cs = bipartite_cs(r1, r2)
        rep = nspg_minimize(cs, "von-neumann",
                            opts=SolveOptions(max_iterations=300, seed=1))
        # the global entropy minimum over these marginals is 0 (a pure state
        # exists); the run is accepted on its stationarity record alone
        assert len(rep.residual_history) == rep.iterations
        achieved = von_neumann(project_psd(rep.solution))
        assert 0.0 <= achieved <= von_neumann(r1) + von_neumann(r2) + 1e-8

    def test_renyi_objective_runs(self):
        rng = np.random.default_rng(10)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        rep = nspg_minimize(cs, "renyi", alpha=2.0,
                            opts=SolveOptions(max_iterations=150, seed=0))
        assert marginal_residual(rep.solution, cs) < 1e-6
        assert np.isfinite(rep.objective_history).all()

    def test_unknown_objective_rejected(self):
        rng = np.random.default_rng(11)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        with pytest.raises(ValueError):
            nspg_minimize(cs, "tsallis", opts=SolveOptions())
        with pytest.raises(ValueError):
            nspg_minimize(cs, "renyi", alpha=1.0, opts=SolveOptions())


class TestDeterminismAndRestarts:
    def test_bit_identical_reports(self):
        rng = np.random.default_rng(12)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        c = np.array([0.5, 0.2, 0.15, 0.1, 0.05, 0.0])
        a = solve_with_spectrum(cs, c, SolveOptions(max_iterations=200, seed=9))
        b = solve_with_spectrum(cs, c, SolveOptions(max_iterations=200, seed=9))
        assert np.array_equal(a.solution, b.solution)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert (a.iterations, a.converged, a.seed_used) == (b.iterations, b.converged, b.seed_used)

    @pytest.mark.parametrize("solve", [
        lambda cs, z: solve_feasible(cs, SolveOptions(max_iterations=40, tolerance=1e-14,
                                                      seed=2, restarts=2)),
        lambda cs, z: solve_with_spectrum(cs, [0.4, 0.3, 0.2, 0.1],
                                          SolveOptions(max_iterations=40, seed=2, restarts=2)),
        lambda cs, z: solve_with_rank_cap(cs, 2, SolveOptions(max_iterations=40, seed=2,
                                                              restarts=2)),
        lambda cs, z: solve_rank_3x4_from_greedy(SolveOptions(max_iterations=300)),
        lambda cs, z: dykstra_project(z, cs, SolveOptions(max_iterations=200)),
        lambda cs, z: nspg_minimize(cs, "von-neumann", opts=SolveOptions(max_iterations=60,
                                                                         seed=2)),
        lambda cs, z: nspg_minimize(cs, "renyi", 2.0, SolveOptions(max_iterations=60, seed=2)),
    ], ids=["feasible", "spectrum", "rank-cap", "rank-cap-greedy", "dykstra", "nspg-von-neumann",
            "nspg-renyi"])
    def test_every_solver_is_bit_reproducible(self, solve):
        rng = np.random.default_rng(14)
        cs = bipartite_cs(*random_density_pair(rng, 2, 2))
        z = random_hermitian(rng, 4)
        a, b = solve(cs, z), solve(cs, z)
        for name in ("solution", "residual_history", "objective_history"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert ((a.iterations, a.converged, a.final_residual, a.seed_used, a.notes)
                == (b.iterations, b.converged, b.final_residual, b.seed_used, b.notes))

    def test_restarts_pick_first_converged_seed(self):
        r1, _ = load_matrix("bipartite_2x3/rho_a.json")
        r2, _ = load_matrix("bipartite_2x3/rho_b.json")
        c = load_spectrum("bipartite_2x3/target_spectrum.json")
        cs = bipartite_cs(r1, r2)
        rep = solve_with_spectrum(cs, c, SolveOptions(max_iterations=2000,
                                                      tolerance=1e-10, seed=3,
                                                      restarts=3))
        assert rep.converged
        assert rep.seed_used == 3

    def test_report_invariants(self):
        rng = np.random.default_rng(13)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)
        rep = solve_feasible(cs, SolveOptions(max_iterations=500, tolerance=1e-10, seed=4))
        assert len(rep.residual_history) == rep.iterations
        if rep.converged:
            assert rep.final_residual <= 1e-10
        assert rep.wall_time >= 0.0
