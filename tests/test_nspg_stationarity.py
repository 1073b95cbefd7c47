"""NSPG's stationarity bracket: one projection per iteration, same iterates.

`nspg_minimize` projects rho - alpha g once per iteration and brackets the
stationarity measure e = ||P(rho - g) - rho||_F between min(1, 1/alpha) and
max(1, 1/alpha) times ||P(rho - alpha g) - rho||_F (Calamai & More 1987,
Lemma 2.2), projecting rho - g only when the bracket admits a stop.
`reference_nspg` (conftest) is the loop that projects rho - g every
iteration; the two must agree on everything but the residual history.
"""

import numpy as np
import pytest

from qmarginals import (ConstraintSet, SolveOptions, fileio, project_intersection,
                        project_marginals, projections, solvers)
from qmarginals.tensorcore import _haar_unitary, _random_probvec, hermitize

from conftest import FIXTURES, load_matrix, random_density_pair, random_hermitian, reference_nspg


def _state(rng, n):
    u = _haar_unitary(rng, n)
    return hermitize((u * _random_probvec(rng, n)) @ u.conj().T)


def benchmark_draw(draw):
    """The NSPG benchmark's instance `draw` at frame seed 0: rho1, rho2 and
    the start drawn in that order from one generator."""
    rng = np.random.default_rng(draw)
    r1, r2 = _state(rng, 2), _state(rng, 2)
    return ConstraintSet((2, 2), [((1,), r1), ((2,), r2)]), _state(rng, 4)


BENCHMARK_DRAWS = (0, 2, 10, 11)


def fixture_3x4():
    a, b = (np.diag(fileio.read_spectrum(FIXTURES / f"rank_3x4/spectrum_{s}.json")) for s in "ab")
    return ConstraintSet((3, 4), [((1,), a), ((2,), b)])


def tripartite():
    return ConstraintSet((2, 2, 2), [((1, 2), load_matrix("tripartite_222/rho_12.json")[0]),
                                     ((2, 3), load_matrix("tripartite_222/rho_23.json")[0])])


def rank_deficient_3x2():
    _, r2 = random_density_pair(np.random.default_rng(1), 2, 2)
    return ConstraintSet((3, 2), [((1,), np.diag([0.7, 0.3, 0.0])), ((2,), r2)])


def _draw_run(draw, objective="von-neumann", alpha=None, max_iterations=10000):
    cs, start = benchmark_draw(draw)
    return cs, dict(objective=objective, alpha=alpha, initial=start,
                    opts=SolveOptions(max_iterations=max_iterations))


RUNS = {
    **{f"draw-{d}": lambda d=d: _draw_run(d) for d in BENCHMARK_DRAWS},
    **{f"3x4-seed-{s}": lambda s=s: (fixture_3x4(), dict(opts=SolveOptions(seed=s)))
       for s in range(5)},
    "tripartite_222": lambda: (tripartite(), {}),
    "renyi-2": lambda: _draw_run(0, "renyi", 2.0, 1000),
    "renyi-0.5": lambda: _draw_run(0, "renyi", 0.5, 1000),
}

# A recorded bound and the exact e it bounds are equal in exact arithmetic
# where the projection keeps its face between t = alpha and t = 1 (then
# ||P(rho - t g) - rho|| is linear in t); each is a Frobenius norm of a
# difference of unit-scale matrices, one a projection certified to a dual
# gradient of 1e-15, so they may then differ by a few eps. Seen up to 1.6e-15.
ROUNDING = 1e-14


def _assert_matches_reference(cs, kwargs):
    new, ref = solvers.nspg_minimize(cs, **kwargs), reference_nspg(cs, **kwargs)
    assert new.solution.tobytes() == ref.solution.tobytes()
    assert (new.iterations, new.converged) == (ref.iterations, ref.converged)
    assert new.final_residual == ref.final_residual
    assert new.objective_history.tobytes() == ref.objective_history.tobytes()
    assert ref.converged
    assert len(new.residual_history) == new.iterations
    assert np.all(new.residual_history >= ref.residual_history - ROUNDING)


@pytest.mark.parametrize("name", list(RUNS))
def test_one_projection_loop_matches_the_reference(name):
    _assert_matches_reference(*RUNS[name]())


def test_rank_deficient_case_matches_the_reference(monkeypatch):
    """diag(0.7, 0.3, 0) and a 2x2 draw: the feasible set has no interior
    point. Three projections of either loop end uncapped at the line-search
    stop with dual gradient up to 1.2e-9 (Err 2.9e-9), which the KKT
    certificate at 1e-12 rejects; both loops make the same ones, so the
    comparison runs on the uncertified projection."""
    monkeypatch.setattr(solvers, "project_intersection", project_intersection)
    _assert_matches_reference(rank_deficient_3x2(), {})


def test_a_run_ended_by_the_iteration_limit_reports_the_exact_residual():
    """At the iteration limit the last entry is e itself, not a bound."""
    cs, kwargs = _draw_run(0, max_iterations=7)
    new, ref = solvers.nspg_minimize(cs, **kwargs), reference_nspg(cs, **kwargs)
    assert not new.converged and new.iterations == 7
    assert new.final_residual == ref.final_residual == new.residual_history[-1]


def test_a_warm_cache_of_dual_frames_gives_the_same_bytes():
    """NSPG on benchmark draw 0 from an empty cache of dual frames, then on a
    fresh set of the same draw from the cache that run left."""
    projections._dual_frame.cache_clear()
    reports = []
    for _ in range(2):
        cs, kwargs = _draw_run(0)
        reports.append(solvers.nspg_minimize(cs, **kwargs))
    cold, warm = reports
    assert projections._dual_frame.cache_info().hits >= 1
    for field in ("solution", "residual_history", "objective_history"):
        assert getattr(cold, field).tobytes() == getattr(warm, field).tobytes()
    assert (cold.iterations, cold.converged, cold.notes) == (warm.iterations, warm.converged,
                                                             warm.notes)


def _counts(monkeypatch, solve, run):
    """(projections, eigh calls) of one solve on a fresh constraint set and
    an empty cache of dual frames, as a process's first solve on its layout;
    building the dual basis takes no eigendecomposition."""
    cs, kwargs = run()
    projections._dual_frame.cache_clear()
    counts = [0, 0]
    project, eigh = solvers.project_intersection, np.linalg.eigh

    def counted_projection(*args):
        counts[0] += 1
        return project(*args)

    def counted_eigh(*args, **kw):
        counts[1] += 1
        return eigh(*args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "project_intersection", counted_projection)
        patch.setattr(np.linalg, "eigh", counted_eigh)
        solve(cs, **kwargs)
    return tuple(counts)


def test_projection_and_eigh_counts(monkeypatch):
    runs = [RUNS[f"draw-{d}"] for d in BENCHMARK_DRAWS] + [lambda: (fixture_3x4(), {})]
    new = [_counts(monkeypatch, solvers.nspg_minimize, run) for run in runs]
    ref = [_counts(monkeypatch, reference_nspg, run) for run in runs]
    assert [p for p, _ in ref] == [47, 17, 19, 21, 221]
    assert [p for p, _ in new] == [32, 11, 13, 14, 172]
    assert sum(e for _, e in ref[:4]) == 241 and ref[4][1] == 918
    assert sum(e for _, e in new[:4]) == 143 and new[4][1] == 238


def bipartite(rng, n1, n2):
    r1, r2 = random_density_pair(rng, n1, n2)
    return ConstraintSet((n1, n2), [((1,), r1), ((2,), r2)])


BRACKET_CASES = {
    "2x2": lambda rng: bipartite(rng, 2, 2),
    "2x3": lambda rng: bipartite(rng, 2, 3),
    "3x4": lambda rng: fixture_3x4(),
    "tripartite_222": lambda rng: tripartite(),
}
GRID = np.logspace(-3, 3, 25)


@pytest.mark.parametrize("name", list(BRACKET_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_stationarity_bracket(name, seed):
    """For x feasible, phi(t) = ||P(x - t g) - x||_F is nondecreasing and
    phi(t) / t nonincreasing, so phi(1) lies in [min(1, 1/t), max(1, 1/t)]
    phi(t). x is the projection of P_A(I/n) + H/2, H a random Hermitian
    matrix of unit norm (x is a boundary point when the PSD constraint is
    active), g a random Hermitian direction of norm 1e-3. The lemma needs
    exact projections, and with ||t g|| <= 1 every one on the grid certifies;
    at ||g|| = 1e-2 some beyond ||t g|| ~ 2 end at the Newton-step cap
    (2x2 and 2x3 at seed 0). Each phi is a norm of unit-scale matrices to a few
    eps, and the bracket scales it by up to max(1, 1/t): slack
    ROUNDING * max(1, 1/t); seen up to 2e-17 * max(1, 1/t)."""
    rng = np.random.default_rng(seed)
    cs = BRACKET_CASES[name](rng)
    n = cs.dims.total
    h, g = random_hermitian(rng, n), random_hermitian(rng, n)
    z = project_marginals(np.eye(n) / n, cs) + h / (2 * np.linalg.norm(h))
    x, _h, _gnorm, capped = project_intersection(z, cs)
    assert not capped
    g *= 1e-3 / np.linalg.norm(g)

    def phi(t):
        p, _h, _gnorm, capped = project_intersection(x - t * g, cs)
        assert not capped
        return float(np.linalg.norm(p - x))

    values = np.array([phi(t) for t in GRID])
    slack = ROUNDING * np.maximum(1.0, 1.0 / GRID)
    assert np.all(np.diff(values) >= -slack[1:])
    assert np.all(np.diff(values / GRID) <= slack[:-1])
    e = phi(1.0)
    assert np.all(np.minimum(1.0, 1.0 / GRID) * values <= e + slack)
    assert np.all(e <= np.maximum(1.0, 1.0 / GRID) * values + slack)
