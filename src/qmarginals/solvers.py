"""Iterative schemes: Douglas-Rachford, alternating projections, Dykstra, and
projected gradient.

`solve_feasible` runs Douglas-Rachford between the marginal set and the PSD
cone. The spectrum and rank solvers alternate: on those nonconvex sets
Douglas-Rachford takes more sweeps. Every solver runs from a seeded random
start (or an explicit initial matrix), records one marginal residual per
sweep, and returns a SolveReport. Identical seeds and options reproduce
bit-identical reports. Non-convergence within the iteration limit is
reported, not raised: for a prescribed spectrum it may simply mean the
instance is infeasible.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from . import projections as _projections
from .entropy import entropy_objective
from .projections import (
    ConstraintSet,
    project_intersection,
    _SweepPlan,
    _deficits,
    _project_affine,
    _project_psd,
    _project_spectrum,
)
from .tensorcore import (
    as_spectrum,
    hermitize,
    random_density,
    _as_square,
    _sym,
)


@dataclass(frozen=True)
class SolveOptions:
    """Iteration limits, tolerances and seeding shared by the solvers.

    The sweep solvers read every field but `nspg_stationarity_tol`.
    `dykstra_project` ignores `restarts` as well (it starts from z alone).
    `nspg_minimize` ignores `tolerance` and `restarts`.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-12
    seed: int = 0
    restarts: int = 1
    nspg_stationarity_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("tolerance", "nspg_stationarity_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass
class SolveReport:
    solution: np.ndarray
    iterations: int
    residual_history: np.ndarray
    converged: bool
    wall_time: float
    final_residual: float
    seed_used: int | None = None
    objective_history: np.ndarray | None = None
    notes: str = ""


def marginal_residual(x, cs: ConstraintSet) -> float:
    """Err(X) = sum_i ||tr_{J_i^c}(X) - sigma_i||_F."""
    plan = _SweepPlan(cs, np.complex128, lattice=False)
    return _err(_deficits(_as_square(x, "x", cs.dims), plan), plan)


def _err(deficits, plan: _SweepPlan) -> float:
    """Err from the marginal deficits: the sum of the constraints' Frobenius norms."""
    return float(sum(np.linalg.norm(deficits[keep]) for keep in plan.keys))


def _initial_point(cs: ConstraintSet, seed: int, initial) -> np.ndarray:
    if initial is not None:
        return hermitize(_as_square(initial, "initial point", cs.dims))
    return np.array(random_density(cs.dims, seed).matrix)


def _is_psd(x) -> bool:
    return bool(np.linalg.eigvalsh(x)[0] >= -1e-12)


def _real_if_exact(z, cs: ConstraintSet) -> np.ndarray:
    """z in float64 when z and every target have an exactly zero imaginary
    part, else z. Every sweep step maps real matrices to real ones."""
    if np.any(z.imag) or any(np.any(c.target.imag) for c in cs.constraints):
        return z
    return np.ascontiguousarray(z.real)


def _alternate(z, cs, second, max_sweeps, *, err_tol, increments=False):
    """Sweep X -> second(P_A(X)) from z until Err < err_tol, in z's dtype.

    Each sweep reduces X to the constraints once: Err(X) and the next P_A(X)
    both read those reductions, on a `_SweepPlan` built once. Returns (x,
    Err history, converged). With `increments` the second leg carries
    Dykstra's correction term (the affine leg needs none).
    """
    plan = _SweepPlan(cs, z.dtype)
    x, deficits = z, _deficits(z, plan)
    increment = np.zeros_like(z)
    history = []
    for _ in range(max_sweeps):
        y = _project_affine(x, plan, deficits)
        if increments:
            t = y + increment
            x = second(t)
            increment = t - x
        else:
            x = second(y)
        deficits = _deficits(x, plan)
        history.append(_err(deficits, plan))
        if history[-1] < err_tol:
            return x, history, True
    return x, history, False


def _douglas_rachford(z, cs, max_sweeps, *, err_tol):
    """Douglas-Rachford between the marginal set A and the PSD cone from z, in z's dtype.

    Starts at z_0 = a_0 = P_A(z); each sweep takes x = P_psd(2 a - z), records
    Err(x), then steps z <- z + x - a and a <- P_A(z). The first sweep is
    therefore exactly one alternation sweep. As P_A is affine and a = P_A(z),
    P_A(z + x - a) = P_A(x): the next a comes from the reductions of x that
    Err(x) took, so a sweep traces only x. Every iterate is exactly
    Hermitian, as the PSD projection requires. Returns (x, Err history,
    converged); x is PSD.
    """
    plan = _SweepPlan(cs, z.dtype)
    a = z = _project_affine(z, plan, _deficits(z, plan))
    history = []
    while True:
        x = _project_psd(2 * a - z)
        deficits = _deficits(x, plan)
        history.append(_err(deficits, plan))
        if history[-1] < err_tol or len(history) == max_sweeps:
            return x, history, history[-1] < err_tol
        z = z + x - a
        a = _project_affine(x, plan, deficits)


def _sweep_solver(cs, opts, initial, loop, entry_ok, nudge=False) -> SolveReport:
    """Run `loop(x, max_sweeps, err_tol)` from each restart until Err < tolerance.

    Restarts after the first start from seeded random points. A start that
    meets the marginals and `entry_ok` is returned unchanged; any other start
    is `_nudged` with the restart's seed first when `nudge` is set.
    """
    opts = opts or SolveOptions()
    cs.correction_terms  # validates consistency up front
    t0 = time.perf_counter()
    reports = []
    for seed in range(opts.seed, opts.seed + opts.restarts):
        x = _initial_point(cs, seed, initial if seed == opts.seed else None)
        err0 = marginal_residual(x, cs)
        if err0 < opts.tolerance and entry_ok(x):
            history, converged = [], True
        else:
            x = _real_if_exact(x, cs)
            if nudge:
                x = _nudged(x, seed)
            x, history, converged = loop(x, opts.max_iterations, opts.tolerance)
        reports.append(SolveReport(
            solution=x.astype(complex, copy=False), iterations=len(history),
            residual_history=np.asarray(history), converged=converged,
            wall_time=0.0, final_residual=history[-1] if history else err0, seed_used=seed,
        ))
        if converged:
            break
    best = reports[-1]  # a converged report ends the restarts
    if not best.converged:
        best = min(reports, key=lambda r: r.final_residual)
    best.wall_time = time.perf_counter() - t0
    return best


RANK_NUDGE = 1e-6   # relative size of the rank solver's start perturbation


def _nudged(x, seed: int) -> np.ndarray:
    """x + RANK_NUDGE ||x||_F H / ||H||_F, with H Hermitian from the generator
    seeded by `seed`; H is real symmetric when x is float64."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(x.shape)
    h = _sym(h + 1j * rng.standard_normal(x.shape) if np.iscomplexobj(x) else h)
    return x + (RANK_NUDGE * np.linalg.norm(x) / np.linalg.norm(h)) * h


def solve_with_spectrum(cs: ConstraintSet, c, opts: SolveOptions | None = None,
                        initial=None) -> SolveReport:
    """Alternating projections between the marginal set and a fixed spectrum.

    Iterates X -> Phi_spectrum(Phi_marginals(X)); on convergence the solution
    carries the prescribed eigenvalues exactly (final projection) and meets
    every marginal within the tolerance.
    """
    c = as_spectrum(c, probability=True)
    if len(c) != cs.dims.total:
        raise ValueError(f"spectrum length {len(c)} does not match total dim {cs.dims.total}")

    def entry_ok(x):
        return bool(np.max(np.abs(np.linalg.eigvalsh(x)[::-1] - c)) <= 1e-8)

    def loop(x, sweeps, tol):
        return _alternate(x, cs, lambda y: _project_spectrum(y, c), sweeps, err_tol=tol)

    return _sweep_solver(cs, opts, initial, loop, entry_ok)


def solve_with_rank_cap(cs: ConstraintSet, r: int, opts: SolveOptions | None = None,
                        initial=None) -> SolveReport:
    """Alternating projections between the marginal set and rank <= r.

    The rank step keeps the top-r eigenvalues clipped at zero, without
    renormalizing the trace (the next affine projection restores it).
    Convergence is not guaranteed; a non-converged report is a signal, not a
    proof, that no rank-r solution exists. Each start that is not already a
    solution is first `_nudged` by RANK_NUDGE = 1e-6 of its Frobenius norm:
    both projections keep a sparse start's zero pattern, whose best rank-r
    point can be a saddle. From the greedy start of the rank_3x4 fixture at
    r = 2 that saddle holds the sweeps at Err 0.013142 until rounding noise
    has grown (2,862 sweeps); nudged, seeds 0-30 certify in 1,582-1,835.
    """
    if r < 1:
        raise ValueError("rank cap must be >= 1")

    def entry_ok(x):
        values = np.linalg.eigvalsh(x)   # ascending; all but the top r must vanish
        return bool(values[0] >= -1e-12 and np.all(values[:-r] <= 1e-12))

    def loop(x, sweeps, tol):
        return _alternate(x, cs, lambda y: _project_rank(y, r), sweeps, err_tol=tol)

    return _sweep_solver(cs, opts, initial, loop, entry_ok, nudge=True)


def _project_rank(y, r: int) -> np.ndarray:
    """Hermitian y cut to its top r eigenvalues (stable descending order), clipped at 0."""
    values, u = np.linalg.eigh(y)   # U f(Lambda) U* needs no phase fix
    top = np.argsort(-values, kind="stable")[:r]
    v = u[:, top]
    return _sym((v * np.maximum(values[top], 0.0)) @ v.conj().T)


def solve_feasible(cs: ConstraintSet, opts: SolveOptions | None = None,
                   initial=None) -> SolveReport:
    """Douglas-Rachford between the marginal set and the PSD cone.

    Finds some state with the prescribed marginals, starting from a seeded
    random density matrix or `initial`. The iteration (Lions & Mercier 1979)
    starts from the affine projection of that start, so its first sweep is
    one alternation sweep, and makes the same two projections per sweep as
    alternation in far fewer sweeps (`_douglas_rachford`). The solution is
    the PSD point of the last sweep, so it is PSD by construction. When the
    marginals admit no state, the iterate z grows linearly and the report is
    not converged; the solution stays finite, and PSD up to rounding that
    grows with z (smallest eigenvalue -1.9e-12 after 5,000 sweeps when each
    pair of three qubits is to hold the singlet).
    """
    def loop(x, sweeps, tol):
        return _douglas_rachford(x, cs, sweeps, err_tol=tol)

    return _sweep_solver(cs, opts, initial, loop, _is_psd)


def dykstra_project(z, cs: ConstraintSet, opts: SolveOptions | None = None) -> SolveReport:
    """Project z onto (marginal set) intersect (PSD cone) by Dykstra's scheme.

    The PSD leg carries Dykstra's correction term (the affine leg needs
    none), so the limit is the Frobenius projection of z. Without the
    correction term the alternation from z reaches some point of the
    intersection, but generally not the projection; so does
    `solve_feasible(cs, opts, initial=z)`. Runs on the sweep solvers' driver
    with one start, z: a z that is PSD and meets the marginals comes back
    unchanged, and `opts.restarts` is ignored, as a projection never starts
    from a random point.
    """
    def loop(x, sweeps, tol):
        return _alternate(x, cs, _project_psd, sweeps, err_tol=tol, increments=True)

    return _sweep_solver(cs, replace(opts or SolveOptions(), restarts=1), z, loop, _is_psd)


NSPG_WINDOW = 10          # nonmonotone window: Armijo compares with the worst of these
NSPG_DECREASE = 1e-4      # Armijo sufficient-decrease factor
NSPG_ALPHA_MIN = 1e-10    # Barzilai-Borwein step-size safeguards
NSPG_ALPHA_MAX = 1e10


def nspg_minimize(cs: ConstraintSet, objective: str = "von-neumann",
                  alpha: float | None = None, opts: SolveOptions | None = None,
                  initial=None) -> SolveReport:
    """Nonmonotone spectral projected gradient over (marginals) intersect (PSD).

    Minimizes tr(rho ln rho) (or the matching Renyi-form objective) with a
    windowed Armijo acceptance rule and Barzilai-Borwein step sizes. The
    inner projection Phi solves the dual of the projection problem by
    semismooth Newton (`project_intersection`) from the affine projection's
    dual point, so search directions are actual projections and stay feasible.
    Stops when ||Phi(rho - grad f(rho)) - rho||_F falls below the
    stationarity tolerance (a unit step reuses that projection); the residual
    history records that measure per iteration. Projections that end at
    their Newton-step cap above the dual-gradient tolerance are counted in
    `notes`. The line-search and step-size constants NSPG_WINDOW,
    NSPG_DECREASE, NSPG_ALPHA_MIN and NSPG_ALPHA_MAX are the defaults of
    Birgin, Martinez & Raydan (2000); backtracking halves the step.
    """
    opts = opts or SolveOptions()
    entropy, grad_of = entropy_objective(objective, alpha)
    t0 = time.perf_counter()
    ends = []            # per projection: its dual gradient norm if the cap ended it

    def inner_project(m):
        x, gnorm, hit_cap = project_intersection(m, cs)
        ends.append(gnorm if hit_cap else None)
        return x

    start = _initial_point(cs, opts.seed, initial)
    rho = inner_project(start)

    values, u = np.linalg.eigh(rho)
    f_cur = -entropy(values)
    g = grad_of(values, u)   # the gradient at rho, carried with each accepted step
    window = deque([f_cur], maxlen=NSPG_WINDOW)
    step = 1.0
    station_history = []
    objective_history = [f_cur]
    converged = False
    notes = ""
    stalls = 0
    eps = np.finfo(float).eps
    for _ in range(opts.max_iterations):
        projected = inner_project(rho - g)
        station_history.append(float(np.linalg.norm(projected - rho)))
        if station_history[-1] <= opts.nspg_stationarity_tol:
            converged = True
            break
        d = (projected if step == 1.0 else inner_project(rho - step * g)) - rho
        slope = float(np.real(np.trace(d.conj().T @ g)))
        f_ref = max(window)
        # below this band the directional derivative is indistinguishable
        # from the floating-point resolution of the objective
        band = 64 * eps * max(1.0, abs(f_ref))
        unverified = abs(slope) <= band
        collapsed = slope > 0 and not unverified   # ascending: projection too inexact
        lam = 1.0
        while not collapsed:
            candidate = hermitize(rho + lam * d)
            cand_values, cand_u = np.linalg.eigh(candidate)
            f_new = -entropy(cand_values)
            # a noise-scale slope takes the unit step unchecked (a projected
            # gradient step, non-ascent up to that same noise) and leaves the
            # calibrated step size alone
            if unverified or f_new <= f_ref + NSPG_DECREASE * lam * slope:
                break
            lam /= 2
            collapsed = lam < 1e-16
        if collapsed:
            stalls += 1
            step = 1.0
            if stalls > 5:
                notes = "stationarity stalled at floating-point resolution"
                break
            continue
        stalls = 0
        g_new = grad_of(cand_values, cand_u)
        if not unverified:
            s = candidate - rho
            b = float(np.real(np.trace(s.conj().T @ (g_new - g))))
            if b <= 0:
                step = NSPG_ALPHA_MAX
            else:
                a = float(np.real(np.trace(s.conj().T @ s)))
                step = min(NSPG_ALPHA_MAX, max(NSPG_ALPHA_MIN, a / b))
        rho, f_cur, g = candidate, f_new, g_new
        window.append(f_cur)
        objective_history.append(f_cur)

    capped = [gnorm for gnorm in ends if gnorm is not None]
    if capped:
        cap_note = (f"inner projection stopped at its {_projections.DUAL_MAX_ITERATIONS}-step "
                    f"cap in {len(capped)} of {len(ends)} calls, dual gradient up to "
                    f"{max(capped):.1e} (tolerance {_projections.DUAL_GRAD_TOL:g})")
        notes = f"{notes}; {cap_note}" if notes else cap_note
    return SolveReport(
        solution=rho, iterations=len(station_history),
        residual_history=np.asarray(station_history), converged=converged,
        wall_time=time.perf_counter() - t0,
        final_residual=station_history[-1] if station_history else 0.0,
        seed_used=opts.seed, objective_history=np.asarray(objective_history),
        notes=notes,
    )
