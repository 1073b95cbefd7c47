"""Iterative schemes: projection sweeps and projected gradient.

The sweep solvers run one loop, `_sweeps`, between the marginal set and a
second set. `solve_feasible` reflects (Douglas-Rachford onto the PSD cone);
the spectrum and rank solvers alternate: on those nonconvex sets
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
from dataclasses import dataclass

import numpy as np

from . import projections as _projections
from .entropy import entropy_objective
from .projections import (
    ConstraintSet,
    project_intersection,
    _deficits,
    _project_affine,
    _project_psd,
    _project_spectrum,
)
from .tensorcore import (
    RANK_RTOL,
    SPECTRUM_ATOL,
    as_spectrum,
    hermitize,
    numerical_rank,
    random_density,
    _as_square,
    _gather,
    _psd,
    _re_inner,
    _segment_sums,
    _sym,
)


@dataclass(frozen=True)
class SolveOptions:
    """Iteration limits, tolerances and seeding shared by the solvers.

    The sweep solvers read every field but `nspg_stationarity_tol`.
    `nspg_minimize` ignores `tolerance` and `restarts`.
    """

    max_iterations: int = 1000
    tolerance: float = 1e-12
    seed: int = 0
    restarts: int = 1
    nspg_stationarity_tol: float = 1e-8

    def __post_init__(self):
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            _check_integer(name, getattr(self, name), low)
        for name in ("tolerance", "nspg_stationarity_tol"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_integer(name: str, value, low: int) -> None:
    """The one integer rule: a Python or numpy integer >= low, not a bool
    (which isinstance counts as an int); else a ValueError naming `name`."""
    if type(value) is bool or not (isinstance(value, (int, np.integer)) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


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
    """Err(X) = sum_i ||tr_{J_i^c}(X) - sigma_i||_F, traced constraint by
    constraint (`_constraint_deficits`), so a set used once plans nothing,
    and in the sweeps' dtype (`_real_if_exact`): bit for bit the Err a sweep
    reads off its `_deficits`."""
    return _err(_constraint_deficits(_real_if_exact(_as_square(x, "x", cs.dims), cs), cs))


def _constraint_deficits(x, cs: ConstraintSet) -> list:
    """tr_{S^c}(x) - sigma_S for each constraint, flattened: one gather and
    one segment sum each (`_gather`), the targets in float64 when `cs._real`.
    The same bits as the constraints' blocks of `_deficits(x, cs._nodes)`."""
    return [_segment_sums(x, *_gather(cs.dims, c.keep))
            - (c.target.real if cs._real else c.target).ravel() for c in cs.constraints]


def _err(blocks) -> float:
    """Err from the constraints' deficit blocks, one `np.linalg.norm` each:
    the one Err kernel."""
    return float(sum(np.linalg.norm(b) for b in blocks))


def _initial_point(cs: ConstraintSet, seed: int, initial) -> np.ndarray:
    if initial is not None:
        return hermitize(_as_square(initial, "initial point", cs.dims))
    return np.array(random_density(cs.dims, seed).matrix)


def _real_if_exact(z, cs: ConstraintSet) -> np.ndarray:
    """z in float64 when z has an exactly zero imaginary part and so has every
    target (`cs._real`), else z. Every sweep step maps real matrices to real
    ones."""
    if np.any(z.imag) or not cs._real:
        return z
    return np.ascontiguousarray(z.real)


def _sweeps(z, cs, second, max_sweeps, *, err_tol, reflect):
    """Projection sweeps between the marginal set A and a second set from z,
    in z's dtype, until Err < err_tol or `max_sweeps` sweeps.

    Starts at z_0 = a_0 = P_A(z); each sweep takes x = second(2 a - z) when
    `reflect` is set (Douglas-Rachford, Lions & Mercier 1979), else
    x = second(a), and records Err(x). Alternation then takes a <- P_A(x);
    Douglas-Rachford steps z <- z + x - a and a <- P_A(z), which is P_A(x)
    as P_A is affine and a = P_A(z). The first sweep of either is therefore
    one alternation sweep, and a sweep traces only x: Err(x) and the next
    P_A read the same `_deficits`. Every iterate is exactly Hermitian, as
    the second projections require. Returns (x, Err history, converged).
    """
    nodes = cs._nodes
    a = z = _project_affine(z, cs, _deficits(z, nodes))
    history = []
    while True:
        x = second(2 * a - z if reflect else a)
        deficits = _deficits(x, nodes)
        history.append(_err(deficits[i:j] for i, j in zip(nodes.bounds, nodes.bounds[1:])))
        if history[-1] < err_tol or len(history) == max_sweeps:
            return x, history, history[-1] < err_tol
        if reflect:
            z = z + x - a
        a = _project_affine(x, cs, deficits)


def _sweep_solver(cs, opts, initial, second, contains, *, reflect=False,
                  nudge=False, finish=None) -> SolveReport:
    """Run `_sweeps` through `second` from each restart until Err < tolerance.

    Restarts after the first start from seeded random points. A start that
    meets the marginals and whose ascending eigenvalues the target set
    `contains` is returned unchanged; any other start is `_nudged` with the
    restart's seed first when `nudge` is set. Given a `finish`, the sweeps
    stop at a gate, first RANK_FINISH_ERR, and hand x to
    `finish(x, budget)` -> (x, Err per step). If the finish ends at Err
    e >= tolerance, the sweeps go on from its x and the gate falls to
    min(gate, e) / 10; `notes` lists every attempt.
    """
    opts = opts or SolveOptions()
    cs.correction_terms  # validates consistency up front
    t0 = time.perf_counter()
    budget, tol = opts.max_iterations, opts.tolerance
    reports = []
    for seed in range(opts.seed, opts.seed + opts.restarts):
        x = _initial_point(cs, seed, initial if seed == opts.seed else None)
        err0 = marginal_residual(x, cs)
        history, attempts = [], []
        if not (err0 < tol and contains(np.linalg.eigvalsh(x))):
            x = _real_if_exact(x, cs)
            if nudge:
                x = _nudged(x, seed)
            gate, sweeps = (RANK_FINISH_ERR if finish else tol), 0
            while True:
                x, more, _ = _sweeps(x, cs, second, budget - len(history), reflect=reflect,
                                     err_tol=max(tol, gate))
                history += more
                sweeps += len(more)
                if history[-1] < tol or len(history) == budget:
                    break
                x, steps = finish(x, budget - len(history))
                history += steps
                attempts.append(f"{len(steps)} steps after {sweeps} sweeps")
                if history[-1] < tol or len(history) == budget:
                    break
                gate = min(gate, history[-1]) / 10
        final = history[-1] if history else err0
        reports.append(SolveReport(
            solution=x.astype(complex, copy=False), iterations=len(history),
            residual_history=np.asarray(history), converged=final < tol,
            wall_time=0.0, final_residual=final, seed_used=seed,
            notes="Gauss-Newton finish: " + "; ".join(attempts) if attempts else "",
        ))
        if reports[-1].converged:
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

    def contains(values):
        return bool(np.max(np.abs(values[::-1] - c)) <= SPECTRUM_ATOL)

    return _sweep_solver(cs, opts, initial, lambda y: _project_spectrum(y, c), contains)


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
    has grown (2,862 sweeps); nudged, seeds 0-30 certify in 1,582-1,835,
    about 1,000 of them a linear tail. So below RANK_FINISH_ERR the
    `_gauss_newton_rank` finish takes over (735-988 iterations, ending at
    Err ~ 1e-16); its steps count as iterations and `notes` names them.
    The last VV* it accepts goes back to the sweeps, which try the finish
    again each time Err falls tenfold below where it ended: a failed
    attempt costs one step. On rank_6x8 at cap 3 the second attempt
    certifies (2,318 iterations), and a 3x6 pair at cap 2 that one attempt
    at 1e-6 left at Err 5.7e-6 after 20,000 certifies on a retry.
    """
    _check_integer("rank cap", r, 1)

    def contains(values):
        return _psd(values) and numerical_rank(values) <= r

    return _sweep_solver(cs, opts, initial, lambda y: _project_rank(y, r), contains,
                         nudge=True, finish=lambda x, steps: _gauss_newton_rank(x, r, cs, steps))


RANK_FINISH_ERR = 1e-3
"""Err at which the rank solver's sweeps first hand over to `_gauss_newton_rank`.
The finish lands on a solution near its start: from the greedy start the
entropy moves from the sweeps' own solution by at most 7e-9 on rank_3x4 at
cap 2 (seeds 0-30), and by 1.7e-4 on rank_6x8 at cap 3, where the first
attempt stops above tolerance after one step. A single attempt at 1e-3
certifies rank_3x4 but not rank_6x8 (9,388 iterations, the sweeps then
alone), hence the retries."""


def _gauss_newton_rank(x, r: int, cs: ConstraintSet, max_steps: int):
    """Levenberg-Marquardt on X = VV*, V of n x r in x's dtype, from the top r
    eigenpairs of x: V = U sqrt(Lambda), eigenvalues clipped at 0.

    Steps dV = -J^T (J J^T + mu I)^{-1} F with mu = ||F||^2 converge
    quadratically also where the solutions form a manifold (Yamashita &
    Fukushima 2001); the q x q system, for q residual coordinates, needs
    O(q n r + q^2) memory. Its least-squares solve drops singular values
    below RANK_RTOL of the largest: coordinates repeat ((a, b) and (b, a),
    the trace in each marginal), and 1 / mu would amplify their rounding.
    Steps go on while each at least halves ||F||, up to `max_steps`; the
    first that does not is discarded. Returns (VV*, Err per accepted step).
    """
    values, u = _top_eigenpairs(x, r)
    v = u * np.sqrt(values)
    f, _ = _lm_residual(v, cs)
    history = []
    while len(history) < max_steps:
        rows = _lm_rows(v, cs)
        gram = (rows.conj() @ rows.T).real + (f @ f) * np.eye(len(f))
        trial = v - (np.linalg.lstsq(gram, f, rcond=RANK_RTOL)[0] @ rows).reshape(v.shape)
        f_trial, err = _lm_residual(trial, cs)
        if not np.linalg.norm(f_trial) <= np.linalg.norm(f) / 2:
            break
        v, f = trial, f_trial
        history.append(err)
    return _sym(v @ v.conj().T), history


def _lm_residual(v, cs: ConstraintSet):
    """(F, Err(VV*)): F lists the constraints' deficits tr_{S^c}(VV*) - sigma_S
    entry by entry, as [re, im] pairs when V is complex."""
    blocks = _constraint_deficits(_sym(v @ v.conj().T), cs)
    f = np.concatenate(blocks)
    return f.view(float) if np.iscomplexobj(v) else f, _err(blocks)


def _lm_rows(v, cs: ConstraintSet) -> np.ndarray:
    """The rows of the Jacobian of `_lm_residual`'s F at V, flattened: for the
    unit E of a coordinate of constraint S (e_a e_b^T for a real part,
    i e_a e_b^T for an imaginary one), 2 herm(E x I_{S^c}) V."""
    n = v.shape[0]
    blocks = []
    for c in cs.constraints:
        ns, index = c.target.shape[0], _gather(cs.dims, c.keep)[0]
        g = np.zeros((ns * ns, n, v.shape[1]), v.dtype)
        g[np.arange(index.size) // (n // ns), index // n] = v[index % n]   # (e_a e_b^T x I) V
        g = g.reshape(ns, ns, -1)
        gt = g.swapaxes(0, 1)
        blocks.append((np.stack([g + gt, 1j * (g - gt)], 2) if np.iscomplexobj(v)
                       else g + gt).reshape(-1, v.size))
    return np.concatenate(blocks)


def _project_rank(y, r: int) -> np.ndarray:
    """Hermitian y cut to its top r eigenvalues, clipped at 0."""
    values, v = _top_eigenpairs(y, r)
    return _sym((v * values) @ v.conj().T)


def _top_eigenpairs(y, r: int):
    """The top r eigenvalues of Hermitian y, in stable descending order and
    clipped at 0, and their eigenvectors as columns."""
    values, u = np.linalg.eigh(y)   # U f(Lambda) U* needs no phase fix
    top = np.argsort(-values, kind="stable")[:r]
    return np.maximum(values[top], 0.0), u[:, top]


def solve_feasible(cs: ConstraintSet, opts: SolveOptions | None = None,
                   initial=None) -> SolveReport:
    """Douglas-Rachford between the marginal set and the PSD cone.

    Finds some state with the prescribed marginals, starting from a seeded
    random density matrix or `initial`. The iteration (Lions & Mercier 1979)
    starts from the affine projection of that start, so its first sweep is
    one alternation sweep, and makes the same two projections per sweep as
    alternation in far fewer sweeps (`_sweeps` with `reflect`). A sweep whose
    2a - z admits a Cholesky factorization takes that matrix as its PSD point
    without an eigendecomposition (`_project_psd`; on the 7-qubit benchmark
    instance the last 2 of 6 sweeps); the test decides no verdict. The
    solution is the PSD point of the last sweep, so it is PSD by
    construction. When the marginals admit no state, the iterate z grows
    linearly and the report is not converged; the solution stays finite, and
    PSD up to rounding that grows with z (smallest eigenvalue -1.9e-12 after
    5,000 sweeps when each pair of three qubits is to hold the singlet). From
    `initial` = z it reaches some state, generally not the projection of z,
    which `project_intersection` computes.
    """
    return _sweep_solver(cs, opts, initial, _project_psd, _psd, reflect=True)


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
    Stops when e = ||Phi(rho - g) - rho||_F, g = grad f(rho), is at most the
    stationarity tolerance. An iteration projects once, for the direction
    d = Phi(rho - alpha g) - rho at the Barzilai-Borwein step alpha, and
    brackets e by it: for rho feasible, ||Phi(rho - t g) - rho|| is
    nondecreasing in t and divided by t nonincreasing (Calamai & More 1987,
    Lemma 2.2), so e lies in [min(1, 1/alpha), max(1, 1/alpha)] ||d||_F. At
    alpha = 1, d is the unit step and gives e. Otherwise Phi(rho - g) is
    computed only when the lower end is within the tolerance, or in the last
    iteration allowed. The iterates and stop decisions are thus those of the
    loop that projects rho - g every iteration (`reference_nspg` in the
    tests). The residual history records per iteration e where it was
    computed and the bracket's upper end elsewhere. Projections that end at
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
        x, _h, gnorm, hit_cap = project_intersection(m, cs)
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
    tol = opts.nspg_stationarity_tol
    for iteration in range(opts.max_iterations):
        d = inner_project(rho - step * g) - rho
        measure = float(np.linalg.norm(d))
        low, bound = sorted((measure, measure / step))   # e lies in [low, bound]
        # e itself where it may stop the loop, and for the final residual
        if step != 1.0 and (low <= tol or iteration == opts.max_iterations - 1):
            bound = float(np.linalg.norm(inner_project(rho - g) - rho))
        station_history.append(bound)
        if bound <= tol:
            converged = True
            break
        slope = float(_re_inner(d, g))
        f_ref = max(window)
        # below this band the directional derivative is indistinguishable
        # from the floating-point resolution of the objective
        band = 64 * eps * max(1.0, abs(f_ref))
        unverified = abs(slope) <= band
        collapsed = slope > 0 and not unverified   # ascending: projection too inexact
        lam = 1.0
        while not collapsed:
            candidate = rho + lam * d   # exactly Hermitian, as rho and d are
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
            b = float(_re_inner(s, g_new - g))
            if b <= 0:
                step = NSPG_ALPHA_MAX
            else:
                a = float(_re_inner(s, s))
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
