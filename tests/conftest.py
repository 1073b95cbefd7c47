from collections import deque
from pathlib import Path

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    cli,
    fileio,
    hermitize,
    marginal_residual,
    partial_trace,
    project_intersection,
    project_marginals,
    project_psd,
    random_density,
    solvers,
)
from qmarginals.entropy import entropy_objective
from qmarginals.tensorcore import _re_inner, as_dims

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
    equals sigma. A test-only reference for the affine projection, built as
    the dense permutation sandwich P^T (I/n_{J^c} x Delta) P of
    `subsystem_permutation`, with Delta = tr_{J^c}(Z) - sigma.
    """
    dims = as_dims(dims)
    j = dims.validate_keep(keep)
    njc = dims.total // dims.subdim(j)
    p = subsystem_permutation(dims, j)
    return p.T @ np.kron(np.eye(njc) / njc, partial_trace(z, dims, j) - sigma) @ p


def kkt_residuals(z, x, h, cs):
    """Residuals of the optimality conditions of x as the projection of z (its
    Hermitian part) onto (marginal set A) intersect (PSD cone), for h
    Hermitian and S = x - hermitize(z) - h:

        -lambda_min(x), Err(x), ||P_A(x + h) - x||_F, -lambda_min(S), |<S, x>|.

    Once x meets the marginals, P_A(x + h) - x is the part of h orthogonal to
    the span of the lifted marginal operators, so the third is zero iff h lies
    in that span. When all five are zero, x is the projection: for every y in
    the intersection, z - x = -S - h and y - x has zero marginals, so
    <z - x, y - x> = -<S, y> + <S, x> - <h, y - x> = -<S, y> <= 0, as S and y
    are PSD. Calls no solver code: the affine projection it uses is the one
    the pseudo-inverse oracle certifies.
    """
    s = x - hermitize(z) - h
    return (-np.linalg.eigvalsh(x)[0], marginal_residual(x, cs),
            float(np.linalg.norm(project_marginals(x + h, cs) - x)),
            -np.linalg.eigvalsh(s)[0], abs(np.vdot(s, x)))


@pytest.fixture(autouse=True)
def certified_projections(monkeypatch):
    """Every result of `project_intersection` that NSPG or the CLI takes and
    that the step cap did not end must pass `kkt_residuals` at 1e-12."""
    def certified(z, cs):
        x, h, gnorm, capped = project_intersection(z, cs)
        assert capped or max(kkt_residuals(z, x, h, cs)) <= 1e-12
        return x, h, gnorm, capped

    for module in (solvers, cli):
        monkeypatch.setattr(module, "project_intersection", certified)


def reference_dykstra_loop(z, cs, max_sweeps, err_tol):
    """Dykstra's scheme (Boyle & Dykstra 1986) between the marginal set and the
    PSD cone from z until Err < err_tol, the paper's method for the projection
    of z onto their intersection: the PSD leg carries the correction term, the
    affine leg needs none. Returns (x, Err history, converged)."""
    x = z
    increment = np.zeros_like(z)
    history = []
    for _ in range(max_sweeps):
        t = project_marginals(x, cs) + increment
        x = project_psd(t)
        increment = t - x
        history.append(marginal_residual(x, cs))
        if history[-1] < err_tol:
            return x, history, True
    return x, history, False


def reference_nspg(cs, objective="von-neumann", alpha=None, opts=None, initial=None):
    """NSPG as it was before the stationarity bracket: every iteration
    projects rho - grad f(rho) for the exact measure e, then rho - alpha g for
    the direction unless alpha = 1. `solvers.nspg_minimize` must keep its
    iterates and stop decisions; its residual history may record an upper
    bound on e where this loop records e. Projects with the name
    `solvers.project_intersection`, so the tests' wrappers see its calls."""
    opts = opts or solvers.SolveOptions()
    entropy, grad_of = entropy_objective(objective, alpha)

    def inner_project(m):
        return solvers.project_intersection(m, cs)[0]

    rho = inner_project(solvers._initial_point(cs, opts.seed, initial))
    values, u = np.linalg.eigh(rho)
    f_cur = -entropy(values)
    g = grad_of(values, u)
    window = deque([f_cur], maxlen=solvers.NSPG_WINDOW)
    step = 1.0
    station_history = []
    objective_history = [f_cur]
    converged = False
    stalls = 0
    eps = np.finfo(float).eps
    for _ in range(opts.max_iterations):
        projected = inner_project(rho - g)
        station_history.append(float(np.linalg.norm(projected - rho)))
        if station_history[-1] <= opts.nspg_stationarity_tol:
            converged = True
            break
        d = (projected if step == 1.0 else inner_project(rho - step * g)) - rho
        slope = float(_re_inner(d, g))
        f_ref = max(window)
        unverified = abs(slope) <= 64 * eps * max(1.0, abs(f_ref))
        collapsed = slope > 0 and not unverified
        lam = 1.0
        while not collapsed:
            candidate = hermitize(rho + lam * d)
            cand_values, cand_u = np.linalg.eigh(candidate)
            f_new = -entropy(cand_values)
            if unverified or f_new <= f_ref + solvers.NSPG_DECREASE * lam * slope:
                break
            lam /= 2
            collapsed = lam < 1e-16
        if collapsed:
            stalls += 1
            step = 1.0
            if stalls > 5:
                break
            continue
        stalls = 0
        g_new = grad_of(cand_values, cand_u)
        if not unverified:
            s = candidate - rho
            b = float(_re_inner(s, g_new - g))
            if b <= 0:
                step = solvers.NSPG_ALPHA_MAX
            else:
                a = float(_re_inner(s, s))
                step = min(solvers.NSPG_ALPHA_MAX, max(solvers.NSPG_ALPHA_MIN, a / b))
        rho, f_cur, g = candidate, f_new, g_new
        window.append(f_cur)
        objective_history.append(f_cur)
    return solvers.SolveReport(
        solution=rho, iterations=len(station_history),
        residual_history=np.asarray(station_history), converged=converged, wall_time=0.0,
        final_residual=station_history[-1] if station_history else 0.0,
        seed_used=opts.seed, objective_history=np.asarray(objective_history))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def load_matrix(name):
    return fileio.read_matrix(FIXTURES / name)


def load_spectrum(name):
    return fileio.read_spectrum(FIXTURES / name)
