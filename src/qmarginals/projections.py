"""Least-squares projections used by the solvers.

Three families of constraint sets appear:

* the affine set of Hermitian matrices with prescribed reduced states
  (inclusion-exclusion over the intersection lattice of the kept sets),
* the unitary orbit of a fixed spectrum,
* the PSD cone, alone and intersected with the affine set.

All projections are in the Frobenius norm.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .tensorcore import (
    as_dims,
    as_spectrum,
    hermitize,
    _as_square,
    _gather,
    _positive_definite,
    _re_inner,
    _segment_sums,
    _sym,
)

CONSISTENCY_TOL = 1e-8

_NodeTable = namedtuple("_NodeTable", "gather starts targets bounds scale weight lift rows")
_Plan = namedtuple("_Plan", "terms shared derived")


@dataclass(frozen=True)
class MarginalConstraint:
    """Prescribed reduced state on the subsystems named by `keep` (1-based labels)."""

    keep: tuple[int, ...]
    target: np.ndarray

    def __init__(self, keep, target):
        keep = tuple(sorted({int(i) for i in keep}))
        if not keep:
            raise ValueError("kept-index set must be nonempty")
        m = _sym(_as_square(target, f"target for keep={keep}"))
        m.setflags(write=False)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "target", m)


class ConstraintSet:
    """A family {(J_i, sigma_i)} of marginal constraints on a fixed factorization.

    Built on first use, once per set: the lattice plan with the targets
    traced to its shared nodes (`_plan`), whether every target is exactly real
    (`_real`), and the node table the sweeps trace their iterates through
    (`_nodes`). A residual (`solvers.marginal_residual`) needs none of them.
    """

    def __init__(self, dims, constraints):
        self.dims = as_dims(dims)
        parsed = []
        for c in constraints:
            if not isinstance(c, MarginalConstraint):
                keep, target = c
                c = MarginalConstraint(keep, target)
            keep = self.dims.validate_keep(c.keep)
            if len(c.target) != self.dims.subdim(keep):
                raise ValueError(f"target for keep={keep} order {len(c.target)} does not "
                                 f"match dims {self.dims.local_dims(keep).dims}")
            parsed.append(c)
        keeps = [c.keep for c in parsed]
        for i, keep in enumerate(keeps):
            if keep in keeps[:i]:
                raise ValueError(f"duplicate kept-index set {','.join(map(str, keep))} "
                                 "in constraint set")
        if not parsed:
            raise ValueError("constraint set must contain at least one constraint")
        self.constraints = tuple(parsed)

    def __iter__(self):
        return iter(self.constraints)

    def __len__(self):
        return len(self.constraints)

    @cached_property
    def _plan(self) -> _Plan:
        """The set's plan: its lattice, Moebius terms and derived targets.

        The lattice is the intersection closure of the kept sets and the empty
        set, largest node first; a node's owners are the constraints containing
        it, the one whose kept set it is first. Moebius inversion (Rota 1964)
        gives c(S) = -1 minus the c(S') of all nodes S' strictly containing S.
        `terms`: (c(S), labels, first owner) for each c(S) != 0, by labels.
        `shared`: (labels, owners) for each nonempty node with two or more
        owners. `derived[owner, labels]`: that owner's target traced down to a
        shared node, read-only, for every owner. A nonempty node that is no
        kept set is the intersection of two or more, so it is shared, and
        `derived` holds its first owner's target for the correction terms too.
        """
        dims, keeps = self.dims, tuple(c.keep for c in self.constraints)
        sets = [frozenset(k) for k in keeps]
        nodes = fresh = set(sets) | {frozenset()}
        while fresh:
            fresh = {s & k for s in fresh for k in sets} - nodes
            nodes = nodes | fresh
        coef, terms, shared, derived = {}, [], [], {}
        local = [dims.local_dims(k) for k in keeps]
        for _size, labels, s in sorted((-len(s), tuple(sorted(s)), s) for s in nodes):
            owners = sorted((i for i, k in enumerate(sets) if s <= k), key=lambda i: sets[i] != s)
            coef[s] = w = -1.0 - sum(coef[t] for t in coef if t > s)
            if s and len(owners) > 1:
                shared.append((labels, tuple(owners)))
                for i in owners:
                    positions = tuple(keeps[i].index(a) + 1 for a in labels)
                    traced = _segment_sums(self.constraints[i].target,
                                           *_gather(local[i], positions))
                    traced.setflags(write=False)
                    derived[i, labels] = traced.reshape(dims.subdim(labels), -1)
            if w != 0.0:
                terms.append((w, labels, owners[0]))
        terms.sort(key=lambda term: term[1])
        return _Plan(tuple(terms), tuple(shared), derived)

    @cached_property
    def _real(self) -> bool:
        """Whether every target has an exactly zero imaginary part: the one
        dtype rule. Then their traces are real too, the node table's targets
        are float64, and so are a real iterate's sweeps and residuals."""
        return not any(np.any(c.target.imag) for c in self.constraints)

    @cached_property
    def correction_terms(self) -> tuple[tuple[float, tuple[int, ...], object], ...]:
        """Inclusion-exclusion plan: (coefficient, intersection labels, target).

        The maps E_J(X) = tr_{J^c}(X) x I/n_{J^c} satisfy E_J E_K = E_{J & K},
        so the coefficients live on the intersection lattice (`_plan`). A kept
        set's node carries its constraint's own target, any other nonempty node
        its first owner's traced down (from the plan), the empty set that
        owner's trace. Raises ValueError when `check_consistency` fails.
        """
        report = check_consistency(self)
        if not report.consistent:
            raise ValueError(
                f"inconsistent constraint set: max marginal discrepancy "
                f"{report.max_discrepancy:.3e} exceeds {CONSISTENCY_TOL}"
            )
        terms = []
        for w, labels, owner in self._plan.terms:
            target = self.constraints[owner].target
            if not labels:
                target = float(target.trace().real)
            elif labels != self.constraints[owner].keep:
                target = self._plan.derived[owner, labels]
            terms.append((w, labels, target))
        return tuple(terms)

    @cached_property
    def _nodes(self) -> _NodeTable:
        """Every node a sweep traces its iterate to, as flat arrays, in one
        pass over the kept sets and then every other nonempty node of the
        lattice plan: their gather indices, the start of each deficit
        entry's run, their targets, the other nodes' from the plan's
        `derived` (float64 when `_real`), and the bounds of the constraints'
        blocks. Each nonempty term w of `correction_terms` lifts
        w (1/n_{S^c}) D_S onto the entries `lift`: `rows` names the deficit
        entry that each repeats, and `scale` and `weight` hold 1/n_{S^c} and
        w per deficit entry. Built from `_plan`, so it needs no consistency
        check.
        """
        dims, n = self.dims, self.dims.total
        coef = {labels: w for w, labels, _i in self._plan.terms if labels}
        owner = {labels: i for _w, labels, i in self._plan.terms}
        keeps = [c.keep for c in self.constraints]
        extra = [s for s in coef if s not in keeps]
        table = keeps + extra
        index = {s: _gather(dims, s)[0] for s in table}
        sizes = [dims.subdim(s) ** 2 for s in table]
        lengths = np.repeat([n // dims.subdim(s) for s in table], sizes)   # n_{S^c} per entry
        at = dict(zip(table, itertools.accumulate(sizes, initial=0)))
        entries = np.concatenate([np.arange(at[s], at[s] + dims.subdim(s) ** 2) for s in coef])
        targets = np.concatenate([c.target.ravel() for c in self.constraints]
                                 + [self._plan.derived[owner[s], s].ravel() for s in extra])
        return _NodeTable(
            gather=np.concatenate(list(index.values())),
            starts=np.cumsum(lengths) - lengths,
            targets=targets.real.copy() if self._real else targets,
            bounds=tuple(itertools.accumulate(sizes[:len(keeps)], initial=0)),
            scale=1.0 / lengths,
            weight=np.repeat([coef.get(s, 0.0) for s in table], sizes),
            lift=np.concatenate([index[s] for s in coef]),
            rows=np.repeat(entries, lengths[entries]))

    @cached_property
    def _dual_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, b): the layout's orthonormal basis of span{E x I_{J^c}}
        (`_dual_frame`), shared read-only by every set on the same dims and
        kept sets, and b = <B, X> for any X that meets the marginals,
        computed from this set's targets.
        """
        self.correction_terms  # validates consistency, which b assumes
        basis, reader = _dual_frame(self.dims, tuple(c.keep for c in self.constraints))
        targets = np.concatenate([c.target.ravel() for c in self.constraints])
        return basis, reader @ targets.view(float)


@lru_cache(maxsize=1)
def _dual_frame(dims, keeps: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(B, R), read-only, for the kept sets `keeps` on `dims`, in that order.

    B: an orthonormal basis, in <A, C> = Re tr(A* C), of span{E x I_{J^c}}
    over every kept set J and Hermitian E, as (m, n, n) Hermitian matrices:
    for each support S, a subset of a kept set, the Kronecker products of the
    local bases (`_local_basis`) with I/sqrt(n_i) off S and other elements
    on S. E x I_{J^c} expands into products on subsets of J, and products on
    different supports are orthogonal; an order-1 subsystem has no other
    element. R maps the targets' entries, kept set after kept set, as real
    pairs (`_re_inner`), to b = <B, X> for any X that meets them: the row of
    a product F x I/sqrt(n_{J^c}), J the first kept set holding S, is F at
    J's columns times sqrt(n_J / n). Only the last layout is kept: a process
    that builds set after set on one layout builds its basis once, and at
    most one basis outlives its sets.
    """
    n, local = dims.total, [_local_basis(d) for d in dims.dims]
    products = {}   # support -> (its first kept set, its products on that set)
    for t, keep in enumerate(keeps):
        for size in range(len(keep) + 1):
            for s in itertools.combinations(keep, size):
                products.setdefault(s, (t, reduce(np.kron, [
                    local[a - 1][1:] if a in s else local[a - 1][:1] for a in keep
                ]).reshape(-1, dims.subdim(keep) ** 2)))
    rows = list(itertools.accumulate((len(f) for _t, f in products.values()), initial=0))
    cols = list(itertools.accumulate((2 * dims.subdim(k) ** 2 for k in keeps), initial=0))
    basis, reader = np.zeros((rows[-1], n * n), dtype=complex), np.zeros((rows[-1], cols[-1]))
    for i, j, (t, f) in zip(rows, rows[1:], products.values()):
        nj = dims.subdim(keeps[t])
        basis[i:j, _gather(dims, keeps[t])[0]] = np.repeat(f / np.sqrt(n // nj), n // nj, axis=1)
        reader[i:j, cols[t]:cols[t + 1]] = f.view(float) * np.sqrt(nj / n)
    basis.flags.writeable = reader.flags.writeable = False
    return basis.reshape(-1, n, n), reader


def _local_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the d x d Hermitian matrices: I/sqrt(d), Helmert's
    traceless diagonals, then (E_ac + E_ca)/sqrt(2), i(E_ac - E_ca)/sqrt(2), a < c."""
    e = np.zeros((d * d, d, d), dtype=complex)
    e[0] = np.eye(d) / np.sqrt(d)
    for k in range(1, d):
        e[k, range(k + 1), range(k + 1)] = np.append(np.ones(k), -k) / np.sqrt(k * (k + 1))
    for k, (a, c) in enumerate(itertools.combinations(range(d), 2)):
        e[d + 2 * k, [a, c], [c, a]] = np.sqrt(0.5)
        e[d + 2 * k + 1, [a, c], [c, a]] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
    return e


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    derived_marginals: dict
    max_discrepancy: float


def check_consistency(cs: ConstraintSet) -> ConsistencyReport:
    """Test whether the prescribed marginals can coexist.

    At every nonempty node of the intersection lattice that two or more kept
    sets contain, the targets of those constraints traced down to the node
    must agree pairwise; the empty intersection degenerates to all targets
    having unit trace. The set is consistent when the largest discrepancy is
    at most CONSISTENCY_TOL; a NaN discrepancy counts as inconsistent. A
    node's derived marginal is its first owner's, from the plan.
    """
    plan = cs._plan
    gaps = [abs(float(c.target.trace().real) - 1.0) for c in cs.constraints]
    gaps += [np.linalg.norm(plan.derived[a, labels] - plan.derived[b, labels])
             for labels, owners in plan.shared for a, b in itertools.combinations(owners, 2)]
    worst = float(np.max(gaps))  # np.max, unlike max(), propagates NaN
    return ConsistencyReport(
        consistent=bool(worst <= CONSISTENCY_TOL), max_discrepancy=worst,
        derived_marginals={labels: plan.derived[owners[0], labels]
                           for labels, owners in plan.shared})


def project_marginals(z, cs: ConstraintSet) -> np.ndarray:
    """Frobenius projection of the Hermitian part of z onto {X : tr_{J_i^c}(X) = sigma_i}.

    Inclusion-exclusion over the intersection lattice of the kept sets;
    intersections carry the derived marginals, the empty intersection the
    global trace. One gather and one segment sum trace z to every node
    (`_deficits`), and one ordered scatter adds the corrections
    (`_project_affine`). The corrections are linear in z and commute with
    taking the Hermitian part, so that is taken once, of the result.
    """
    z = _as_square(z, "z", cs.dims)
    return _project_affine(z, cs, _deficits(z, cs._nodes))


def _deficits(x, table) -> np.ndarray:
    """tr_{S^c}(x) - sigma_S for every node of `table` (a set's `_nodes`),
    flattened node after node into one vector: one gather and one segment
    sum. Its first `table.bounds[-1]` entries are the constraints' deficits."""
    return _segment_sums(x, table.gather, table.starts) - table.targets


def _project_affine(z, cs: ConstraintSet, deficits) -> np.ndarray:
    """project_marginals in z's dtype, given z's `_deficits`: the empty node
    first, from the trace of z, then one unbuffered scatter of every other
    node's correction, term after term, so each entry adds them in order."""
    n = z.shape[0]
    out = z.copy()
    w, labels, target = cs.correction_terms[0]
    if not labels:
        out.reshape(-1)[:: n + 1] += w * ((float(np.trace(z).real) - target) / n)
    nodes = cs._nodes
    np.add.at(out.reshape(-1), nodes.lift, (nodes.weight * (nodes.scale * deficits))[nodes.rows])
    return _sym(out)


def project_bipartite_affine(p, rho1, rho2) -> np.ndarray:
    """`project_marginals` onto the bipartite marginal set {tr_2 X = rho1, tr_1 X = rho2}.

    The lattice plan has two nodes here, {1} and {2}, and the empty set with
    coefficient +1, so the projection is the closed form
    X = P - I/n1 x (tr_1 P - rho2) - (tr_2 P - rho1) x I/n2 + (tr P - 1)/(n1 n2) I.
    Raises ValueError on inconsistent marginals, as the constraint set does.
    """
    r1, r2 = _as_square(rho1, "rho1"), _as_square(rho2, "rho2")
    cs = ConstraintSet((r1.shape[0], r2.shape[0]), [((1,), r1), ((2,), r2)])
    return project_marginals(p, cs)


def project_spectrum(p, c) -> np.ndarray:
    """Nearest Hermitian matrix with the prescribed eigenvalues.

    If P = U diag(mu) U* with mu descending, the optimum for any unitary
    similarity invariant norm is U diag(c) U* with c descending; ties in mu
    pair with c in the order `np.linalg.eigh` returns them. P must be
    Hermitian; only its lower triangle is read.
    """
    p = _as_square(p, "p")
    c = as_spectrum(c)
    if len(c) != p.shape[0]:
        raise ValueError(f"spectrum length {len(c)} does not match order {p.shape[0]}")
    return _project_spectrum(p, c)


def _project_spectrum(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """project_spectrum in p's own dtype, for a descending c of p's order."""
    values, u = np.linalg.eigh(p)   # U f(Lambda) U* needs no phase fix
    u = u[:, np.argsort(-values, kind="stable")]
    return _sym((u * c) @ u.conj().T)


def project_psd(z) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian z: z - V_ L_ V_* over its negative
    eigenpairs (Higham 1988), unless a Cholesky factorization of z succeeds,
    which shows there is nothing to clip; then a copy of z. Always a new array.

    z must be exactly Hermitian, as both triangles are read; pass
    `hermitize(z)` for any other square matrix, which projects its Hermitian
    part.
    """
    return _project_psd(_as_square(z, "z"))


def _project_psd(z: np.ndarray) -> np.ndarray:
    """project_psd in z's own dtype: a real symmetric z gives a real result.

    A positive definite z (`_positive_definite`, about a tenth of the price
    of `eigh` at n = 128) returns `_sym(z)`, bit for bit what the `eigh`
    path gives an exactly Hermitian z with no negative eigenvalue. The test
    only skips work; it decides no verdict.
    """
    if _positive_definite(z):
        return _sym(z)
    values, u = np.linalg.eigh(z)   # ascending; U f(Lambda) U* needs no phase fix
    k = int(np.searchsorted(values, 0.0))
    return _sym(z - (u[:, :k] * values[:k]) @ u[:, :k].conj().T)


DUAL_GRAD_TOL = 1e-15
DUAL_MAX_ITERATIONS = 50


def project_intersection(z, cs: ConstraintSet):
    """Project the Hermitian part of z onto (marginal set) intersect (PSD cone).

    Semismooth Newton on the dual of this semidefinite least-squares problem
    (Malick 2004; Qi & Sun 2006). With B the orthonormal basis of the lifted
    marginal space and b = <B, X> on the marginal set, it minimizes
    phi(y) = ||P_+(z + sum y_k B_k)||^2 / 2 - <b, y>, whose gradient
    <B, X(y)> - b is the marginal error of X(y) = P_+(z + sum y_k B_k).
    Starts from the affine projection's dual point b - <B, z>, where
    X = P_+(P_A(z)) (the answer when P_A(z) is PSD). When a Cholesky
    factorization of P_A(z) succeeds, it returns P_A(z), that dual point,
    its gradient norm and False with no eigendecomposition: the Newton loop
    would reach the same X up to rounding. The factorization only skips
    work and decides no verdict. Otherwise it stops at gradient norm
    DUAL_GRAD_TOL, after DUAL_MAX_ITERATIONS Newton steps, or when the line
    search cannot tell a step from rounding. Returns (X(y), H, gradient norm,
    whether the step cap ended it), with H = sum y_k B_k the dual point as a
    Hermitian n x n matrix in the span of the lifted marginal operators: X
    is the projection of z iff X is PSD, meets the marginals, and
    S = X - z - H is PSD with <S, X> = 0. On marginals that no state has,
    the cap ends it. B is built in closed form, from products of local
    Hermitian bases (`_dual_frame`), once per layout; it is dense, m * n^2
    complex numbers for m independent marginal directions: 10 MB for all
    pairs of 6 qubits, 290 MB at 8.
    """
    z = hermitize(_as_square(z, "z", cs.dims))
    basis, b = cs._dual_basis
    m, n = basis.shape[0], z.shape[0]
    flat = basis.reshape(m, n * n)

    def evaluate(y):
        dual = (y @ flat).reshape(n, n)
        lam, u = np.linalg.eigh(z + dual)
        plus = np.clip(lam, 0.0, None)
        x = (u * plus) @ u.conj().T
        grad = _re_inner(basis, x) - b
        return lam, u, x, dual, grad, 0.5 * float(plus @ plus) - float(b @ y)

    y = b - _re_inner(basis, z)
    dual = (y @ flat).reshape(n, n)
    x = _sym(z + dual)   # P_A(z)
    if _positive_definite(x):
        return x, dual, float(np.linalg.norm(_re_inner(basis, x) - b)), False
    lam, u, x, dual, grad, phi = evaluate(y)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(DUAL_MAX_ITERATIONS):
        if gnorm <= DUAL_GRAD_TOL:
            break
        # generalized Hessian <B_k, P_+'(W)[B_l]> in the eigenbasis of W: the
        # first divided differences of max(lambda, 0) weight each entry
        pos = lam > 0
        plus = np.where(pos, lam, 0.0)
        same = pos[:, None] == pos[None, :]
        omega = np.where(same, pos[:, None] * 1.0,
                         (plus[:, None] - plus[None, :])
                         / np.where(same, 1.0, lam[:, None] - lam[None, :]))
        c = u.conj().T @ basis @ u
        h = _re_inner(c, omega * c)
        # regularized system (h + mu I) d = -grad, mu = min(1e-2, |grad|); h is
        # PSD up to rounding, and clipping its eigenvalues keeps h + mu I
        # positive definite
        w, v = np.linalg.eigh(h)
        d = -v @ ((v.T @ grad) / (np.clip(w, 0.0, None) + min(1e-2, gnorm)))
        slope = float(grad @ d)
        band = 64 * np.finfo(float).eps * max(1.0, abs(phi))
        t = 1.0
        while True:
            trial = evaluate(y + t * d)
            trial_gnorm, trial_phi = float(np.linalg.norm(trial[4])), trial[5]
            if trial_gnorm <= gnorm / 2:
                break
            # below the band phi cannot confirm the predicted decrease, so
            # only a halved gradient can still accept a step (a NaN slope
            # ends the search here too)
            if not -t * slope > band:
                return hermitize(x), dual, gnorm, False
            if trial_phi <= phi + 1e-4 * t * slope:
                break
            t /= 2
        y = y + t * d
        lam, u, x, dual, grad, phi = trial
        gnorm = trial_gnorm
    return hermitize(x), dual, gnorm, gnorm > DUAL_GRAD_TOL
