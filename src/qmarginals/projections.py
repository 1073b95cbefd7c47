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
from functools import cached_property

import numpy as np

from .tensorcore import (
    SystemDims,
    as_dims,
    as_spectrum,
    hermitize,
    _as_square,
    _gather,
    _positive_definite,
    _segment_sums,
    _sym,
    _trace_down,
)

CONSISTENCY_TOL = 1e-8

_NodeTable = namedtuple("_NodeTable", "gather starts targets bounds scale weight lift rows")


@dataclass(frozen=True)
class MarginalConstraint:
    """Prescribed reduced state on the subsystems named by `keep` (1-based labels)."""

    keep: tuple[int, ...]
    target: np.ndarray

    def __init__(self, keep, target):
        keep = tuple(sorted({int(i) for i in keep}))
        if not keep:
            raise ValueError("kept-index set must be nonempty")
        m = hermitize(_as_square(target, f"target for keep={keep}"))
        m.setflags(write=False)
        object.__setattr__(self, "keep", keep)
        object.__setattr__(self, "target", m)


class ConstraintSet:
    """A family {(J_i, sigma_i)} of marginal constraints on a fixed factorization."""

    def __init__(self, dims, constraints):
        self.dims = as_dims(dims)
        parsed = []
        for c in constraints:
            if not isinstance(c, MarginalConstraint):
                keep, target = c
                c = MarginalConstraint(keep, target)
            keep = self.dims.validate_keep(c.keep)
            _as_square(c.target, f"target for keep={keep}", self.dims.local_dims(keep))
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
    def _lattice(self) -> dict[frozenset, tuple[MarginalConstraint, ...]]:
        """Intersection closure of the kept sets, the empty set included.

        Maps each node, largest first, to the constraints containing it: the
        constraint whose kept set is the node first, then the others in
        order, so a kept set's node carries its own sigma. The cost grows with
        the closure, not with 2^m.
        """
        keeps = [frozenset(c.keep) for c in self.constraints]
        nodes = fresh = set(keeps) | {frozenset()}
        while fresh:
            fresh = {s & k for s in fresh for k in keeps} - nodes
            nodes = nodes | fresh
        return {s: tuple(c for k, c in sorted(zip(keeps, self.constraints),
                                              key=lambda kc: kc[0] != s) if s <= k)
                for s in sorted(nodes, key=lambda s: (-len(s), sorted(s)))}

    @cached_property
    def correction_terms(self) -> tuple[tuple[float, tuple[int, ...], object], ...]:
        """Inclusion-exclusion plan: (coefficient, intersection labels, target).

        The maps E_J(X) = tr_{J^c}(X) x I/n_{J^c} satisfy E_J E_K = E_{J & K},
        so the coefficients live on the intersection lattice of the kept sets.
        Moebius inversion (Rota 1964) gives them top down: c(S) = -1 minus
        the c(S') of all nodes S' strictly containing S. Targets come from
        S's first owner in `_lattice`; the empty set carries the trace.
        """
        report = check_consistency(self)
        if not report.consistent:
            raise ValueError(
                f"inconsistent constraint set: max marginal discrepancy "
                f"{report.max_discrepancy:.3e} exceeds {CONSISTENCY_TOL}"
            )
        coef: dict[frozenset, float] = {}
        terms = []
        for s, owners in self._lattice.items():
            coef[s] = w = -1.0 - sum(coef[t] for t in coef if t > s)
            if w != 0.0:
                labels = tuple(sorted(s))
                terms.append((w, labels, _trace_within(owners[0].target, owners[0].keep,
                                                       labels, self.dims)))
        return tuple(sorted(terms, key=lambda term: term[1]))

    @cached_property
    def _nodes(self) -> _NodeTable:
        """Every node a sweep traces its iterate to, as flat arrays: each
        constraint's kept set S, in order, then every other nonempty node of
        the lattice plan. `gather` concatenates the nodes' `_gather` indices
        and `targets` their sigma_S (float64 when all are real), node after
        node; `starts` begins each deficit entry's run, and `bounds`
        delimits the constraints' blocks. Each nonempty term w of
        `correction_terms` lifts w (1/n_{S^c}) D_S onto the entries `lift`:
        `rows` names the deficit entry that each repeats, and `scale` and
        `weight` hold 1/n_{S^c} and w per deficit entry.
        """
        dims, n, terms = self.dims, self.dims.total, self.correction_terms
        targets = {c.keep: c.target for c in self.constraints}
        targets.update((labels, t) for _w, labels, t in terms if labels)
        sizes = [dims.subdim(s) ** 2 for s in targets]
        lengths = np.repeat([n // dims.subdim(s) for s in targets], sizes)   # n_{S^c} per entry
        entries = dict(zip(targets, np.split(np.arange(lengths.size), np.cumsum(sizes)[:-1])))
        flat = np.concatenate([np.ravel(t) for t in targets.values()])
        coef = {labels: w for w, labels, _t in terms}
        lifted = [labels for _w, labels, _t in terms if labels]
        lifted_entries = np.concatenate([entries[s] for s in lifted])
        return _NodeTable(
            gather=np.concatenate([_gather(dims, s)[0] for s in targets]),
            starts=np.cumsum(lengths) - lengths,
            targets=flat if np.any(flat.imag) else flat.real.copy(),
            bounds=tuple(int(b) for b in np.cumsum([0] + sizes[:len(self.constraints)])),
            scale=1.0 / lengths,
            weight=np.repeat([coef.get(s, 0.0) for s in targets], sizes),
            lift=np.concatenate([_gather(dims, s)[0] for s in lifted]),
            rows=np.repeat(lifted_entries, lengths[lifted_entries]))

    @cached_property
    def _dual_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(B, b): an orthonormal basis of span{E x I_{J^c}} over every constraint, and b = <B, X>.

        B is stacked as (m, n, n) Hermitian matrices, orthonormal in the real
        inner product <A, C> = Re tr(A* C); b holds <B_k, X> for any X that
        meets the marginals, computed from the targets as <E, sigma_J>.
        """
        self.correction_terms  # validates consistency, which b assumes
        n = self.dims.total
        lifted, values = [], []
        for c in self.constraints:
            nj = c.target.shape[0]
            gather = _gather(self.dims, c.keep)[0]
            for e in _hermitian_units(nj):
                out = np.zeros((n, n), dtype=complex)
                out.reshape(-1)[gather] = np.repeat((1.0 / (n // nj)) * e.ravel(), n // nj)
                lifted.append(out)   # E x I / n_{J^c}
                values.append(float(np.vdot(e, c.target).real) * nj / n)
        lifted = np.array(lifted)
        flat = lifted.reshape(len(lifted), n * n)
        # generators shared by two constraints leave Gram eigenvalues at
        # rounding level; every independent direction stays far above 1e-10
        w, v = np.linalg.eigh((flat.conj() @ flat.T).real)
        keep = w > 1e-10 * w[-1]
        coef = v[:, keep] / np.sqrt(w[keep])
        return np.tensordot(coef.T, lifted, 1), coef.T @ np.array(values)


def _hermitian_units(m: int):
    """m^2 Hermitian m x m matrices spanning the Hermitian matrices over the reals."""
    for a in range(m):
        for c in range(m):
            e = np.zeros((m, m), dtype=complex)
            if a <= c:
                e[a, c] = e[c, a] = 1.0
            else:
                e[a, c], e[c, a] = 1j, -1j
            yield e


def _trace_within(m: np.ndarray, keep: tuple[int, ...], labels: tuple[int, ...],
                  dims: SystemDims):
    """m, a matrix on the subsystems `keep`, traced down to `labels`; () gives its trace."""
    if not labels:
        return float(np.trace(m).real)
    if labels == keep:
        return m
    return _trace_down(m, dims.local_dims(keep), tuple(keep.index(i) + 1 for i in labels))


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
    at most CONSISTENCY_TOL; a NaN discrepancy counts as inconsistent.
    """
    gaps = [abs(float(np.trace(c.target).real) - 1.0) for c in cs.constraints]
    derived: dict[tuple[int, ...], np.ndarray] = {}
    for s, owners in cs._lattice.items():
        if not s or len(owners) < 2:
            continue
        labels = tuple(sorted(s))
        reduced = [_trace_within(c.target, c.keep, labels, cs.dims) for c in owners]
        derived[labels] = reduced[0]
        gaps += [float(np.linalg.norm(x - y)) for x, y in itertools.combinations(reduced, 2)]
    worst = float(np.max(gaps))  # np.max, unlike max(), propagates NaN
    return ConsistencyReport(consistent=bool(worst <= CONSISTENCY_TOL),
                             derived_marginals=derived, max_discrepancy=worst)


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
    return _project_affine(z, cs, _deficits(z, cs))


def _deficits(x, cs: ConstraintSet) -> np.ndarray:
    """tr_{S^c}(x) - sigma_S for every node of `cs._nodes`, flattened node
    after node into one vector: one gather and one segment sum. Its first
    `cs._nodes.bounds[-1]` entries are the constraints' deficits."""
    nodes = cs._nodes
    return _segment_sums(x, nodes.gather, nodes.starts) - nodes.targets


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
    the cap ends it. The basis is dense, m * n^2 complex numbers for m
    independent marginal directions: 10 MB for all pairs of 6 qubits, 290 MB
    at 8.
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
        grad = (flat.conj() @ x.ravel()).real - b
        return lam, u, x, dual, grad, 0.5 * float(plus @ plus) - float(b @ y)

    y = b - (flat.conj() @ z.ravel()).real
    dual = (y @ flat).reshape(n, n)
    x = _sym(z + dual)   # P_A(z)
    if _positive_definite(x):
        return x, dual, float(np.linalg.norm((flat.conj() @ x.ravel()).real - b)), False
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
        c = (u.conj().T @ basis @ u).reshape(m, n * n)
        h = (c.conj() @ (omega.ravel() * c).T).real
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
