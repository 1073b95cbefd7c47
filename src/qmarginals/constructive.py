"""Direct constructions of bipartite states with prescribed marginals.

Every routine here is non-iterative: given reduced states rho1 and rho2 it
assembles a global state by explicit spectral surgery, with the achieved
rank controlled by the construction. Complementing the solvers, these also
provide good starting points for the rank-capped iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorcore import (
    DensityMatrix,
    SystemDims,
    density_input,
    hermitize,
    kron,
    numerical_rank,
    swap_bipartite,
    _finite,
)

TIE_EPS = 1e-12       # spectral ties within this width may chain either way
RADICAND_CLIP = 1e-12
ISOSPECTRAL_TOL = 1e-8
INTERLACE_TOL = 1e-10  # interlacing violations up to this width count as round-off


@dataclass(frozen=True)
class IsospectralDecomposition:
    """Splitting rho1 = sum C_i, rho2 = sum C~_i into isospectral PSD pairs.

    Each pair carries the same nonzero spectrum, so it lifts to a pure state
    on the product space; the weights are the pair traces.
    """

    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.pairs)


def _marginal_pair(rho1, rho2):
    r1 = density_input(rho1, "rho1")
    r2 = density_input(rho2, "rho2")
    return r1, r2, r1.shape[0], r2.shape[0]


def _phase_fixed_eig(m):
    """(values, vectors) of a Hermitian matrix, eigenvalues descending.

    Only the lower triangle of `m` is read, as LAPACK does. Degenerate
    clusters keep the backend's ordering (stable sort); each eigenvector is
    phase-fixed so its largest-magnitude entry is real positive. The
    constructions assemble states from these vectors, so the fix makes
    their outputs reproducible; U f(Lambda) U* elsewhere needs no fix.
    """
    values, vectors = np.linalg.eigh(m)
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    # a unit column has an entry of magnitude >= 1/sqrt(n), so no pivot is 0;
    # np.hypot rounds each magnitude as scalar abs() does, np.abs on an array
    # can differ in the last bit (tests/test_kernels.py pins the phases)
    pivots = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    vectors *= pivots.conj() / np.hypot(pivots.real, pivots.imag)
    return values, vectors


def _ranked_eig(m):
    """(values, vectors, r): descending eigenpairs whose values beyond the
    numerical rank r are set to zero, so that a construction uses exactly
    the eigenvalues that `numerical_rank` counts, the others exact zeros."""
    values, vectors = _phase_fixed_eig(m)
    r = numerical_rank(values)
    values[r:] = 0.0
    return values, vectors, r


def _lift(weights, u, v) -> np.ndarray:
    """sum_i sqrt(w_i) (u_i x v_i) over the columns u_i of u and v_i of v:
    for orthonormal columns its reductions are sum w_i u_i u_i* and
    sum w_i v_i v_i*."""
    return np.einsum("i,ai,bi->ab", np.sqrt(weights), u, v).ravel()


def pure_state_from_isospectral(rho1, rho2) -> DensityMatrix:
    """Rank-one state with marginals rho1, rho2 (which must be isospectral).

    With rho1 = sum gamma_i x_i x_i* and rho2 = sum gamma_i y_i y_i*, the
    vector w = sum sqrt(gamma_i) (x_i x y_i) satisfies tr_2(ww*) = rho1 and
    tr_1(ww*) = rho2; eigenvalues are paired in descending order.
    """
    r1, r2, n1, n2 = _marginal_pair(rho1, rho2)
    a, u, ra = _ranked_eig(r1)
    b, v, rb = _ranked_eig(r2)
    r = max(ra, rb)
    if ra != rb or np.max(np.abs(a[:r] - b[:r])) > ISOSPECTRAL_TOL:
        raise ValueError(
            f"marginals are not isospectral within {ISOSPECTRAL_TOL}: "
            f"spectra {np.round(a[:max(ra, 1)], 6)} vs {np.round(b[:max(rb, 1)], 6)}"
        )
    w = _lift(a[:r], u[:, :r], v[:, :r])
    w /= np.linalg.norm(w)
    return DensityMatrix(np.outer(w, w.conj()), SystemDims((n1, n2)))


def rank_k_roots_of_unity(rho1, rho2, k: int) -> DensityMatrix:
    """Rank-k state from k pure components built on k-th roots of unity.

    Admissible k: max(rank rho1, rank rho2) <= k <= rank rho1 + rank rho2 - 1.
    Component i is z_i = (U w_i x V x_i)/sqrt(k) with w_i[j] = omega^(ij) sqrt(a_j).
    Averaging over a full period of phases leaves sum_c s_c s_c^T, where s_c
    is sqrt(a) x sqrt(b) on the residue class c of j + l (mod k): a real state
    with exact zeros between classes, whose k disjoint classes are the
    independent components and reproduce both marginals. On this interval it
    is `rank_sweep`, which applies the construction directly. Raises
    ValueError when the result falls short of numerical rank k.
    """
    return _rank_k(rho1, rho2, k, lambda ra, rb: ra + rb - 1)


def _roots_component(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    # product eigenbasis, a and b descending; (1/k) sum_i omega^(i d) = [d = 0 (mod k)]
    s = kron(np.sqrt(np.clip(a, 0.0, None)), np.sqrt(np.clip(b, 0.0, None)))
    p = np.add.outer(np.arange(len(a)), np.arange(len(b))).ravel()
    return np.outer(s, s) * ((p[:, None] - p[None, :]) % k == 0)


def rank_sweep(rho1, rho2, k: int) -> DensityMatrix:
    """A state of numerical rank exactly k for any k up to rank(rho1)*rank(rho2).

    Below rank rho1 + rank rho2 the roots-of-unity construction applies
    directly; beyond it, the smallest eigenvalue of the larger-rank marginal
    is split off as a product block (diagonal slot tensored with the other
    marginal) and the remainder recurses on the reduced, renormalized
    spectrum. The two pieces occupy disjoint slots, so ranks add exactly.
    Raises ValueError when the result falls short of numerical rank k, as it
    does when a marginal eigenvalue lies just above the rank cut.
    """
    return _rank_k(rho1, rho2, k, lambda ra, rb: ra * rb)


def _rank_k(rho1, rho2, k: int, top) -> DensityMatrix:
    """The state of `rank_sweep`, for k from max(ra, rb) to top(ra, rb)."""
    r1, r2, n1, n2 = _marginal_pair(rho1, rho2)
    a, u, ra = _ranked_eig(r1)
    b, v, rb = _ranked_eig(r2)
    lo, hi = max(ra, rb), top(ra, rb)
    if not lo <= k <= hi:
        raise ValueError(f"k={k} outside the admissible interval [{lo}, {hi}]")
    m = _sweep_component(a, b, k)
    big = kron(u, v)
    return _of_rank(DensityMatrix(hermitize(big @ m @ big.conj().T), SystemDims((n1, n2))), k)


def _of_rank(state: DensityMatrix, k: int) -> DensityMatrix:
    """`state`, checked to have numerical rank k.

    A marginal eigenvalue just above the rank cut can put products of
    eigenvalues below it, and with them the rank below k. Counts the
    eigenvalues that the state's PSD check computed.
    """
    rank = numerical_rank(state._eigenvalues)
    if rank != k:
        raise ValueError(f"k={k} not reached: the constructed state has numerical rank "
                         f"{rank} (a marginal eigenvalue lies too close to the rank cut)")
    return state


def _sweep_component(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    n1, n2 = len(a), len(b)
    ra, rb = np.count_nonzero(a), np.count_nonzero(b)
    if k <= ra + rb - 1:
        return _roots_component(a, b, k)
    if ra > rb:
        return swap_bipartite(_sweep_component(b, a, k), n2, n1)
    slot = rb - 1
    t = b[slot]
    rest = b.copy()
    rest[slot] = 0.0
    rest /= 1.0 - t
    tau = _sweep_component(a, rest, k - ra)
    e = np.zeros(n2)
    e[slot] = 1.0
    return (1.0 - t) * tau + t * kron(np.diag(a), np.diag(e))


def rank_one_downdate(a, b) -> np.ndarray:
    """Vector d with eig(diag(a) - dd^T) = b under interlacing a1>=b1>=a2>=...>=bk>=0.

    Exactly matched entries (a_i == b_i, which interlacing forces whenever
    a has duplicates or zeros) are deflated with d_i = 0; the remaining
    strictly separated entries use the characteristic-polynomial product
    formula. Interlacing violations up to INTERLACE_TOL are accepted as
    round-off, and radicands down to -RADICAND_CLIP are clipped to zero.
    """
    a = _finite(np.asarray(a, dtype=float).ravel(), "a")
    b = _finite(np.asarray(b, dtype=float).ravel(), "b")
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    k = len(a)
    chain = np.empty(2 * k)
    chain[0::2] = a
    chain[1::2] = b
    for i in range(2 * k - 1):
        if chain[i + 1] > chain[i] + INTERLACE_TOL:
            hi_name = ("a" if i % 2 == 0 else "b") + f"[{i // 2}]"
            lo_name = ("b" if i % 2 == 0 else "a") + f"[{(i + 1) // 2}]"
            raise ValueError(
                f"interlacing violated: {lo_name}={chain[i + 1]} > {hi_name}={chain[i]}"
            )
    if b[-1] < -INTERLACE_TOL:
        raise ValueError(f"interlacing violated: b[{k - 1}]={b[-1]} < 0")
    d = np.zeros(k)
    scale = max(1.0, float(a[0]) if k else 1.0)
    active = [i for i in range(k) if abs(a[i] - b[i]) > 1e-15 * scale]
    if not active:
        return d
    aa = a[active]
    bb = b[active]
    for t in range(len(active)):
        num = float(np.prod(bb - aa[t]))
        if len(active) > 1:
            others = np.delete(aa, t)
            den = -float(np.prod(others - aa[t]))
            rad = num / den
        else:
            rad = -num
        if rad < 0.0:
            if rad < -RADICAND_CLIP:
                raise ValueError(f"downdate formula produced radicand {rad}; "
                                 "inputs too far from interlacing")
            rad = 0.0
        d[active[t]] = np.sqrt(rad)
    return d


def _alternating_chains(va: np.ndarray, vb: np.ndarray):
    """Partition the positive entries of two descending spectra into chains.

    A chain starts at the largest value still unassigned and alternates
    sides greedily, each step taking the largest remaining value on the
    opposite side that does not exceed the last one taken. Chains starting
    on the a side are interlacings a>=b>=a>=..., chains starting on the b
    side the reverse; values whose chain never completes a pair are
    leftovers. Ties within TIE_EPS chain up rather than split, so
    numerically isospectral inputs collapse into a single chain.
    """
    avail_a = [(float(va[s]), s) for s in range(len(va)) if va[s] > 0]
    avail_b = [(float(vb[s]), s) for s in range(len(vb)) if vb[s] > 0]
    chains: list[tuple[str, list[int], list[int]]] = []
    left_a: list[int] = []
    left_b: list[int] = []

    def take_le(avail, cur):
        for idx, (val, _slot) in enumerate(avail):
            if val <= cur + TIE_EPS:
                return avail.pop(idx)
        return None

    while avail_a or avail_b:
        head_a = avail_a[0][0] if avail_a else -np.inf
        head_b = avail_b[0][0] if avail_b else -np.inf
        start_a = head_a >= head_b - TIE_EPS
        first, second = (avail_a, avail_b) if start_a else (avail_b, avail_a)
        a_slots: list[int] = []
        b_slots: list[int] = []
        cur = np.inf
        while True:
            lead = take_le(first, cur)
            if lead is None:
                break
            mate = take_le(second, lead[0])
            if mate is None:
                first.append(lead)
                first.sort(key=lambda t: (-t[0], t[1]))
                break
            if start_a:
                a_slots.append(lead[1])
                b_slots.append(mate[1])
            else:
                b_slots.append(lead[1])
                a_slots.append(mate[1])
            cur = mate[0]
        if a_slots:
            chains.append(("S" if start_a else "T", a_slots, b_slots))
        else:
            _val, slot = first.pop(0)
            (left_a if start_a else left_b).append(slot)
    return chains, left_a, left_b


def _pair_pure_vector(c: np.ndarray, ct: np.ndarray) -> np.ndarray:
    """The lift of an isospectral pair, its eigenpairs matched in descending order."""
    wc, uc, _ = _ranked_eig(c)
    wt, vt, _ = _ranked_eig(ct)
    m = min(len(wc), len(wt))
    return _lift((wc[:m] + wt[:m]) / 2, uc[:, :m], vt[:, :m])


def _assemble(pairs, vectors, n1: int, n2: int):
    """(sum of w w* over the pure vectors, the decomposition into `pairs`)."""
    rho = np.zeros((n1 * n2, n1 * n2), dtype=complex)
    for w in vectors:
        rho += np.outer(w, w.conj())
    decomposition = IsospectralDecomposition(
        pairs=tuple(pairs), weights=tuple(float(np.trace(c).real) for c, _ in pairs))
    return DensityMatrix(hermitize(rho), SystemDims((n1, n2))), decomposition


def interlace_decomposition(rho1, rho2):
    """Split the marginals into isospectral pairs by interlacing downdates.

    Each sweep diagonalizes the running remainders, extracts alternating
    chains from the merged spectra, and removes one isospectral pair: on a
    chain's dominant side the interlaced sub-block is downdated by a rank-one
    vector so its eigenvalues match the other side's, whose values transfer
    unchanged. The downdate residues and unpaired values form the next
    remainders. At most max(rank rho1, rank rho2) pairs are produced; the
    assembled state is the sum of the pairs' lifted pure states.
    """
    r1, r2, n1, n2 = _marginal_pair(rho1, rho2)
    a_rem = r1.copy()
    b_rem = r2.copy()
    pairs = []
    for _ in range(4 * (n1 + n2)):
        va, ua, ra = _ranked_eig(a_rem)
        vb, vbv, rb = _ranked_eig(b_rem)
        if ra == rb == 0:
            break
        chains, left_a, left_b = _alternating_chains(va, vb)
        if not chains:
            raise RuntimeError("decomposition stalled: no chains on nonzero remainders")
        ca = np.zeros((n1, n1))
        cb = np.zeros((n2, n2))
        rem_a = np.zeros((n1, n1))
        rem_b = np.zeros((n2, n2))
        for kind, a_slots, b_slots in chains:
            if kind == "S":
                x = rank_one_downdate(va[a_slots], vb[b_slots])
                ca[np.ix_(a_slots, a_slots)] = np.diag(va[a_slots]) - np.outer(x, x)
                rem_a[np.ix_(a_slots, a_slots)] = np.outer(x, x)
                cb[b_slots, b_slots] = vb[b_slots]
            else:
                y = rank_one_downdate(vb[b_slots], va[a_slots])
                cb[np.ix_(b_slots, b_slots)] = np.diag(vb[b_slots]) - np.outer(y, y)
                rem_b[np.ix_(b_slots, b_slots)] = np.outer(y, y)
                ca[a_slots, a_slots] = va[a_slots]
        for s in left_a:
            rem_a[s, s] = va[s]
        for s in left_b:
            rem_b[s, s] = vb[s]
        pairs.append((
            hermitize(ua @ ca @ ua.conj().T),
            hermitize(vbv @ cb @ vbv.conj().T),
        ))
        a_rem = hermitize(ua @ rem_a @ ua.conj().T)
        b_rem = hermitize(vbv @ rem_b @ vbv.conj().T)
    else:
        raise RuntimeError("interlace decomposition failed to terminate")
    return _assemble(pairs, [_pair_pure_vector(c, ct) for c, ct in pairs], n1, n2)


def _greedy_rounds(r1, r2, n1, n2):
    va, ua, _ = _ranked_eig(r1)
    vb, vbv, _ = _ranked_eig(r2)
    a = va.copy()
    b = vb.copy()
    m = min(n1, n2)
    pairs = []
    vectors = []
    for _ in range(n1 + n2):
        if a.sum() <= 1e-14 and b.sum() <= 1e-14:
            break
        # stable sort keeps ties in original slot order
        sa = np.argsort(-a, kind="stable")
        sb = np.argsort(-b, kind="stable")
        c = np.minimum(a[sa[:m]], b[sb[:m]])
        if c.sum() <= 1e-14:
            break
        on = c > 0.0
        ca = np.zeros((n1, n1))
        cb = np.zeros((n2, n2))
        ca[sa[:m][on], sa[:m][on]] = c[on]
        cb[sb[:m][on], sb[:m][on]] = c[on]
        # subtracting the exact minimum zeroes one side of each match
        a[sa[:m]] -= c
        b[sb[:m]] -= c
        pairs.append((
            hermitize(ua @ ca @ ua.conj().T),
            hermitize(vbv @ cb @ vbv.conj().T),
        ))
        vectors.append(_lift(c[on], ua[:, sa[:m][on]], vbv[:, sb[:m][on]]))
    return pairs, vectors


def greedy_minmatch(rho1, rho2):
    """Greedy min-matching decomposition; maximizes the spectral norm.

    Working in the fixed eigenbases of the marginals, each round matches the
    current spectra slot-by-slot in descending order and removes the
    entrywise minimum from both sides. The lifted pure vectors of the rounds
    are mutually orthogonal, so the output eigenvalues are exactly the round
    traces, the first of which is sum_j min(a_j, b_j): the largest spectral
    norm attainable for the given marginals.
    """
    r1, r2, n1, n2 = _marginal_pair(rho1, rho2)
    return _assemble(*_greedy_rounds(r1, r2, n1, n2), n1, n2)


def greedy_component_vectors(rho1, rho2) -> list[np.ndarray]:
    """The orthogonal pure vectors underlying greedy_minmatch."""
    r1, r2, n1, n2 = _marginal_pair(rho1, rho2)
    return _greedy_rounds(r1, r2, n1, n2)[1]
