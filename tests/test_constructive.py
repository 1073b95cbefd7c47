import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SystemDims,
    greedy_minmatch,
    hermitize,
    interlace_decomposition,
    kron,
    numerical_rank,
    partial_trace,
    pure_state_from_isospectral,
    random_density,
    random_unitary,
    rank_k_roots_of_unity,
    rank_one_downdate,
    rank_sweep,
    von_neumann,
)
from qmarginals.constructive import _roots_component, greedy_component_vectors

from conftest import load_spectrum

SPEC_A_3x4 = np.array([0.5951, 0.2341, 0.1708])
SPEC_B_3x4 = np.array([0.6124, 0.1926, 0.1654, 0.0296])
SPEC_A_3x6 = np.array([0.8213, 0.1234, 0.0553])
SPEC_B_3x6 = np.array([0.5720, 0.3068, 0.1000, 0.0189, 0.0020, 0.0003])


def check_membership(state, r1, r2, tol=1e-10):
    m = np.array(state)
    n1, n2 = r1.shape[0], r2.shape[0]
    dims = SystemDims((n1, n2))
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-10
    assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
    assert np.abs(partial_trace(m, dims, (1,)) - r1).max() < tol
    assert np.abs(partial_trace(m, dims, (2,)) - r2).max() < tol


def rotated_pair(spec_a, spec_b, seed):
    u = random_unitary(len(spec_a), seed)
    v = random_unitary(len(spec_b), seed + 1)
    return (u * spec_a) @ u.conj().T, (v * spec_b) @ v.conj().T


class TestPureState:
    def test_maximally_mixed_pair_gives_bell_state(self):
        state = pure_state_from_isospectral(np.eye(2) / 2, np.eye(2) / 2)
        w = np.zeros(4)
        w[0] = w[3] = 1 / np.sqrt(2)
        assert np.abs(np.array(state) - np.outer(w, w)).max() < 1e-12

    def test_diagonal_pair(self):
        r = np.diag([0.7, 0.3])
        state = pure_state_from_isospectral(r, r)
        assert numerical_rank(np.array(state)) == 1
        check_membership(state, r, r, tol=1e-12)

    def test_rotated_isospectral(self):
        r1, r2 = rotated_pair([0.6, 0.3, 0.1], [0.6, 0.3, 0.1], 5)
        state = pure_state_from_isospectral(r1, r2)
        assert numerical_rank(np.array(state)) == 1
        check_membership(state, r1, r2)

    def test_mismatched_spectra_rejected(self):
        with pytest.raises(ValueError, match="isospectral"):
            pure_state_from_isospectral(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))


class TestRootsOfUnity:
    def test_rank_one_case(self):
        state = rank_k_roots_of_unity(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), 1)
        e = np.zeros(4)
        e[0] = 1.0
        assert np.abs(np.array(state) - np.outer(e, e)).max() < 1e-12

    def test_table_values_3x4(self):
        state = rank_k_roots_of_unity(np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4), 4)
        m = np.array(state)
        assert numerical_rank(m) == 4
        check_membership(state, np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4), tol=1e-12)
        assert von_neumann(m) == pytest.approx(1.27929, abs=2e-3)

    def test_random_full_rank(self):
        r1 = np.array(random_density((2,), 3))
        r2 = np.array(random_density((3,), 4))
        state = rank_k_roots_of_unity(r1, r2, 3)
        assert numerical_rank(np.array(state)) == 3
        check_membership(state, r1, r2, tol=1e-12)

    def test_component_gram_rank(self):
        # the k lifted components are linearly independent (Fourier rows)
        r1, r2 = np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4)
        k = 5
        omega = np.exp(2j * np.pi / k)
        cols = []
        for i in range(k):
            w = omega ** (np.arange(3) * i) * np.sqrt(SPEC_A_3x4)
            x = omega ** (np.arange(4) * i) * np.sqrt(SPEC_B_3x4)
            cols.append(kron(w, x) / np.sqrt(k))
        gram = np.array([[c1.conj() @ c2 for c2 in cols] for c1 in cols])
        assert np.linalg.matrix_rank(gram, tol=1e-10) == k

    def test_interval_validation(self):
        r1 = np.array(random_density((2,), 5))
        r2 = np.array(random_density((3,), 6))
        for bad in (2, 5):
            with pytest.raises(ValueError, match="admissible"):
                rank_k_roots_of_unity(r1, r2, bad)

    def test_as_many_eigensolves_as_rank_sweep(self, monkeypatch):
        # each marginal is validated and diagonalized once, as in rank_sweep
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        r1, r2 = np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4)
        counts = []
        for build in (rank_k_roots_of_unity, rank_sweep):
            calls.clear()
            build(r1, r2, 5)
            counts.append((calls.count("eigh"), calls.count("eigvalsh")))
        assert counts[0] == counts[1]


def reference_roots_component(a, b, k):
    """The roots-of-unity state as the k-term sum of its Fourier components,
    sum_i z_i z_i* with z_i = (w_i x x_i)/sqrt(k), in the product eigenbasis."""
    n1, n2 = len(a), len(b)
    omega = np.exp(2j * np.pi / k)
    sa, sb = np.sqrt(np.clip(a, 0.0, None)), np.sqrt(np.clip(b, 0.0, None))
    cols = np.empty((n1 * n2, k), dtype=complex)
    ja, jb = np.arange(n1), np.arange(n2)
    for i in range(k):
        w = omega ** (ja * i) * sa
        x = omega ** (jb * i) * sb
        cols[:, i] = kron(w, x) / np.sqrt(k)
    return hermitize(cols @ cols.conj().T)


def roots_cases():
    """(a, b, k) over every admissible k of the rank fixtures and of seeded
    random spectra with zero tails; a, b descending, as the constructions
    pass them."""
    pairs = [tuple(load_spectrum(f"{name}/spectrum_{side}.json") for side in "ab")
             for name in ("rank_3x4", "rank_3x6", "rank_6x8")]
    rng = np.random.default_rng(7)
    for n1, n2, ra, rb in [(3, 4, 2, 3), (4, 4, 4, 1), (5, 3, 3, 3), (6, 8, 4, 6)]:
        spectra = []
        for n, r in ((n1, ra), (n2, rb)):
            v = np.zeros(n)
            v[:r] = np.sort(rng.exponential(size=r))[::-1]
            spectra.append(v / v.sum())
        pairs.append(tuple(spectra))
    for a, b in pairs:
        ra, rb = np.count_nonzero(a), np.count_nonzero(b)
        for k in range(max(ra, rb), ra + rb):
            yield a, b, k


class TestRootsClosedForm:
    def test_matches_the_fourier_sum(self):
        cases = 0
        for a, b, k in roots_cases():
            m = _roots_component(a, b, k)
            assert m.dtype == np.float64
            assert np.abs(m - reference_roots_component(a, b, k)).max() <= 1e-15
            cases += 1
        assert cases == 22

    def test_exact_zeros_off_the_residue_classes(self):
        for a, b, k in roots_cases():
            m = _roots_component(a, b, k)
            p = np.add.outer(np.arange(len(a)), np.arange(len(b))).ravel()
            off = (p[:, None] - p[None, :]) % k != 0
            assert np.all(m[off] == 0.0)
            assert np.array_equal(m, m.T)
            assert numerical_rank(m) == k

    def test_diagonal_marginals_give_a_real_state(self):
        r1 = np.diag(load_spectrum("rank_3x4/spectrum_a.json"))
        r2 = np.diag(load_spectrum("rank_3x4/spectrum_b.json"))
        for k in range(4, 13):
            state = rank_sweep(r1, r2, k).matrix
            assert np.all(state.imag == 0.0)
            check_membership(state, r1, r2, tol=1e-12)

    def test_every_rank_on_6x8(self):
        r1 = np.diag(load_spectrum("rank_6x8/spectrum_a.json"))
        r2 = np.diag(load_spectrum("rank_6x8/spectrum_b.json"))
        for k in range(8, 49):
            state = rank_sweep(r1, r2, k)
            assert numerical_rank(state.matrix) == k
            check_membership(state, r1, r2, tol=1e-12)


class TestRankSweep:
    def test_product_state_at_rank_product(self):
        r1 = np.diag([0.6, 0.4])
        r2 = np.diag([0.5, 0.3, 0.2])
        state = rank_sweep(r1, r2, 6)
        assert np.abs(np.array(state) - kron(r1, r2)).max() < 1e-12

    def test_full_sweep_3x4(self):
        for seed in range(3):
            r1, r2 = rotated_pair(np.array([0.5, 0.3, 0.2]),
                                  np.array([0.4, 0.3, 0.2, 0.1]), 10 + seed)
            for k in range(4, 13):
                state = rank_sweep(r1, r2, k)
                assert numerical_rank(np.array(state)) == k
                check_membership(state, r1, r2)

    def test_isospectral_base_delegates(self):
        values = np.array([0.5, 0.3, 0.2])
        r1, r2 = rotated_pair(values, values, 20)
        state = rank_sweep(r1, r2, 3)
        ref = rank_k_roots_of_unity(r1, r2, 3)
        assert np.abs(np.array(state) - np.array(ref)).max() < 1e-12

    def test_rank_deficient_inputs(self):
        r1 = np.diag([0.7, 0.3, 0.0])
        r2 = np.diag([0.5, 0.5, 0.0, 0.0])
        for k in (2, 3, 4):
            state = rank_sweep(r1, r2, k)
            assert numerical_rank(np.array(state)) == k
            check_membership(state, r1, r2)

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="admissible"):
            rank_sweep(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]), 5)


class TestRankThreshold:
    """An eigenvalue in (1e-12, 1e-10], below the numerical-rank cut, takes
    no part in the low-rank constructions."""

    SPEC_A = np.array([0.6, 0.4 - 5e-11, 5e-11])
    SPEC_B = np.array([0.5, 0.5])

    @pytest.mark.parametrize("build,top", [
        (rank_k_roots_of_unity, lambda ra, rb: ra + rb - 1),
        (rank_sweep, lambda ra, rb: ra * rb),
    ], ids=["roots-of-unity", "sweep"])
    @pytest.mark.parametrize("pair", ["diagonal", "swapped", "rotated"])
    def test_every_admissible_k(self, build, top, pair):
        r1, r2 = {"diagonal": (np.diag(self.SPEC_A), np.diag(self.SPEC_B)),
                  "swapped": (np.diag(self.SPEC_B), np.diag(self.SPEC_A)),
                  "rotated": rotated_pair(self.SPEC_A, self.SPEC_B, 3)}[pair]
        ra, rb = numerical_rank(r1), numerical_rank(r2)
        assert (ra, rb) == (2, 2)
        for k in range(max(ra, rb), top(ra, rb) + 1):
            state = build(r1, r2, k)
            check_membership(state, r1, r2)
            assert numerical_rank(state.matrix) == k


class TestRankNearTheCut:
    """A marginal eigenvalue just above the numerical-rank cut: products of
    eigenvalues fall below it, so some k cannot be reached and are refused."""

    R1 = np.diag([0.6, 0.4])
    R2 = np.diag([0.5, 0.5 - 2e-10, 2e-10])

    @pytest.mark.parametrize("build,reached", [
        (rank_k_roots_of_unity, {3: 3, 4: 3}),
        (rank_sweep, {3: 3, 4: 3, 5: 4, 6: 5}),
    ], ids=["roots-of-unity", "sweep"])
    def test_rank_is_k_or_refused(self, build, reached):
        for k, rank in reached.items():
            if rank == k:
                state = build(self.R1, self.R2, k)
                check_membership(state, self.R1, self.R2)
                assert numerical_rank(state.matrix) == k
            else:
                with pytest.raises(ValueError, match=rf"k={k} not reached: .* rank {rank} "):
                    build(self.R1, self.R2, k)


class TestRankOneDowndate:
    def test_equal_spectra(self):
        a = np.array([0.5, 0.3, 0.2])
        assert np.abs(rank_one_downdate(a, a)).max() == 0.0

    def test_hand_value(self):
        d = rank_one_downdate(np.array([0.7, 0.3]), np.array([0.5, 0.1]))
        assert np.abs(d - [np.sqrt(0.3), np.sqrt(0.1)]).max() < 1e-12
        out = np.diag([0.7, 0.3]) - np.outer(d, d)
        assert np.abs(np.sort(np.linalg.eigvalsh(out)) - [0.1, 0.5]).max() < 1e-10

    def test_duplicate_entries_deflated(self):
        a = np.array([0.5, 0.5, 0.0])
        b = np.array([0.5, 0.2, 0.0])
        d = rank_one_downdate(a, b)
        out = np.diag(a) - np.outer(d, d)
        assert np.abs(np.sort(np.linalg.eigvalsh(out))[::-1] - b).max() < 1e-10

    def test_random_interlacings(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            k = rng.integers(2, 6)
            chain = np.sort(rng.exponential(size=2 * k))[::-1]
            a, b = chain[0::2], chain[1::2]
            d = rank_one_downdate(a, b)
            out = np.diag(a) - np.outer(d, d)
            assert np.abs(np.sort(np.linalg.eigvalsh(out))[::-1] - b).max() < 1e-10

    def test_violation_reported(self):
        with pytest.raises(ValueError, match="interlacing violated"):
            rank_one_downdate(np.array([0.5, 0.4]), np.array([0.6, 0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_naming_the_argument(self, bad):
        # every interlacing comparison is False on NaN
        with pytest.raises(ValueError, match="^a: entries must be finite"):
            rank_one_downdate([0.6, bad], [0.5, 0.1])
        with pytest.raises(ValueError, match="^b: entries must be finite"):
            rank_one_downdate([0.6, 0.3], [0.5, bad])


class TestInterlaceDecomposition:
    def test_isospectral_collapses_to_pure(self):
        values = np.array([0.6, 0.3, 0.1])
        r1, r2 = rotated_pair(values, values, 31)
        state, dec = interlace_decomposition(r1, r2)
        assert len(dec) == 1
        assert numerical_rank(np.array(state)) == 1
        ref = pure_state_from_isospectral(r1, r2)
        check_membership(state, r1, r2)
        assert np.abs(np.array(state) - np.array(ref)).max() < 1e-8

    def test_table_values_3x4(self):
        state, dec = interlace_decomposition(np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4))
        m = np.array(state)
        assert numerical_rank(m) <= 3
        ev = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert ev[0] == pytest.approx(0.9313, abs=2e-3)
        assert von_neumann(m) == pytest.approx(0.297223, abs=2e-3)
        check_membership(state, np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4))

    def test_table_values_3x6(self):
        state, dec = interlace_decomposition(np.diag(SPEC_A_3x6), np.diag(SPEC_B_3x6))
        m = np.array(state)
        assert numerical_rank(m) == 4
        ev = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert ev[0] == pytest.approx(0.690947, abs=2e-3)
        check_membership(state, np.diag(SPEC_A_3x6), np.diag(SPEC_B_3x6))

    def test_decomposition_invariants(self):
        rng = np.random.default_rng(32)
        for trial in range(8):
            n1 = int(rng.integers(2, 5))
            n2 = int(rng.integers(2, 7))
            p1 = rng.exponential(size=n1)
            p2 = rng.exponential(size=n2)
            r1, r2 = rotated_pair(np.sort(p1 / p1.sum())[::-1],
                                  np.sort(p2 / p2.sum())[::-1], 40 + trial)
            state, dec = interlace_decomposition(r1, r2)
            assert len(dec) <= max(numerical_rank(r1), numerical_rank(r2))
            assert np.abs(sum(c for c, _ in dec.pairs) - r1).max() < 1e-10
            assert np.abs(sum(ct for _, ct in dec.pairs) - r2).max() < 1e-10
            for c, ct in dec.pairs:
                sc = np.sort(np.linalg.eigvalsh(c))[::-1][:min(n1, n2)]
                st = np.sort(np.linalg.eigvalsh(ct))[::-1][:min(n1, n2)]
                assert np.abs(sc - st).max() < 1e-10
                assert np.linalg.eigvalsh(c)[0] > -1e-12
                assert np.linalg.eigvalsh(ct)[0] > -1e-12
            check_membership(state, r1, r2)


class TestGreedyMinMatch:
    def test_table_values_3x4(self):
        state, dec = greedy_minmatch(np.diag(SPEC_A_3x4), np.diag(SPEC_B_3x4))
        m = np.array(state)
        ev = np.sort(np.linalg.eigvalsh(m))[::-1]
        # spectrum obtained by hand-running the greedy rounds
        assert np.abs(ev[:3] - [0.9531, 0.0350, 0.0119]).max() < 1e-10
        assert numerical_rank(m) == 3
        assert von_neumann(m) == pytest.approx(0.215848, abs=2e-3)
        assert dec.weights[0] == pytest.approx(np.minimum(SPEC_A_3x4, SPEC_B_3x4[:3]).sum(),
                                               abs=1e-12)

    def test_rank_three_on_closing_example(self):
        r1 = np.diag([7 / 10, 3 / 10])
        r2 = np.diag([3 / 5, 1 / 5, 1 / 5])
        state, dec = greedy_minmatch(r1, r2)
        assert numerical_rank(np.array(state)) == 3
        check_membership(state, r1, r2)
        # while a hand-built rank-2 solution exists for the same marginals
        w1 = np.sqrt(3 / 5) * np.kron([1, 0], [1, 0, 0]) + np.sqrt(1 / 10) * np.kron([0, 1], [0, 1, 0])
        w2 = np.sqrt(1 / 10) * np.kron([1, 0], [0, 1, 0]) + np.sqrt(1 / 5) * np.kron([0, 1], [0, 0, 1])
        hand = np.outer(w1, w1) + np.outer(w2, w2)
        assert numerical_rank(hand) == 2
        check_membership(hand, r1, r2, tol=1e-12)

    def test_spot_value_6x8(self):
        a = load_spectrum("rank_6x8/spectrum_a.json")
        b = load_spectrum("rank_6x8/spectrum_b.json")
        state, _ = greedy_minmatch(np.diag(a), np.diag(b))
        ev = np.sort(np.linalg.eigvalsh(np.array(state)))[::-1]
        assert ev[0] == pytest.approx(0.914875, abs=2e-3)

    def test_orthogonality_and_eigenvalues(self):
        rng = np.random.default_rng(50)
        for trial in range(10):
            n1 = int(rng.integers(2, 5))
            n2 = int(rng.integers(2, 7))
            p1 = rng.exponential(size=n1)
            p2 = rng.exponential(size=n2)
            r1, r2 = rotated_pair(np.sort(p1 / p1.sum())[::-1],
                                  np.sort(p2 / p2.sum())[::-1], 60 + trial)
            state, dec = greedy_minmatch(r1, r2)
            vectors = greedy_component_vectors(r1, r2)
            gram = np.array([[v1.conj() @ v2 for v2 in vectors] for v1 in vectors])
            assert np.abs(gram - np.diag(dec.weights)).max() < 1e-10
            ev = np.sort(np.linalg.eigvalsh(np.array(state)))[::-1][:len(dec)]
            assert np.abs(ev - np.sort(dec.weights)[::-1]).max() < 1e-10
            assert len(dec) <= max(numerical_rank(r1), numerical_rank(r2))
            check_membership(state, r1, r2)

    def test_spectral_norm_maximality(self):
        # feasible states from every other construction, solver runs, and
        # random mixtures of them all stay below the greedy spectral norm
        from qmarginals import SolveOptions, solve_feasible
        rng = np.random.default_rng(70)
        for trial in range(3):
            p1 = rng.exponential(size=3)
            p2 = rng.exponential(size=4)
            r1, r2 = rotated_pair(np.sort(p1 / p1.sum())[::-1],
                                  np.sort(p2 / p2.sum())[::-1], 80 + trial)
            cs = ConstraintSet((3, 4), [((1,), r1), ((2,), r2)])
            g, _ = greedy_minmatch(r1, r2)
            bound = np.linalg.eigvalsh(np.array(g))[-1]
            base = [np.array(interlace_decomposition(r1, r2)[0])]
            base += [np.array(rank_k_roots_of_unity(r1, r2, k)) for k in (4, 5, 6)]
            base += [np.array(rank_sweep(r1, r2, k)) for k in (7, 9, 12)]
            base.append(kron(r1, r2))
            run = solve_feasible(cs, SolveOptions(max_iterations=2000,
                                                  tolerance=1e-11, seed=90 + trial))
            if run.converged:
                base.append(run.solution)
            samples = list(base)
            while len(samples) < 50:
                w = rng.dirichlet(np.ones(len(base)))
                samples.append(sum(wi * b for wi, b in zip(w, base)))
            for sigma in samples:
                lmax = np.linalg.eigvalsh(sigma)[-1]
                assert lmax <= bound + 1e-8
