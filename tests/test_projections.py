import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    MarginalConstraint,
    SolveOptions,
    SystemDims,
    check_consistency,
    kron,
    partial_trace,
    project_bipartite_affine,
    project_intersection,
    project_marginals,
    project_psd,
    project_spectrum,
    pseudoinverse_projection,
    random_density,
    random_unitary,
    solve_feasible,
    vectorize_constraints,
)
from qmarginals import projections
from qmarginals.projections import _project_psd
from qmarginals.tensorcore import _sym

from conftest import (
    load_matrix,
    load_spectrum,
    marginal_correction,
    nested_family,
    random_density_pair,
    random_hermitian,
    subsystem_permutation,
)


def bipartite_cs(r1, r2):
    return ConstraintSet((r1.shape[0], r2.shape[0]), [((1,), r1), ((2,), r2)])


class TestBipartiteAffine:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        r1, r2 = random_density_pair(rng, 2, 3)
        p = kron(r1, r2)
        assert np.abs(project_bipartite_affine(p, r1, r2) - p).max() < 1e-12

    def test_zero_input_uniform_marginals(self):
        out = project_bipartite_affine(np.zeros((4, 4)), np.eye(2) / 2, np.eye(2) / 2)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-14

    def test_constraints_satisfied(self):
        rng = np.random.default_rng(1)
        r1, r2 = random_density_pair(rng, 2, 3)
        p = random_hermitian(rng, 6)
        x = project_bipartite_affine(p, r1, r2)
        dims = SystemDims((2, 3))
        assert np.abs(partial_trace(x, dims, (1,)) - r1).max() < 1e-12
        assert np.abs(partial_trace(x, dims, (2,)) - r2).max() < 1e-12
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-12)

    def test_against_oracle_diagonal_targets(self):
        rng = np.random.default_rng(2)
        p1 = rng.exponential(size=2)
        p2 = rng.exponential(size=3)
        r1, r2 = np.diag(p1 / p1.sum()), np.diag(p2 / p2.sum())
        p = random_hermitian(rng, 6)
        x = project_bipartite_affine(p, r1, r2)
        ref = pseudoinverse_projection(p, vectorize_constraints(bipartite_cs(r1, r2)))
        assert np.abs(x - ref).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project_bipartite_affine(np.zeros((5, 5)), np.eye(2) / 2, np.eye(2) / 2)

    def test_inconsistent_marginals_raise(self):
        # rho1 = I2 has trace 2, rho2 = I3/3 trace 1: no matrix has both
        with pytest.raises(ValueError, match="inconsistent constraint set"):
            project_bipartite_affine(np.zeros((6, 6)), np.eye(2), np.eye(3) / 3)


class TestSpectrumProjection:
    def test_fixed_point(self):
        rng = np.random.default_rng(3)
        rho = np.array(random_density((6,), 4))
        c = np.sort(np.linalg.eigvalsh(rho))[::-1]
        assert np.abs(project_spectrum(rho, c) - rho).max() < 1e-10

    def test_degenerate_input_resolves_to_standard_basis(self):
        out = project_spectrum(np.diag([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12

    def test_sampled_optimality(self):
        rng = np.random.default_rng(5)
        c = load_spectrum("bipartite_2x3/target_spectrum.json")
        p = random_hermitian(rng, 6)
        x = project_spectrum(p, c)
        base = np.linalg.norm(p - x)
        for seed in range(100):
            w = random_unitary(6, seed)
            other = (w * c) @ w.conj().T
            assert base <= np.linalg.norm(p - other) + 1e-10

    def test_eigenvalues_exact(self):
        rng = np.random.default_rng(6)
        c = np.array([0.4, 0.3, 0.2, 0.1])
        x = project_spectrum(random_hermitian(rng, 4), c)
        assert np.abs(np.sort(np.linalg.eigvalsh(x))[::-1] - c).max() < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_spectrum_rejected(self, bad):
        with pytest.raises(ValueError, match="spectrum entries must be finite"):
            project_spectrum(np.eye(2) / 2, [bad, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            project_spectrum(np.eye(3), np.array([1.0, 0.0]))


class TestPsdProjection:
    def test_fixed_point(self):
        rho = np.array(random_density((4,), 7))
        assert np.abs(project_psd(rho) - rho).max() < 1e-12

    def test_clipping(self):
        assert np.abs(project_psd(np.diag([1.0, -1.0])) - np.diag([1.0, 0.0])).max() < 1e-14

    def test_closed_form_two_by_two(self):
        out = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.abs(out - np.array([[0.5, 0.5], [0.5, 0.5]])).max() < 1e-12


def reference_project_psd(z):
    """The PSD projection without the Cholesky test: z - V_ L_ V_* from `eigh`."""
    values, u = np.linalg.eigh(z)
    k = int(np.searchsorted(values, 0.0))
    return _sym(z - (u[:, :k] * values[:k]) @ u[:, :k].conj().T)


def with_spectrum(values, seed, real):
    """U diag(values) U*, exactly Hermitian, with U Haar (real orthogonal when `real`)."""
    n = len(values)
    if real:
        u = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    else:
        u = random_unitary(n, seed)
    return _sym((u * np.asarray(values)) @ u.conj().T)


@pytest.fixture()
def eigh_calls(monkeypatch):
    """A list that counts the `np.linalg.eigh` calls made while the test runs."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestPsdSkip:
    """The PSD step skips `eigh` when a Cholesky factorization succeeds, and
    returns what the `eigh` path returns, bit for bit."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [4, 12, 64])
    def test_positive_definite_input_takes_no_eigh(self, eigh_calls, n, real):
        z = with_spectrum(np.linspace(1e-3, 1.0, n), n, real)
        x = _project_psd(z)
        assert eigh_calls == []
        ref = reference_project_psd(z)
        assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("kind", ["singular", "negative"])
    def test_other_inputs_take_the_eigh_path(self, eigh_calls, kind, real):
        if kind == "singular":
            # the zero row and column leave a zero pivot, which Cholesky refuses
            z = with_spectrum(np.linspace(0.1, 1.0, 12), 3, real)
            z[-1, :] = z[:, -1] = 0.0
        else:
            z = with_spectrum(np.r_[-1e-3, np.linspace(0.1, 1.0, 11)], 3, real)
        x = _project_psd(z)
        assert len(eigh_calls) == 1
        assert x.tobytes() == reference_project_psd(z).tobytes()

    @pytest.mark.parametrize("values", [[0.5, 1.0], [-0.5, 1.0]], ids=["skip", "eigh"])
    def test_result_is_a_new_array(self, values):
        z = with_spectrum(values, 1, False)
        before = z.copy()
        x = project_psd(z)
        assert x is not z
        x[...] = 7.0
        assert np.array_equal(z, before)

    def test_intersection_with_positive_definite_affine_point_takes_no_eigh(self,
                                                                           eigh_calls):
        rng = np.random.default_rng(30)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        z = kron(r1, r2) + 1e-3 * random_hermitian(rng, 6)
        cs._dual_basis   # the basis is built once per set, with an eigh of its Gram matrix
        eigh_calls.clear()
        x, h, gnorm, capped = project_intersection(z, cs)
        assert eigh_calls == [] and not capped
        assert np.abs(x - project_marginals(z, cs)).max() <= 1e-15
        assert np.array_equal(x, x.conj().T) and gnorm <= 1e-14

    def test_chain_instance_pins_its_eigh_calls(self, eigh_calls, monkeypatch):
        """7 qubits, the six nearest-neighbour pairs of 0.2 (product pure state)
        + 0.8 (random state): the last 2 of the 6 Douglas-Rachford sweeps find
        2a - z positive definite and skip `eigh`."""
        rng = np.random.default_rng(0)
        dims = (2,) * 7
        psi = np.ones(1)
        for _ in dims:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = np.kron(psi, v / np.linalg.norm(v))
        rho = 0.2 * np.outer(psi, psi.conj()) + 0.8 * random_density(dims, 0).matrix
        cs = ConstraintSet(dims, [((i, i + 1), partial_trace(rho, dims, (i, i + 1)))
                                  for i in range(1, 7)])
        opts = SolveOptions(tolerance=1e-8)
        rep = solve_feasible(cs, opts)
        assert rep.converged and (rep.iterations, len(eigh_calls)) == (6, 4)
        eigh_calls.clear()
        monkeypatch.setattr(projections, "_positive_definite", lambda z: False)
        ref = solve_feasible(cs, opts)
        assert (ref.iterations, len(eigh_calls)) == (6, 6)
        assert np.array_equal(rep.solution, ref.solution)


class TestMarginalCorrection:
    def test_no_correction_needed(self):
        rng = np.random.default_rng(8)
        dims = SystemDims((2, 2))
        z = random_hermitian(rng, 4)
        sigma = partial_trace(z, dims, (1,))
        assert np.abs(marginal_correction(z, sigma, dims, (1,))).max() < 1e-13

    def test_uniform_fill(self):
        dims = SystemDims((2, 2))
        m = marginal_correction(np.zeros((4, 4)), np.eye(2) / 2, dims, (1,))
        assert np.abs(m + kron(np.eye(2) / 2, np.eye(2) / 2)).max() < 1e-14

    def test_least_squares_orthogonality(self):
        rng = np.random.default_rng(9)
        dims = SystemDims((2, 2, 2))
        z = random_hermitian(rng, 8)
        sigma = np.array(random_density((2, 2), 10))
        m = marginal_correction(z, sigma, dims, (1, 3))
        fixed = z - m
        assert np.abs(partial_trace(fixed, dims, (1, 3)) - sigma).max() < 1e-12
        # correction is orthogonal to the homogeneous constraint subspace
        for _ in range(20):
            x = random_hermitian(rng, 8)
            x -= marginal_correction(x, np.zeros((4, 4)), dims, (1, 3))
            # now tr_{J^c}(x) = 0
            assert np.abs(partial_trace(x, dims, (1, 3))).max() < 1e-12
            assert abs(np.trace(m.conj().T @ x).real) < 1e-10

    def test_literal_permutation_formula(self):
        rng = np.random.default_rng(10)
        dims = SystemDims((2, 3, 2))
        z = random_hermitian(rng, 12)
        sigma = np.array(random_density((2, 2), 11))
        keep = (1, 3)
        m = marginal_correction(z, sigma, dims, keep)
        p = subsystem_permutation(dims, keep)
        deficit = partial_trace(z, dims, keep) - sigma
        ref = p.T @ kron(np.eye(3) / 3, deficit) @ p
        assert np.abs(m - ref).max() < 1e-13


class TestConsistency:
    def test_disjoint_unit_traces(self):
        r1 = np.array(random_density((2,), 1))
        r2 = np.array(random_density((3,), 2))
        cs = bipartite_cs(r1, r2)
        rep = check_consistency(cs)
        assert rep.consistent and rep.max_discrepancy < 1e-12

    def test_overlapping_fixture_targets(self):
        rho23, _ = load_matrix("tripartite_222/rho_23.json")
        rho12, _ = load_matrix("tripartite_222/rho_12.json")
        cs = ConstraintSet((2, 2, 2), [((2, 3), rho23), ((1, 2), rho12)])
        rep = check_consistency(cs)
        assert rep.consistent
        assert (2,) in rep.derived_marginals

    def test_trace_mismatch(self):
        r1 = np.array(random_density((2,), 3))
        r2 = 0.9 * np.array(random_density((3,), 4))
        cs = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
        rep = check_consistency(cs)
        assert not rep.consistent and rep.max_discrepancy >= 0.1 - 1e-12

    def test_incompatible_overlap(self):
        rng = np.random.default_rng(12)
        r12 = np.array(random_density((2, 2), 13))
        r23 = np.array(random_density((2, 2), 14))  # independent: middle marginals differ
        cs = ConstraintSet((2, 2, 2), [((1, 2), r12), ((2, 3), r23)])
        rep = check_consistency(cs)
        assert not rep.consistent

    @pytest.mark.parametrize("eps,consistent", [(1e-9, True), (1e-7, False)])
    def test_overlap_disagreeing_by_eps(self, eps, consistent):
        """The two pair marginals of three qubits disagree on qubit 2 by
        sqrt(2) eps in Frobenius norm, against CONSISTENCY_TOL = 1e-8."""
        half = np.eye(2) / 2
        shifted = half + eps * np.diag([1.0, -1.0])
        cs = ConstraintSet((2, 2, 2), [((1, 2), kron(half, half)),
                                       ((2, 3), kron(shifted, half))])
        rep = check_consistency(cs)
        assert rep.consistent is consistent
        assert abs(rep.max_discrepancy - np.sqrt(2) * eps) <= 1e-3 * eps
        if not consistent:
            with pytest.raises(ValueError, match="inconsistent constraint set"):
                project_marginals(np.eye(8) / 8, cs)


class TestProjectMarginals:
    def test_fixed_point(self):
        rng = np.random.default_rng(15)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        z = kron(r1, r2)
        assert np.abs(project_marginals(z, cs) - z).max() < 1e-12

    def test_matches_bipartite_closed_form(self):
        # project_bipartite_affine is project_marginals on the bipartite set
        rng = np.random.default_rng(16)
        for profile in ((2, 3), (2, 2), (3, 3), (3, 4)):
            for _ in range(5):
                r1, r2 = random_density_pair(rng, *profile)
                z = random_hermitian(rng, profile[0] * profile[1])
                a = project_marginals(z, bipartite_cs(r1, r2))
                assert np.array_equal(a, project_bipartite_affine(z, r1, r2))

    def test_single_constraint_degenerates(self):
        rng = np.random.default_rng(17)
        dims = SystemDims((2, 2, 2))
        sigma = np.array(random_density((2, 2), 18))
        cs = ConstraintSet(dims, [((1, 2), sigma)])
        z = random_hermitian(rng, 8)
        expected = z - marginal_correction(z, sigma, dims, (1, 2))
        assert np.abs(project_marginals(z, cs) - expected).max() < 1e-13

    def test_overlapping_constraints_against_oracle(self):
        rho23, _ = load_matrix("tripartite_222/rho_23.json")
        rho12, _ = load_matrix("tripartite_222/rho_12.json")
        cs = ConstraintSet((2, 2, 2), [((2, 3), rho23), ((1, 2), rho12)])
        vc = vectorize_constraints(cs)
        rng = np.random.default_rng(19)
        for _ in range(20):
            z = random_hermitian(rng, 8)
            got = project_marginals(z, cs)
            ref = pseudoinverse_projection(z, vc)
            assert np.abs(got - ref).max() < 1e-10
            assert np.abs(partial_trace(got, cs.dims, (2, 3)) - rho23).max() < 1e-10
            assert np.abs(partial_trace(got, cs.dims, (1, 2)) - rho12).max() < 1e-10

    def test_nested_family_meets_every_target_and_the_oracle(self):
        # the node {2} is the kept set of sigma_2 and lies in both pairs: its
        # plan term targets sigma_2 itself, not a pair target traced down
        cs = nested_family()
        sigma12, sigma23, sigma2 = (c.target for c in cs)
        assert {labels: t for _w, labels, t in cs.correction_terms}[(2,)] is sigma2
        vc = vectorize_constraints(cs)
        rng = np.random.default_rng(22)
        for _ in range(10):
            z = random_hermitian(rng, 8)
            got = project_marginals(z, cs)
            for keep, sigma in [((1, 2), sigma12), ((2, 3), sigma23), ((2,), sigma2)]:
                assert np.abs(partial_trace(got, cs.dims, keep) - sigma).max() <= 1e-12
            assert np.abs(got - pseudoinverse_projection(z, vc)).max() <= 1e-12

    def test_tripartite_term_structure(self):
        # overlapping keep-sets {2,3} and {1,2}: the shared middle marginal
        # enters once, with the identity factors normalized by their orders
        rho23, _ = load_matrix("tripartite_222/rho_23.json")
        rho12, _ = load_matrix("tripartite_222/rho_12.json")
        dims = SystemDims((2, 2, 2))
        cs = ConstraintSet(dims, [((2, 3), rho23), ((1, 2), rho12)])
        gamma = partial_trace(rho23, SystemDims((2, 2)), (1,))
        rng = np.random.default_rng(20)
        z = random_hermitian(rng, 8)
        expected = (
            z
            - kron(np.eye(2) / 2, partial_trace(z, dims, (2, 3)) - rho23)
            - kron(partial_trace(z, dims, (1, 2)) - rho12, np.eye(2) / 2)
            + kron(np.eye(2) / 2, kron(partial_trace(z, dims, (2,)) - gamma, np.eye(2) / 2))
        )
        assert np.abs(project_marginals(z, cs) - expected).max() < 1e-12

    def test_inconsistent_rejected(self):
        r1 = np.array(random_density((2,), 3))
        r2 = 0.9 * np.array(random_density((3,), 4))
        cs = ConstraintSet((2, 3), [((1,), r1), ((2,), r2)])
        with pytest.raises(ValueError, match="inconsistent"):
            project_marginals(np.eye(6) / 6, cs)


class TestProjectionInvariants:
    PROFILES = [(2, 2), (2, 3), (3, 3)]

    def test_idempotence(self):
        rng = np.random.default_rng(21)
        for n1, n2 in self.PROFILES:
            r1, r2 = random_density_pair(rng, n1, n2)
            cs = bipartite_cs(r1, r2)
            z = random_hermitian(rng, n1 * n2)
            for phi in (lambda m: project_marginals(m, cs),
                        project_psd,
                        lambda m: project_spectrum(m, np.linspace(0.4, 0.0, n1 * n2))):
                once = phi(z)
                assert np.abs(phi(once) - once).max() < 1e-10

    def test_nonexpansiveness(self):
        rng = np.random.default_rng(22)
        r1, r2 = random_density_pair(rng, 2, 3)
        cs = bipartite_cs(r1, r2)
        for _ in range(10):
            x = random_hermitian(rng, 6)
            y = random_hermitian(rng, 6)
            dist = np.linalg.norm(x - y)
            assert np.linalg.norm(project_marginals(x, cs) - project_marginals(y, cs)) <= dist + 1e-12
            assert np.linalg.norm(project_psd(x) - project_psd(y)) <= dist + 1e-12

    def test_affine_map_linearity(self):
        rng = np.random.default_rng(23)
        r1, r2 = random_density_pair(rng, 2, 2)
        cs = bipartite_cs(r1, r2)

        def correction(m):
            return m - project_marginals(m, cs)

        x = random_hermitian(rng, 4)
        y = random_hermitian(rng, 4)
        # affine offset cancels in the difference quotient
        base = correction(np.zeros((4, 4)))
        lin = lambda m: correction(m) - base
        assert np.abs(lin(x + y) - lin(x) - lin(y)).max() < 1e-12
        assert np.abs(lin(2.5 * x) - 2.5 * lin(x)).max() < 1e-12

    def test_psd_sampled_optimality(self):
        rng = np.random.default_rng(24)
        z = random_hermitian(rng, 4)
        x = project_psd(z)
        base = np.linalg.norm(z - x)
        for seed in range(100):
            w = 2.0 * np.array(random_density((4,), seed))  # random PSD
            assert base <= np.linalg.norm(z - w) + 1e-10


class TestConstraintSetValidation:
    def test_duplicate_keeps_rejected(self):
        r = np.array(random_density((2,), 0))
        with pytest.raises(ValueError, match="duplicate kept-index set 1 "):
            ConstraintSet((2, 2), [((1,), r), ((1,), r)])
        with pytest.raises(ValueError, match="duplicate kept-index set 1,2 "):
            ConstraintSet((2, 2, 2), [((1, 2), np.eye(4) / 4), ((2, 1), np.eye(4) / 4)])

    def test_order_mismatch_rejected(self):
        r = np.array(random_density((3,), 0))
        with pytest.raises(ValueError, match="order"):
            ConstraintSet((2, 2), [((1,), r)])

    def test_marginal_constraint_normalizes_keep(self):
        c = MarginalConstraint((2, 1), np.eye(4) / 4)
        assert c.keep == (1, 2)
