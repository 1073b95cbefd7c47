import re

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    DensityMatrix,
    SolveOptions,
    SystemDims,
    as_spectrum,
    dykstra_project,
    grad_renyi,
    grad_von_neumann_objective,
    greedy_minmatch,
    hermitize,
    kron,
    marginal_residual,
    numerical_rank,
    partial_trace,
    project_intersection,
    project_marginals,
    project_psd,
    project_spectrum,
    pseudoinverse_projection,
    random_density,
    random_probability_vector,
    random_unitary,
    vectorize_constraints,
)
from qmarginals.constructive import _phase_fixed_eig
from qmarginals.tensorcore import density_input, kron_all, swap_bipartite

from conftest import random_hermitian, subsystem_permutation


def brute_force_partial_trace(rho, dims, keep):
    """Index-sum reference: entry-by-entry contraction over discarded labels."""
    dims = list(dims)
    k = len(dims)
    keep0 = sorted(i - 1 for i in keep)
    drop0 = [i for i in range(k) if i not in keep0]
    kdims = [dims[i] for i in keep0]
    nj = int(np.prod(kdims))
    out = np.zeros((nj, nj), dtype=complex)
    for r in range(nj):
        for c in range(nj):
            rm = np.unravel_index(r, kdims)
            cm = np.unravel_index(c, kdims)
            total = 0.0
            for t in np.ndindex(*(dims[i] for i in drop0)):
                row = [0] * k
                col = [0] * k
                for pos, i in enumerate(keep0):
                    row[i] = rm[pos]
                    col[i] = cm[pos]
                for pos, i in enumerate(drop0):
                    row[i] = t[pos]
                    col[i] = t[pos]
                total += rho[np.ravel_multi_index(row, dims),
                             np.ravel_multi_index(col, dims)]
            out[r, c] = total
    return out


class TestSystemDims:
    def test_total(self):
        d = SystemDims((2, 2, 3))
        assert d.total == 12 and d.k == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystemDims((2, 0))
        with pytest.raises(ValueError):
            SystemDims(())

    def test_keep_validation(self):
        d = SystemDims((2, 3))
        assert d.validate_keep([2, 1]) == (1, 2)
        with pytest.raises(ValueError):
            d.validate_keep([3])
        with pytest.raises(ValueError):
            d.validate_keep([])


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
        assert np.allclose(out, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_index_formula(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                for p in range(3):
                    for q in range(3):
                        assert out[3 * i + p, 3 * j + q] == pytest.approx(a[i, j] * b[p, q])


class TestPartialTrace:
    def test_product_state(self):
        r1 = np.array(random_density((2,), 1))
        r2 = np.array(random_density((3,), 2))
        out = partial_trace(kron(r1, r2), SystemDims((2, 3)), (1,))
        assert np.abs(out - r1).max() < 1e-12

    def test_bell_state(self):
        w = np.zeros(4)
        w[0] = w[3] = 1 / np.sqrt(2)
        rho = np.outer(w, w)
        out = partial_trace(rho, SystemDims((2, 2)), (2,))
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_brute_force_three_party(self):
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 12)
        dims = SystemDims((2, 2, 3))
        got = partial_trace(rho, dims, (1, 3))
        ref = brute_force_partial_trace(rho, (2, 2, 3), (1, 3))
        assert np.abs(got - ref).max() < 1e-12

    def test_linearity_and_trace(self):
        rng = np.random.default_rng(6)
        dims = SystemDims((2, 3))
        a = random_hermitian(rng, 6)
        b = random_hermitian(rng, 6)
        al, be = rng.normal(size=2)
        lhs = partial_trace(al * a + be * b, dims, (2,))
        rhs = al * partial_trace(a, dims, (2,)) + be * partial_trace(b, dims, (2,))
        assert np.abs(lhs - rhs).max() < 1e-12
        assert np.trace(partial_trace(a, dims, (1,))) == pytest.approx(np.trace(a), abs=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(7)
        dims = SystemDims((2, 2, 3))
        rho = random_hermitian(rng, 12)
        via = partial_trace(partial_trace(rho, dims, (1, 3)), SystemDims((2, 3)), (2,))
        direct = partial_trace(rho, dims, (3,))
        assert np.abs(via - direct).max() < 1e-12

    def test_permutation_consistency(self):
        # tracing down to J equals a full trace over the leading block
        # structure after reordering complement-first
        rng = np.random.default_rng(8)
        dims = SystemDims((2, 2, 2))
        rho = random_hermitian(rng, 8)
        keep = (2,)
        p = subsystem_permutation(dims, keep)
        sorted_rho = p @ rho @ p.T
        ref = partial_trace(sorted_rho, SystemDims((4, 2)), (2,))
        assert np.abs(partial_trace(rho, dims, keep) - ref).max() < 1e-12

    def test_unitary_covariance(self):
        rng = np.random.default_rng(9)
        dims = SystemDims((2, 3))
        rho = random_hermitian(rng, 6)
        u = random_unitary(2, 3)
        v = random_unitary(3, 4)
        big = kron(u, v)
        lhs = partial_trace(big @ rho @ big.conj().T, dims, (1,))
        rhs = u @ partial_trace(rho, dims, (1,)) @ u.conj().T
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), SystemDims((2, 3)), (1,))
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), SystemDims((2, 3)), ())


class TestSubsystemPermutation:
    def test_full_keep_is_identity(self):
        p = subsystem_permutation(SystemDims((2, 3)), (1, 2))
        assert np.array_equal(p, np.eye(6))

    def test_two_party_swap(self):
        # keeping subsystem 1 puts the complement {2} first: e_i x e_j -> e_j x e_i
        p = subsystem_permutation(SystemDims((2, 2)), (1,))
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(p, swap)
        rng = np.random.default_rng(1)
        for _ in range(16):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            assert np.abs(p @ kron(a, b) @ p.T - kron(b, a)).max() < 1e-12

    def test_defining_property_three_party(self):
        rng = np.random.default_rng(2)
        dims = SystemDims((2, 2, 2))
        p = subsystem_permutation(dims, (2,))
        for _ in range(20):
            mats = [random_hermitian(rng, 2) for _ in range(3)]
            lhs = p @ kron_all(mats) @ p.T
            rhs = kron_all([mats[0], mats[2], mats[1]])
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_swap_bipartite(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        assert np.abs(swap_bipartite(kron(a, b), 2, 3) - kron(b, a)).max() < 1e-12


class TestHermitianEig:
    def test_identity(self):
        values, _ = _phase_fixed_eig(np.eye(3))
        assert np.allclose(values, 1.0)

    def test_two_by_two_closed_form(self):
        values, vectors = _phase_fixed_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(values, [1.0, -1.0])
        # phase fix resolves both columns to real vectors with positive anchor
        s = 1 / np.sqrt(2)
        assert np.abs(vectors[:, 0] - np.array([s, s])).max() < 1e-12
        assert np.abs(vectors[:, 1] - np.array([s, -s])).max() < 1e-12

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 7, scale=3.0)
        values, vectors = _phase_fixed_eig(h)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)
        assert np.all(np.diff(values) <= 1e-14)
        assert np.abs(vectors.conj().T @ vectors - np.eye(7)).max() < 1e-10

    def test_degenerate_stability(self):
        # stable ordering keeps the backend's basis for equal eigenvalues
        values, vectors = _phase_fixed_eig(np.diag([0.5, 0.5]))
        assert np.allclose(values, [0.5, 0.5])
        assert np.abs(vectors - np.eye(2)).max() < 1e-14

    def test_determinism(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 6)
        e1 = _phase_fixed_eig(h)
        e2 = _phase_fixed_eig(h.copy())
        assert np.array_equal(e1[0], e2[0])
        assert np.array_equal(e1[1], e2[1])


class TestRandomGeneration:
    def test_unitary_unit_case(self):
        u = random_unitary(1, 0)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for seed in range(5):
            u = random_unitary(5, seed)
            assert np.abs(u.conj().T @ u - np.eye(5)).max() < 1e-12

    def test_unitary_determinism(self):
        assert np.array_equal(random_unitary(4, 42), random_unitary(4, 42))

    def test_probvec(self):
        p = random_probability_vector(1, 0)
        assert np.allclose(p, [1.0])
        for seed in range(5):
            p = random_probability_vector(6, seed)
            assert abs(p.sum() - 1.0) < 1e-14
            assert np.all(p >= 0) and np.all(np.diff(p) <= 0)
        assert np.array_equal(random_probability_vector(6, 3),
                              random_probability_vector(6, 3))

    def test_density_invariants(self):
        one = random_density((1,), 0)
        assert np.allclose(np.array(one), [[1.0]])
        for seed in range(100):
            rho = random_density((2, 2), seed)
            m = np.array(rho)
            assert abs(np.trace(m).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(m)[0] > -1e-10

    def test_density_spectrum_round_trip(self):
        rho = random_density((2, 3), 17)
        rng = np.random.default_rng(17)
        from qmarginals.tensorcore import _haar_unitary, _random_probvec
        _haar_unitary(rng, 6)
        p = _random_probvec(rng, 6)
        assert np.abs(np.sort(np.linalg.eigvalsh(np.array(rho)))[::-1] - p).max() < 1e-12


class TestDensityMatrix:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))            # trace 2
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue

    def test_hermitizes(self):
        m = np.array([[0.5, 0.1 + 1e-14j], [0.1, 0.5]])
        dm = DensityMatrix(m)
        assert np.abs(dm.matrix - dm.matrix.conj().T).max() == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_everywhere_it_validates(self, bad):
        m = np.array([[bad, 0.0], [0.0, 1.0]])
        fine = np.eye(2) / 2
        for call in [lambda: DensityMatrix(m), lambda: density_input(m, "rho"),
                     lambda: grad_von_neumann_objective(m), lambda: grad_renyi(m, 2.0),
                     lambda: greedy_minmatch(fine, m)]:
            with pytest.raises(ValueError, match="entries must be finite"):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probability_spectrum_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="spectrum entries must be finite"):
        as_spectrum([bad, 0.5, 0.5], probability=True)


class TestNumericalRank:
    def test_from_values(self):
        assert numerical_rank(np.array([0.7, 0.3, 1e-13])) == 2

    def test_from_matrix(self):
        assert numerical_rank(np.diag([0.5, 0.5, 0.0])) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_values_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="^a: entries must be finite"):
            numerical_rank(np.array([bad, 0.5, 0.5]))


def maximally_mixed_pair():
    return ConstraintSet((2, 2), [((1,), np.eye(2) / 2), ((2,), np.eye(2) / 2)])


# every public function that takes a matrix, and the name its errors give that matrix
MATRIX_ARGUMENTS = {
    "project_marginals": (lambda m: project_marginals(m, maximally_mixed_pair()), "z"),
    "project_psd": (project_psd, "z"),
    "project_spectrum": (lambda m: project_spectrum(m, [0.25] * 4), "p"),
    "project_intersection": (lambda m: project_intersection(m, maximally_mixed_pair()), "z"),
    "marginal_residual": (lambda m: marginal_residual(m, maximally_mixed_pair()), "x"),
    "partial_trace": (lambda m: partial_trace(m, (2, 2), (1,)), "rho"),
    "dykstra_project": (lambda m: dykstra_project(m, maximally_mixed_pair(),
                                                  SolveOptions(max_iterations=5)),
                        "initial point"),
    "numerical_rank": (numerical_rank, "a"),
}
ORDER_CHECKED = ["project_marginals", "project_intersection", "marginal_residual",
                 "partial_trace", "dykstra_project"]


class TestMatrixArgumentCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", list(MATRIX_ARGUMENTS))
    def test_non_finite_entry_raises_naming_the_argument(self, name, bad):
        call, what = MATRIX_ARGUMENTS[name]
        m = np.eye(4) / 4
        m[1, 2] = bad
        with pytest.raises(ValueError, match=f"^{re.escape(what)}: entries must be finite"):
            call(m)

    @pytest.mark.parametrize("name", ORDER_CHECKED)
    def test_wrong_order_raises_naming_the_argument(self, name):
        call, what = MATRIX_ARGUMENTS[name]
        with pytest.raises(ValueError,
                           match=f"^{re.escape(what)} order 3 does not match dims \\(2, 2\\)"):
            call(np.eye(3) / 3)

    def test_oracle_checks_order_and_entries(self):
        vc = vectorize_constraints(maximally_mixed_pair())
        with pytest.raises(ValueError, match="^z order 3 does not match dims"):
            pseudoinverse_projection(np.eye(3) / 3, vc)
        with pytest.raises(ValueError, match="^z: entries must be finite"):
            pseudoinverse_projection(np.full((4, 4), np.nan), vc)

    def test_density_matrix_order_must_match_dims(self):
        with pytest.raises(ValueError, match="^density matrix order 4 does not match dims"):
            DensityMatrix(np.eye(4) / 4, (2, 3))
        with pytest.raises(ValueError, match="^density matrix order 4 does not match dims"):
            DensityMatrix(DensityMatrix(np.eye(4) / 4), (3,))
