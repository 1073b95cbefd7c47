import numpy as np
import pytest

from qmarginals import (
    grad_renyi,
    grad_von_neumann_objective,
    kron,
    numerical_rank,
    random_density,
    random_unitary,
    renyi,
    von_neumann,
)
from qmarginals.entropy import entropy_objective, negative_entropy

from conftest import random_hermitian


def traceless_hermitian(rng, n):
    h = random_hermitian(rng, n)
    return h - np.trace(h) / n * np.eye(n)


def finite_difference(f, rho, direction, h=1e-5):
    return (f(rho + h * direction) - f(rho - h * direction)) / (2 * h)


class TestVonNeumann:
    def test_pure_state(self):
        w = np.zeros(4)
        w[0] = 1.0
        assert von_neumann(np.outer(w, w)) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self):
        for n in (2, 3, 5):
            assert von_neumann(np.eye(n) / n) == pytest.approx(np.log(n), abs=1e-12)

    def test_greedy_output_spectrum(self):
        # spectrum obtained by hand-running the greedy min-matching rounds
        assert von_neumann(np.diag([0.9531, 0.0350, 0.0119])) == pytest.approx(
            0.2158, abs=5e-4)

    def test_unitary_invariance(self):
        rho = np.array(random_density((4,), 0))
        u = random_unitary(4, 1)
        assert von_neumann(u @ rho @ u.conj().T) == pytest.approx(von_neumann(rho), abs=1e-12)

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            von_neumann(np.diag([1.5, -0.5]))

    @pytest.mark.parametrize("entropy", [von_neumann, lambda m: renyi(m, 2.0)],
                             ids=["von_neumann", "renyi"])
    def test_rejects_non_square_naming_rho(self, entropy):
        with pytest.raises(ValueError, match="^rho must be square"):
            entropy(np.ones((2, 3)) / 6)

    @pytest.mark.parametrize("entropy", [von_neumann, lambda m: renyi(m, 2.0)],
                             ids=["von_neumann", "renyi"])
    def test_reads_the_hermitian_part(self, entropy):
        """[[0.5, 1], [0, 0.5]] has Hermitian part [[0.5, 0.5], [0.5, 0.5]],
        eigenvalues 1 and 0, as numerical_rank reads it; its lower triangle
        alone has eigenvalues 0.5 and 0.5, entropy ln 2."""
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert numerical_rank(m) == 1
        assert entropy(m) == pytest.approx(0.0, abs=1e-15)


class TestRenyi:
    def test_pure_state(self):
        w = np.zeros(3)
        w[0] = 1.0
        for alpha in (0.5, 2.0, 3.0):
            assert renyi(np.outer(w, w), alpha) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_alpha_two(self):
        assert renyi(np.eye(2) / 2, 2.0) == pytest.approx(np.log(2), abs=1e-12)

    def test_direct_evaluation(self):
        rho = np.diag([0.5, 0.3, 0.2])
        assert renyi(rho, 2.0) == pytest.approx(-np.log(0.38), abs=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            renyi(np.eye(2) / 2, 1.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        """renyi, grad_renyi and the projected gradient objective all refuse
        it, rather than return NaN."""
        rho = np.diag([0.7, 0.3])
        for call in (lambda: renyi(rho, alpha), lambda: grad_renyi(rho, alpha),
                     lambda: entropy_objective("renyi", alpha)):
            with pytest.raises(ValueError, match="alpha must be finite"):
                call()

    def test_von_neumann_limit(self):
        rho = np.array(random_density((4,), 2))
        s = von_neumann(rho)
        for eps in (1e-4, -1e-4):
            assert abs(renyi(rho, 1.0 + eps) - s) <= 10 * abs(eps)

    def test_unitary_invariance(self):
        rho = np.array(random_density((3,), 3))
        u = random_unitary(3, 4)
        assert renyi(u @ rho @ u.conj().T, 2.0) == pytest.approx(renyi(rho, 2.0), abs=1e-12)


class TestGradients:
    def test_objective_gradient_uniform(self):
        for n in (2, 4):
            g = grad_von_neumann_objective(np.eye(n) / n)
            assert np.abs(g - (1.0 - np.log(n)) * np.eye(n)).max() < 1e-12

    def test_objective_gradient_finite_difference(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            rho = np.array(random_density((4,), 100 + seed))
            g = grad_von_neumann_objective(rho)
            assert np.abs(g - g.conj().T).max() < 1e-12
            e = traceless_hermitian(rng, 4)
            e /= np.linalg.norm(e)
            fd = finite_difference(negative_entropy, rho, e)
            analytic = np.trace(g @ e).real
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-9)

    def test_objective_gradient_near_singular(self):
        rho = np.diag([1.0 - 1e-16, 1e-16])
        g = grad_von_neumann_objective(rho)
        assert np.all(np.isfinite(g))

    def test_renyi_gradient_closed_form_sign(self):
        # true gradient of S_2 at I/2 carries the 1/(1-alpha) = -1 prefactor
        g = grad_renyi(np.eye(2) / 2, 2.0)
        assert np.abs(g + 2.0 * np.eye(2)).max() < 1e-12

    @pytest.mark.parametrize("alpha,rel", [(2.0, 1e-5), (0.5, 1e-4)])
    def test_renyi_gradient_finite_difference(self, alpha, rel):
        rng = np.random.default_rng(6)
        for seed in range(10):
            rho = np.array(random_density((3,), 200 + seed))
            g = grad_renyi(rho, alpha)
            assert np.abs(g - g.conj().T).max() < 1e-12
            e = traceless_hermitian(rng, 3)
            e /= np.linalg.norm(e)
            fd = finite_difference(lambda m: renyi(m, alpha), rho, e)
            assert fd == pytest.approx(np.trace(g @ e).real, rel=rel, abs=1e-8)


class TestSubadditivity:
    def test_product_state_equality(self):
        r1 = np.array(random_density((2,), 7))
        r2 = np.array(random_density((3,), 8))
        assert von_neumann(kron(r1, r2)) == pytest.approx(
            von_neumann(r1) + von_neumann(r2), abs=1e-12)

    def test_constructions_below_product_entropy(self):
        from qmarginals import greedy_minmatch, interlace_decomposition
        rng = np.random.default_rng(9)
        for seed in range(5):
            p1 = rng.exponential(size=3)
            p2 = rng.exponential(size=4)
            r1 = np.diag(np.sort(p1 / p1.sum())[::-1])
            r2 = np.diag(np.sort(p2 / p2.sum())[::-1])
            bound = von_neumann(r1) + von_neumann(r2)
            g, _ = greedy_minmatch(r1, r2)
            i, _ = interlace_decomposition(r1, r2)
            assert von_neumann(np.array(g)) <= bound + 1e-8
            assert von_neumann(np.array(i)) <= bound + 1e-8
