"""Property tests of the projections: the affine layer on random small
constraint lattices, the PSD cone and the unitary orbit of a spectrum.

The examples are derandomized so that every run checks the same cases.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from qmarginals import (
    ConstraintSet,
    SystemDims,
    marginal_residual,
    partial_trace,
    project_marginals,
    project_psd,
    project_spectrum,
    pseudoinverse_projection,
    random_density,
    vectorize_constraints,
)

from conftest import marginal_correction, random_hermitian

PROPERTY = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@st.composite
def system_dims(draw):
    k = draw(st.integers(1, 4))
    largest = {1: 4, 2: 4, 3: 3, 4: 2}[k]   # keeps n <= 27 for the oracle
    return SystemDims(draw(st.lists(st.integers(1, largest), min_size=k, max_size=k)))


def label_sets(k, empty=False):
    return [s for r in range(0 if empty else 1, k + 1)
            for s in itertools.combinations(range(1, k + 1), r)]


@st.composite
def lattices(draw):
    """A consistent constraint set on random dims, and a random Hermitian point."""
    dims = draw(system_dims())
    keeps = draw(st.lists(st.sampled_from(label_sets(dims.k)), min_size=1, max_size=4,
                          unique=True))
    seed = draw(st.integers(0, 2**16))
    full = np.array(random_density(dims, seed))
    cs = ConstraintSet(dims, [(keep, partial_trace(full, dims, keep)) for keep in keeps])
    return cs, random_hermitian(np.random.default_rng(seed), dims.total)


def lift(x, dims, keep):
    """E_J(X) = tr_{J^c}(X) x I/n_{J^c}; the empty J gives tr(X) I/n."""
    if not keep:
        return np.trace(x) / dims.total * np.eye(dims.total)
    nj = dims.subdim(keep)
    return marginal_correction(x, np.zeros((nj, nj)), dims, keep)


@PROPERTY
@given(st.data())
def test_lifts_compose_to_intersection(data):
    dims = data.draw(system_dims())
    j = data.draw(st.sampled_from(label_sets(dims.k, empty=True)))
    k = data.draw(st.sampled_from(label_sets(dims.k, empty=True)))
    x = random_hermitian(np.random.default_rng(data.draw(st.integers(0, 2**16))), dims.total)
    both = tuple(sorted(set(j) & set(k)))
    np.testing.assert_allclose(lift(lift(x, dims, k), dims, j), lift(x, dims, both),
                               atol=1e-12)


@PROPERTY
@given(lattices())
def test_projection_is_idempotent_and_feasible(case):
    cs, z = case
    x = project_marginals(z, cs)
    assert marginal_residual(x, cs) < 1e-10
    np.testing.assert_allclose(project_marginals(x, cs), x, atol=1e-12)


@settings(PROPERTY, max_examples=25)
@given(lattices())
def test_projection_agrees_with_oracle(case):
    cs, z = case
    ref = pseudoinverse_projection(z, vectorize_constraints(cs))
    np.testing.assert_allclose(project_marginals(z, cs), ref, atol=1e-10)


@st.composite
def hermitian_points(draw):
    """A random Hermitian matrix of order 1..8 at scale 1e-3, 1 or 1e3."""
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    return random_hermitian(np.random.default_rng(draw(st.integers(0, 2**16))), n, scale)


def descending_eigenvalues(x):
    return np.sort(np.linalg.eigvalsh(x))[::-1]


@PROPERTY
@given(hermitian_points())
def test_psd_projection_is_idempotent_and_feasible(z):
    x = project_psd(z)
    atol = 1e-13 * max(1.0, np.abs(z).max())
    assert np.array_equal(x, x.conj().T)
    assert descending_eigenvalues(x)[-1] >= -atol
    np.testing.assert_allclose(project_psd(x), x, atol=atol)


@PROPERTY
@given(hermitian_points(), st.data())
def test_spectrum_projection_is_idempotent_and_feasible(p, data):
    c = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=len(p), max_size=len(p))))
    x = project_spectrum(p, c)
    atol = 1e-13 * max(1.0, np.abs(c).max())
    assert np.array_equal(x, x.conj().T)
    np.testing.assert_allclose(descending_eigenvalues(x), np.sort(c)[::-1], atol=atol)
    np.testing.assert_allclose(project_spectrum(x, c), x, atol=atol)
