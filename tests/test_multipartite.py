"""Four-party constraint sets: deeper inclusion-exclusion paths.

With three chained constraints {1,2}, {2,3}, {3,4} the correction plan
contains pairwise intersections {2} and {3} plus two empty intersections
whose coefficients cancel; agreement with the pseudo-inverse oracle
validates the whole book-keeping.
"""

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SystemDims,
    check_consistency,
    marginal_residual,
    partial_trace,
    project_marginals,
    pseudoinverse_projection,
    random_density,
    solve_feasible,
    SolveOptions,
    vectorize_constraints,
)

from conftest import random_hermitian

DIMS = SystemDims((2, 2, 2, 2))


def chained_constraints(seed):
    full = np.array(random_density((2, 2, 2, 2), seed))
    return ConstraintSet(DIMS, [
        ((1, 2), partial_trace(full, DIMS, (1, 2))),
        ((2, 3), partial_trace(full, DIMS, (2, 3))),
        ((3, 4), partial_trace(full, DIMS, (3, 4))),
    ])


class TestChainedConstraints:
    def test_consistent(self):
        cs = chained_constraints(0)
        rep = check_consistency(cs)
        assert rep.consistent
        assert (2,) in rep.derived_marginals and (3,) in rep.derived_marginals

    def test_empty_intersection_coefficients_cancel(self):
        cs = chained_constraints(1)
        empties = [term for term in cs.correction_terms if term[1] == ()]
        assert empties == []  # (+1) from {J1,J3} cancels (-1) from the triple

    def test_projection_matches_oracle(self):
        cs = chained_constraints(2)
        vc = vectorize_constraints(cs)
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = random_hermitian(rng, 16)
            got = project_marginals(z, cs)
            ref = pseudoinverse_projection(z, vc)
            assert np.abs(got - ref).max() < 1e-10
            assert marginal_residual(got, cs) < 1e-10

    def test_feasibility_solver(self):
        cs = chained_constraints(4)
        rep = solve_feasible(cs, SolveOptions(max_iterations=5000,
                                              tolerance=1e-10, seed=0))
        assert rep.converged
        assert np.linalg.eigvalsh(rep.solution)[0] >= -1e-12


class TestDisjointPlusOverlap:
    def test_three_constraints_mixed(self):
        full = np.array(random_density((2, 2, 2, 2), 5))
        cs = ConstraintSet(DIMS, [
            ((1,), partial_trace(full, DIMS, (1,))),
            ((2, 3), partial_trace(full, DIMS, (2, 3))),
            ((3, 4), partial_trace(full, DIMS, (3, 4))),
        ])
        vc = vectorize_constraints(cs)
        rng = np.random.default_rng(6)
        z = random_hermitian(rng, 16)
        assert np.abs(project_marginals(z, cs) - pseudoinverse_projection(z, vc)).max() < 1e-10


class TestFullSystemConstraint:
    def test_projection_replaces_with_target(self):
        sigma = np.array(random_density((2, 2), 7))
        cs = ConstraintSet((2, 2), [((1, 2), sigma)])
        rng = np.random.default_rng(8)
        z = random_hermitian(rng, 4)
        assert np.abs(project_marginals(z, cs) - sigma).max() < 1e-12


class TestNestedConstraints:
    def test_implied_constraint_cancels(self):
        # {1} inside {1,2}: the smaller constraint is implied, and the
        # inclusion-exclusion coefficients cancel it exactly
        full = np.array(random_density((2, 2, 2), 9))
        d = SystemDims((2, 2, 2))
        cs = ConstraintSet(d, [((1,), partial_trace(full, d, (1,))),
                               ((1, 2), partial_trace(full, d, (1, 2)))])
        single = ConstraintSet(d, [((1, 2), partial_trace(full, d, (1, 2)))])
        rng = np.random.default_rng(10)
        z = random_hermitian(rng, 8)
        assert np.abs(project_marginals(z, cs) - project_marginals(z, single)).max() < 1e-12


class TestRandomStructures:
    def test_fuzz_against_oracle(self):
        # random dims, random families of distinct keep-sets (possibly nested
        # or overlapping), targets from a common state so they are consistent
        rng = np.random.default_rng(11)
        for trial in range(20):
            k = int(rng.integers(2, 5))
            dims = SystemDims(tuple(int(rng.integers(2, 4)) if k < 4 else 2
                                    for _ in range(k)))
            full = np.array(random_density(dims, 100 + trial))
            all_keeps = []
            m = int(rng.integers(1, 4))
            while len(all_keeps) < m:
                size = int(rng.integers(1, k + 1))
                keep = tuple(sorted(rng.choice(np.arange(1, k + 1), size=size,
                                               replace=False).tolist()))
                if keep not in all_keeps:
                    all_keeps.append(keep)
            cs = ConstraintSet(dims, [(keep, partial_trace(full, dims, keep))
                                      for keep in all_keeps])
            vc = vectorize_constraints(cs)
            z = random_hermitian(rng, dims.total)
            got = project_marginals(z, cs)
            ref = pseudoinverse_projection(z, vc)
            assert np.abs(got - ref).max() < 1e-10, (dims.dims, all_keeps)
            assert marginal_residual(got, cs) < 1e-10
