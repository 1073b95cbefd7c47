"""The lattice-planned affine projection against the literal formulas it replaced.

The references below are kept here on purpose: they are the plain 2^m
subset enumeration for the inclusion-exclusion plan and the consistency
check, and the dense permutation sandwich P^T (I/n_{J^c} x Delta) P for each
correction. The library's lattice plan and its corrections, scattered
through the gathered indices of each node in the plan's order, must
reproduce them exactly: the same coefficients, the same discrepancy, and
bit-identical projections.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from qmarginals import (
    ConstraintSet,
    SystemDims,
    check_consistency,
    fileio,
    hermitize,
    kron,
    marginal_residual,
    partial_trace,
    project_intersection,
    project_marginals,
    random_density,
)

from qmarginals.projections import _deficits
from qmarginals.solvers import _constraint_deficits, _err

from conftest import random_hermitian, subsystem_permutation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def reference_terms(cs):
    """(coefficient, labels) from every nonempty subset of the constraints."""
    coef = {}
    for r in range(1, len(cs.constraints) + 1):
        for subset in itertools.combinations(cs.constraints, r):
            inter = set(subset[0].keep)
            for c in subset[1:]:
                inter &= set(c.keep)
            key = tuple(sorted(inter))
            coef[key] = coef.get(key, 0.0) + (-1.0) ** r
    return [(w, key) for key, w in sorted(coef.items()) if w != 0.0]


def reference_consistency(cs):
    """(derived keys, max discrepancy) from every subset of two or more constraints."""
    worst = max(abs(float(np.trace(c.target).real) - 1.0) for c in cs.constraints)
    keys = set()
    for r in range(2, len(cs.constraints) + 1):
        for subset in itertools.combinations(cs.constraints, r):
            labels = tuple(sorted(set.intersection(*(set(c.keep) for c in subset))))
            if not labels:
                continue
            keys.add(labels)
            reduced = [c.target if labels == c.keep else partial_trace(
                c.target, cs.dims.local_dims(c.keep),
                tuple(c.keep.index(i) + 1 for i in labels)) for c in subset]
            for x, y in itertools.combinations(reduced, 2):
                worst = max(worst, float(np.linalg.norm(x - y)))
    return keys, worst


def reference_projection(z, cs):
    """Inclusion-exclusion with each correction as a dense permutation sandwich."""
    z = hermitize(z)
    n = z.shape[0]
    out = z.copy()
    for w, labels, target in cs.correction_terms:
        if not labels:
            out += w * ((float(np.trace(z).real) - target) / n * np.eye(n))
            continue
        deficit = partial_trace(z, cs.dims, labels) - target
        if len(labels) == cs.dims.k:
            out += w * deficit
            continue
        njc = cs.dims.total // cs.dims.subdim(labels)
        p = subsystem_permutation(cs.dims, labels)
        out += w * (p.T @ kron(np.eye(njc) / njc, deficit) @ p)
    return hermitize(out)


def random_family(rng, trial, max_k=5, max_m=8, max_n=64):
    """Random dims and 1..max_m distinct kept sets, targets from one state."""
    while True:
        k = int(rng.integers(1, max_k + 1))
        dims = SystemDims(int(d) for d in rng.integers(1, 4, size=k))
        if dims.total <= max_n:
            break
    subsets = [s for r in range(1, k + 1) for s in itertools.combinations(range(1, k + 1), r)]
    m = int(rng.integers(1, min(max_m, len(subsets)) + 1))
    keeps = [subsets[i] for i in rng.choice(len(subsets), size=m, replace=False)]
    full = np.array(random_density(dims, 1000 + trial))
    return ConstraintSet(dims, [(keep, partial_trace(full, dims, keep)) for keep in keeps])


def fuzz_families(count=60, seed=31):
    rng = np.random.default_rng(seed)
    return [(random_family(rng, trial), rng) for trial in range(count)]


def fixture_families():
    def mat(name):
        return fileio.read_matrix(FIXTURES / name)[0]

    def diag(name):
        return np.diag(fileio.read_spectrum(FIXTURES / name))

    ext = mat("twofold_extension_222/rho_12_13.json")
    families = [
        ConstraintSet((2, 3), [((1,), mat("bipartite_2x3/rho_a.json")),
                               ((2,), mat("bipartite_2x3/rho_b.json"))]),
        ConstraintSet((2, 2, 2), [((1, 2), mat("tripartite_222/rho_12.json")),
                                  ((2, 3), mat("tripartite_222/rho_23.json"))]),
        ConstraintSet((2, 2, 2), [((1, 2), ext), ((1, 3), ext)]),
    ]
    for name, dims in [("rank_3x4", (3, 4)), ("rank_3x6", (3, 6)), ("rank_6x8", (6, 8))]:
        families.append(ConstraintSet(dims, [((1,), diag(f"{name}/spectrum_a.json")),
                                             ((2,), diag(f"{name}/spectrum_b.json"))]))
    return families


class TestPlanMatchesSubsetEnumeration:
    def test_coefficients_and_labels(self):
        for cs, _rng in fuzz_families():
            got = [(w, labels) for w, labels, _target in cs.correction_terms]
            assert got == reference_terms(cs), [c.keep for c in cs]

    def test_consistency_keys_and_discrepancy(self):
        for cs, _rng in fuzz_families():
            report = check_consistency(cs)
            keys, worst = reference_consistency(cs)
            assert set(report.derived_marginals) == keys
            assert report.max_discrepancy == worst

    def test_inconsistent_discrepancy(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            cs = random_family(rng, trial)
            # an independent state per constraint: overlaps disagree
            cs = ConstraintSet(cs.dims, [
                (c.keep, np.array(random_density(cs.dims.local_dims(c.keep), 50 + i)))
                for i, c in enumerate(cs)])
            report = check_consistency(cs)
            keys, worst = reference_consistency(cs)
            assert set(report.derived_marginals) == keys
            assert report.max_discrepancy == worst

    def test_all_pairs_on_eight_qubits(self):
        dims = SystemDims((2,) * 8)
        full = np.array(random_density(dims, 0))
        cs = ConstraintSet(dims, [(keep, partial_trace(full, dims, keep))
                                  for keep in itertools.combinations(range(1, 9), 2)])
        terms = cs.correction_terms
        assert len(terms) == 37
        coef = {labels: w for w, labels, _target in terms}
        # pairs -1; each singleton lies in 7 pairs: -1 + 7; the empty set: -1 + 28 - 8 * 6
        assert all(coef[pair] == -1.0 for pair in itertools.combinations(range(1, 9), 2))
        assert all(coef[(i,)] == 6.0 for i in range(1, 9))
        assert coef[()] == -21.0


class TestProjectionMatchesPermutationSandwich:
    def test_fixtures(self):
        rng = np.random.default_rng(7)
        for cs in fixture_families():
            for _ in range(5):
                z = random_hermitian(rng, cs.dims.total)
                assert np.array_equal(project_marginals(z, cs), reference_projection(z, cs))

    def test_fuzz_lattices(self):
        for cs, rng in fuzz_families():
            z = random_hermitian(rng, cs.dims.total)
            assert np.array_equal(project_marginals(z, cs), reference_projection(z, cs)), \
                (cs.dims.dims, [c.keep for c in cs])


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_constraint_rejects_non_finite_target(self, bad):
        target = np.eye(2) / 2
        target[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ConstraintSet((2, 2), [((1,), target)])

    def test_nan_discrepancy_is_inconsistent(self):
        # Finite targets whose reductions to the shared subsystem overflow:
        # inf - inf makes the discrepancy NaN, which must not read as agreement.
        dims = SystemDims((2, 3, 3))
        big = np.eye(6, dtype=complex) / 6
        for b in range(3):
            big[b, 3 + b] = big[3 + b, b] = 6e307
        cs = ConstraintSet(dims, [((1, 2), big), ((1, 3), big)])
        with np.errstate(invalid="ignore"):
            report = check_consistency(cs)
            assert np.isnan(report.max_discrepancy)
            assert not report.consistent
            with pytest.raises(ValueError, match="inconsistent"):
                cs.correction_terms


def independent_family(dims, keeps, seed):
    """An independent random state per kept set: the overlaps disagree."""
    dims = SystemDims(dims)
    return ConstraintSet(dims, [(keep, np.array(random_density(dims.local_dims(keep), seed + i)))
                                for i, keep in enumerate(keeps)])


def one_state_family(dims, keeps, seed):
    dims = SystemDims(dims)
    full = np.array(random_density(dims, seed))
    return ConstraintSet(dims, [(keep, partial_trace(full, dims, keep)) for keep in keeps])


PAIRS_5Q = list(itertools.combinations(range(1, 6), 2))
NESTED = [(1, 2), (2, 3), (2,)]


class TestPlanPerStructure:
    """The plan's terms, shared nodes and derived keys depend on the dims and
    kept sets only; the targets stay per set."""

    def test_same_structure_plans_alike_and_keeps_its_own_targets(self):
        a = one_state_family((2, 2, 2), NESTED, 1)
        b = one_state_family((2, 2, 2), NESTED, 2)
        assert a._plan is not b._plan
        assert a._plan.terms == b._plan.terms and a._plan.shared == b._plan.shared
        assert list(a._plan.derived) == list(b._plan.derived)
        for key, derived in a._plan.derived.items():
            assert not np.array_equal(derived, b._plan.derived[key]), key
        for name in ("gather", "starts", "bounds", "scale", "weight", "lift", "rows"):
            assert np.array_equal(getattr(a._nodes, name), getattr(b._nodes, name)), name
        report_a, report_b = check_consistency(a), check_consistency(b)
        for labels in report_a.derived_marginals:
            assert not np.array_equal(report_a.derived_marginals[labels],
                                      report_b.derived_marginals[labels])
        for (_w, labels, ta), (_w2, _l, tb) in zip(a.correction_terms, b.correction_terms):
            assert not np.array_equal(ta, tb), labels
        assert not np.array_equal(a._nodes.targets, b._nodes.targets)

    def test_derived_targets_are_read_only(self):
        # they are the plan's own arrays, which every reader shares
        cs = one_state_family((2, 2, 2), [(1, 2), (2, 3)], 7)
        derived = [*check_consistency(cs).derived_marginals.values(),
                   *(t for _w, labels, t in cs.correction_terms if labels == (2,))]
        assert len(derived) == 2
        for t in derived:
            with pytest.raises(ValueError, match="read-only"):
                t[0, 0] = 0.0

    def test_every_owner_traces_its_own_target_to_each_shared_node(self):
        # independent targets per kept set, so that the owners of a node
        # disagree and a target taken from another owner shows
        families = [independent_family(cs.dims.dims, [c.keep for c in cs], 110 + trial)
                    for trial, (cs, _rng) in enumerate(fuzz_families())]
        families += [independent_family((2,) * 5, PAIRS_5Q, 130),
                     one_state_family((2,) * 5, PAIRS_5Q, 131)]
        shared = 0
        for cs in families:
            plan = cs._plan
            assert set(plan.derived) == {(i, labels) for labels, owners in plan.shared
                                         for i in owners}
            for (i, labels), got in plan.derived.items():
                keep = cs.constraints[i].keep
                want = partial_trace(cs.constraints[i].target, cs.dims.local_dims(keep),
                                     tuple(keep.index(a) + 1 for a in labels))
                assert np.array_equal(got, want), (labels, keep, [c.keep for c in cs])
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = 0.0
            shared += len(plan.shared)
        assert shared > 0

    def test_different_kept_sets_on_the_same_dims_plan_apart(self):
        for keeps in [[(1, 2), (2, 3)], [(1, 2), (1, 3)], [(1, 3), (2, 3)], NESTED]:
            cs = one_state_family((2, 2, 2), keeps, 3)
            assert [(w, labels) for w, labels, _t in cs.correction_terms] == reference_terms(cs)
            keys, worst = reference_consistency(cs)
            assert set(check_consistency(cs).derived_marginals) == keys

    def test_inconsistent_set_after_a_consistent_one_still_raises(self):
        one_state_family((2, 2, 2), NESTED, 4).correction_terms
        cs = independent_family((2, 2, 2), NESTED, 60)
        with pytest.raises(ValueError, match="inconsistent"):
            cs.correction_terms

    def test_derived_marginals_come_from_the_first_owner(self):
        families = [independent_family(cs.dims.dims, [c.keep for c in cs], 70 + trial)
                    for trial, (cs, _rng) in enumerate(fuzz_families(count=30, seed=41))]
        families += [independent_family((2, 2, 2), NESTED, 80),
                     independent_family((2,) * 5, PAIRS_5Q, 90)]
        for cs in families:
            for labels, got in check_consistency(cs).derived_marginals.items():
                owners = [c for c in cs if set(labels) <= set(c.keep)]
                first = next((c for c in owners if c.keep == labels), owners[0])
                want = first.target if labels == first.keep else partial_trace(
                    first.target, cs.dims.local_dims(first.keep),
                    tuple(first.keep.index(i) + 1 for i in labels))
                assert np.array_equal(got, want), (labels, [c.keep for c in cs])

    @pytest.mark.parametrize("build", [one_state_family, independent_family])
    def test_all_pairs_of_five_qubits_match_the_subset_enumeration(self, build):
        for seed in range(10):
            cs = build((2,) * 5, PAIRS_5Q, 100 + 20 * seed)
            report = check_consistency(cs)
            keys, worst = reference_consistency(cs)
            assert set(report.derived_marginals) == keys
            assert report.max_discrepancy == worst

    def test_near_tied_pairs_take_the_exact_largest_norm(self):
        # qudit 1 meets P - Q and qudit 2 the same difference with its basis
        # shifted: two norms equal up to the summation order, and the
        # maximum must still be the reference's bit for bit
        half, shift = np.eye(2) / 2, np.roll(np.eye(3), 1, axis=0)
        ties = []
        for seed in range(40):
            p, q = (np.array(random_density((3,), s)) for s in (2 * seed, 2 * seed + 1))
            cs = ConstraintSet((3, 3, 2, 2), [
                ((1, 3), np.kron(p, half)), ((1, 4), np.kron(q, half)),
                ((2, 3), np.kron(shift @ p @ shift.T, half)),
                ((2, 4), np.kron(shift @ q @ shift.T, half))])
            assert check_consistency(cs).max_discrepancy == reference_consistency(cs)[1]
            ties.append(np.linalg.norm(p - q) == np.linalg.norm(shift @ (p - q) @ shift.T))
        assert not all(ties)


class TestResidualPerConstraint:
    """`marginal_residual` traces each constraint on its own, and gives the
    Err that a sweep reads off the node table."""

    @staticmethod
    def families():
        return [*fixture_families(),
                one_state_family((2, 2, 2), NESTED, 5),        # complex targets
                one_state_family((2,) * 5, PAIRS_5Q, 6),
                independent_family((2,) * 5, PAIRS_5Q, 7)]     # inconsistent

    @staticmethod
    def sweep_err(x, cs):
        """The Err that `solvers._sweeps` records for x."""
        deficits, bounds = _deficits(x, cs._nodes), cs._nodes.bounds
        return _err(deficits[a:b] for a, b in zip(bounds, bounds[1:]))

    def test_a_fresh_set_plans_nothing_and_matches_the_sweep_err(self):
        for seed, cs in enumerate(self.families()):
            x = random_density(cs.dims, seed).matrix
            fresh = ConstraintSet(cs.dims, cs.constraints)
            err = marginal_residual(x, fresh)
            assert "_nodes" not in vars(fresh) and "_plan" not in vars(fresh)
            assert err == self.sweep_err(x, fresh)
            assert err > 0.0

    def test_a_real_matrix_is_traced_in_the_sweeps_dtype(self):
        # a float64 X on float64 targets, as given or cast to complex, gives
        # the Err of a real sweep: complex arithmetic may round the norm
        # differently (1.1485111048154457 against ...455 on bipartite_2x3)
        real = 0
        for seed, cs in enumerate(self.families()):
            x = np.ascontiguousarray(random_density(cs.dims, seed).matrix.real)
            if not cs._real:
                continue
            real += 1
            assert marginal_residual(x, cs) == marginal_residual(x + 0j, cs) == self.sweep_err(x, cs)
        assert real > 0

    def test_constraint_deficits_are_the_tables_first_entries(self):
        # in float64 too, as a real sweep and the rank finish run
        for seed, cs in enumerate(self.families()):
            x = random_density(cs.dims, seed).matrix
            bounds = cs._nodes.bounds
            for z in [x, np.ascontiguousarray(x.real)]:
                blocks = _constraint_deficits(z, cs)
                assert [b.size for b in blocks] == list(np.diff(bounds))
                assert np.array_equal(np.concatenate(blocks), _deficits(z, cs._nodes)[:bounds[-1]])

    def test_node_targets_are_float64_exactly_when_every_target_is_real(self):
        real = 0
        for cs in self.families():
            all_real = not any(np.any(c.target.imag) for c in cs)
            assert cs._real == all_real
            assert cs._nodes.targets.dtype == (np.float64 if all_real else np.complex128)
            real += all_real
        assert 0 < real < len(self.families())

    def test_a_set_caches_its_plan_dtype_rule_node_table_and_dual_basis(self):
        cs = one_state_family((2, 2, 2), NESTED, 8)
        x = random_density(cs.dims, 9).matrix
        marginal_residual(x, cs)
        check_consistency(cs)
        project_marginals(x, cs)
        project_intersection(x, cs)
        assert set(vars(cs)) == {"dims", "constraints", "_plan", "_real", "correction_terms",
                                 "_nodes", "_dual_basis"}
