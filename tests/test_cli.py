import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from qmarginals import (
    ConstraintSet,
    constructive,
    fileio,
    project_intersection,
    random_unitary,
    von_neumann,
)
from qmarginals.cli import main

from conftest import FIXTURES, kkt_residuals, random_hermitian


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


FIXTURE_FILES = {
    "bipartite_2x3": {"1": "bipartite_2x3/rho_a.json", "2": "bipartite_2x3/rho_b.json"},
    "twin": {"1": "bipartite_2x3/rho_a.json", "2": "bipartite_2x3/rho_a.json"},
    "tripartite_222": {"1,2": "tripartite_222/rho_12.json", "2,3": "tripartite_222/rho_23.json"},
    "twofold_extension_222": {"1,2": "twofold_extension_222/rho_12_13.json",
                              "1,3": "twofold_extension_222/rho_12_13.json"},
}


def fixture_marginals(name, tmp_path):
    """(dims text, --marginal arguments, constraint set) of a fixture instance."""
    if name in FIXTURE_FILES:
        files = {keep: FIXTURES / path for keep, path in FIXTURE_FILES[name].items()}
    else:   # rank_3x4 and rank_6x8: marginals diagonal in the fixture spectra
        files = {}
        for keep, side in [("1", "a"), ("2", "b")]:
            spectrum = fileio.read_spectrum(FIXTURES / f"{name}/spectrum_{side}.json")
            files[keep] = tmp_path / f"rho_{side}.json"
            fileio.write_matrix(files[keep], np.diag(spectrum), (len(spectrum),))
    dims, targets = {}, []
    for keep, path in files.items():
        target, local = fileio.read_matrix(path)
        keep = [int(i) for i in keep.split(",")]
        dims.update(zip(keep, local.dims))
        targets.append((keep, target))
    args = [a for keep, path in files.items() for a in ("--marginal", f"{keep}:{path}")]
    cs = ConstraintSet([dims[i] for i in sorted(dims)], targets)
    return ",".join(str(dims[i]) for i in sorted(dims)), args, cs


class TestFileFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (z + z.conj().T) / 2
        path = tmp_path / "m.json"
        fileio.write_matrix(path, m, (2, 2))
        back, dims = fileio.read_matrix(path)
        assert dims.dims == (2, 2)
        assert np.array_equal(back, m)

    def test_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(ValueError, match="JSON"):
            fileio.read_matrix(bad)
        bad.write_text(json.dumps({"dims": [2], "entries": [[1, 0]]}))
        with pytest.raises(ValueError, match="entries"):
            fileio.read_matrix(bad)

    def test_rejects_non_hermitian(self, tmp_path):
        path = tmp_path / "nh.json"
        payload = {"dims": [2], "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="Hermitian"):
            fileio.read_matrix(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dims": [2], "entries": [[{bad}, 0], [0, 0], [0, 0], [0.5, 0]]}}')
        with pytest.raises(ValueError, match=f"{path.name}: entries must be finite"):
            fileio.read_matrix(path)
        spec = tmp_path / "c.json"
        spec.write_text(f'{{"values": [0.5, {bad}]}}')
        with pytest.raises(ValueError, match=f"{spec.name}: values must be finite"):
            fileio.read_spectrum(spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_write_rejects_non_finite_and_leaves_no_file(self, tmp_path, bad):
        # JSON has no number for these, so no file could be read back
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=f"{path.name}: entries must be finite"):
            fileio.write_matrix(path, [[bad]], (1,))
        with pytest.raises(ValueError, match=f"{path.name}: entries must be finite"):
            fileio.write_matrix(path, np.diag([0.5, 0.5 + 1j * bad]), (2,))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_write_spectrum_rejects_non_finite_and_leaves_no_file(self, tmp_path, bad):
        path = tmp_path / "c.json"
        with pytest.raises(ValueError, match=f"{path.name}: entries must be finite"):
            fileio.write_spectrum(path, [0.5, bad])
        assert list(tmp_path.iterdir()) == []

    def test_spectrum_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "c.json"
        values = np.sort(np.random.default_rng(3).dirichlet(np.ones(7)))[::-1]
        values /= values.sum()
        fileio.write_spectrum(path, values)
        assert np.array_equal(fileio.read_spectrum(path), values / values.sum())
        assert json.loads(path.read_text())["values"] == values.tolist()

    def test_spectrum_renormalizes_print_rounding(self, tmp_path):
        path = tmp_path / "c.json"
        fileio.write_spectrum(path, [0.8, 0.15, 0.0501])
        c = fileio.read_spectrum(path)
        assert c.sum() == pytest.approx(1.0, abs=1e-15)
        assert json.loads(path.read_text())["values"] == [0.8, 0.15, 0.0501]
        assert np.array_equal(c, np.array([0.8, 0.15, 0.0501]) / np.sum([0.8, 0.15, 0.0501]))

    @pytest.mark.parametrize("values,error", [
        ([], "empty spectrum"),
        ([0.7, 0.7], "values sum to 1.4, not a probability vector"),
        ([-0.5, 1.5], "values must be nonnegative, got -0.5"),
        ([1.0 + 1e-9, -1e-9], "values must be nonnegative, got -1e-09"),
    ], ids=["empty", "sum-1.4", "negative", "just-past-psd-atol"])
    def test_spectrum_writer_and_reader_share_one_check(self, tmp_path, values, error):
        path = tmp_path / "c.json"
        with pytest.raises(ValueError, match=f"{path.name}: {re.escape(error)}$"):
            fileio.write_spectrum(path, values)
        assert list(tmp_path.iterdir()) == []
        path.write_text(json.dumps({"values": values}))
        with pytest.raises(ValueError, match=f"{path.name}: {re.escape(error)}$"):
            fileio.read_spectrum(path)

    def test_spectrum_entry_within_psd_atol_of_zero_is_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        fileio.write_spectrum(path, [1.0 + 1e-11, -1e-11])
        assert np.array_equal(fileio.read_spectrum(path), np.array([1.0 + 1e-11, -1e-11]))

    def test_project_rejects_a_negative_spectrum_file(self, runner, tmp_path):
        good = tmp_path / "good.json"
        fileio.write_matrix(good, np.eye(2) / 2, (2,))
        spec = tmp_path / "c.json"
        spec.write_text(json.dumps({"values": [-0.5, 1.5]}))
        result = invoke(runner, "project", good, "--dims", "2", "--spectrum", spec)
        assert result.exit_code == 1
        assert f"error: {spec}: values must be nonnegative, got -0.5" in result.output.splitlines()

    @pytest.mark.parametrize("bad", ["1" * 400, "true"], ids=["huge-int", "true"])
    def test_rejects_numbers_that_are_not_floats(self, tmp_path, bad):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dims": [1], "entries": [[{bad}, 0]]}}')
        with pytest.raises(ValueError, match=f"{path.name}: entries must be .* floats"):
            fileio.read_matrix(path)
        spec = tmp_path / "c.json"
        spec.write_text(f'{{"values": [{bad}, 0]}}')
        with pytest.raises(ValueError, match=f"{spec.name}: values must be .* floats"):
            fileio.read_spectrum(spec)

    @pytest.mark.parametrize("bad", ["1" * 400, "true"], ids=["huge-int", "true"])
    def test_cli_rejects_numbers_that_are_not_floats(self, runner, tmp_path, bad):
        path = tmp_path / "m.json"
        path.write_text(f'{{"dims": [1], "entries": [[{bad}, 0]]}}')
        spec = tmp_path / "c.json"
        spec.write_text(f'{{"values": [{bad}, 0]}}')
        good = tmp_path / "good.json"
        fileio.write_matrix(good, np.eye(2) / 2, (2,))
        for args, named in [(["verify", path, "--dims", "1", "--marginal", f"1:{path}"], path),
                            (["project", path, "--dims", "1", "--psd"], path),
                            (["project", good, "--dims", "2", "--spectrum", spec], spec)]:
            result = invoke(runner, *args)
            assert result.exit_code == 1
            assert f"error: {named}: " in result.output


DIMS_ERROR = "dims must be a nonempty list of positive integers"
PAIRS_ERROR = r"entries must be \[re, im\] pairs of floats"
MALFORMED_MATRIX_FILES = {
    "dims-true": ('{"dims": [true], "entries": [[1, 0]]}', DIMS_ERROR),
    "dims-fraction": ('{"dims": [2.5], "entries": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
                      DIMS_ERROR),
    "dims-overflow": ('{"dims": [1e400], "entries": [[1, 0]]}', DIMS_ERROR),
    "dims-string": ('{"dims": ["a"], "entries": [[1, 0]]}', DIMS_ERROR),
    "entries-number": ('{"dims": [1], "entries": 5}',
                       r"entries must be a list of \[re, im\] pairs"),
    # one entry at dims [1] that is not a pair of numbers
    **{f"entry-{name}": (f'{{"dims": [1], "entries": [{entry}]}}', PAIRS_ERROR)
       for name, entry in [("string", '"ab"'), ("triple", "[1, 0, 0]"), ("single", "[1]"),
                           ("nested", "[1, [0]]"), ("number", "5"), ("null", "[null, 0]"),
                           ("object", '{"a": 1, "b": 2}')]},
}


@pytest.mark.parametrize("text,error", MALFORMED_MATRIX_FILES.values(),
                         ids=list(MALFORMED_MATRIX_FILES))
class TestMalformedMatrixFile:
    def test_read_raises_naming_the_file(self, tmp_path, text, error):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"{path.name}: {error}$"):
            fileio.read_matrix(path)

    def test_verify_exits_one_naming_the_file(self, runner, tmp_path, text, error):
        path = tmp_path / "m.json"
        path.write_text(text)
        result = invoke(runner, "verify", path, "--dims", "1", "--marginal", f"1:{path}")
        assert result.exit_code == 1
        assert f"error: {path}: " in result.output


class TestTrace:
    def test_fixture_solution_reproduces_target(self, runner, tmp_path):
        out = tmp_path / "reduced.json"
        result = invoke(runner, "trace", FIXTURES / "tripartite_222/solution_rank6.json",
                        "--keep", "2,3", "--out", out)
        assert result.exit_code == 0
        reduced, dims = fileio.read_matrix(out)
        target, _ = fileio.read_matrix(FIXTURES / "tripartite_222/rho_23.json")
        # the fixture solution is printed to 4 decimals
        assert np.abs(reduced - target).max() < 1e-3

    def test_product_state_factor(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        p = rng.exponential(size=2)
        q = rng.exponential(size=3)
        r1 = np.diag(p / p.sum())
        r2 = np.diag(q / q.sum())
        src = tmp_path / "prod.json"
        fileio.write_matrix(src, np.kron(r1, r2), (2, 3))
        out = tmp_path / "r1.json"
        assert invoke(runner, "trace", src, "--keep", "1", "--out", out).exit_code == 0
        reduced, _ = fileio.read_matrix(out)
        assert np.abs(reduced - r1).max() < 1e-12

    def test_malformed_file_exits_nonzero(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        for path in (bad, tmp_path / "missing.json"):
            result = invoke(runner, "trace", path, "--keep", "1")
            assert result.exit_code == 1
            assert re.search("^error: ", result.output, re.M), result.output

    def test_nested_trace_equals_the_direct_one(self, runner, tmp_path):
        """Subsystem 1 of the marginal on the non-adjacent kept set 1,3 is the
        direct trace down to subsystem 1 within 1e-15; both have unit trace."""
        rho = tmp_path / "rho.json"
        invoke(runner, "random", "density", "--dims", "2,3,2", "--seed", "4", "--out", rho)
        for src, keep, name in [(rho, "1,3", "13"), (rho, "1", "1"),
                                (tmp_path / "13.json", "1", "13_1")]:
            result = invoke(runner, "trace", src, "--keep", keep,
                            "--out", tmp_path / f"{name}.json")
            assert result.exit_code == 0, result.output
        pair, direct, nested = (fileio.read_matrix(tmp_path / f"{name}.json")[0]
                                for name in ["13", "1", "13_1"])
        assert np.abs(nested - direct).max() <= 1e-15
        assert all(abs(np.trace(m).real - 1.0) <= 1e-15 for m in (pair, direct))

    def test_nan_file_exits_one_naming_it(self, runner, tmp_path):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dims": [2], "entries": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
        result = runner.invoke(main, ["trace", str(bad), "--keep", "1"])
        assert result.exit_code == 1
        assert f"{bad}: entries must be finite" in result.output


class TestConsistency:
    def test_consistent_fixture(self, runner):
        result = invoke(runner, "consistency", "--dims", "2,2,2",
                        "--marginal", f"2,3:{FIXTURES}/tripartite_222/rho_23.json",
                        "--marginal", f"1,2:{FIXTURES}/tripartite_222/rho_12.json")
        assert result.exit_code == 0
        assert "consistent: True" in result.output

    def test_solve_on_inconsistent_marginals_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        fileio.write_matrix(bad, 0.9 * np.eye(2) / 2, (2,))
        result = runner.invoke(main, [
            "solve", "feasible", "--dims", "2,2",
            "--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json",
            "--marginal", f"2:{bad}"])
        assert result.exit_code == 1
        assert "max marginal discrepancy" in result.output

    def test_independent_pair_marginals_disagree_on_the_shared_node(self, runner, tmp_path):
        """Two random two-qubit states differ on subsystem 2 by 2.38e-1."""
        marginals = []
        for keep, seed in [("1,2", 13), ("2,3", 14)]:
            invoke(runner, "random", "density", "--dims", "2,2", "--seed", seed,
                   "--out", tmp_path / f"{seed}.json")
            marginals += ["--marginal", f"{keep}:{tmp_path / f'{seed}.json'}"]
        result = invoke(runner, "consistency", "--dims", "2,2,2", *marginals)
        assert result.exit_code == 1
        assert result.output.splitlines()[:2] == ["consistent: False",
                                                  "max discrepancy: 2.379145e-01"]

    def test_trace_mismatch_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        fileio.write_matrix(bad, 0.9 * np.eye(2) / 2, (2,))
        result = runner.invoke(main, [
            "consistency", "--dims", "2,2",
            "--marginal", f"1:{FIXTURES}/../fixtures/bipartite_2x3/rho_a.json",
            "--marginal", f"2:{bad}"])
        assert result.exit_code == 1


class TestSolveCommands:
    def test_solve_spectrum_bipartite(self, runner, tmp_path):
        _, marginals, _ = fixture_marginals("bipartite_2x3", tmp_path)
        out = tmp_path / "run"
        result = invoke(runner, "solve", "spectrum", "--dims", "2,3", *marginals,
                        "--spectrum", FIXTURES / "bipartite_2x3/target_spectrum.json",
                        "--tol", "1e-10", "--out", out)
        assert result.exit_code == 0
        assert "converged: True" in result.output.splitlines()
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["final_residual"] <= 1e-10
        assert (out / "history.csv").read_text().startswith("iteration,residual")
        result = invoke(runner, "verify", out / "solution.json", "--dims", "2,3", *marginals,
                        "--tol", "1e-9")
        assert result.exit_code == 0, result.output

    def test_failed_report_write_leaves_no_solution(self, runner, tmp_path):
        out = tmp_path / "run"
        (out / "report.json").mkdir(parents=True)   # renaming onto it fails
        result = runner.invoke(main, [
            "solve", "feasible", "--dims", "2,2,2",
            "--marginal", f"1,2:{FIXTURES}/tripartite_222/rho_12.json",
            "--marginal", f"2,3:{FIXTURES}/tripartite_222/rho_23.json", "--out", str(out)])
        assert result.exit_code == 1
        assert "report.json" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_solve_spectrum_nan_spectrum_exits_one(self, runner, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"values": [0.5, 0.2, 0.1, 0.1, 0.1, NaN]}')
        result = runner.invoke(main, [
            "solve", "spectrum", "--dims", "2,3",
            "--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json",
            "--marginal", f"2:{FIXTURES}/bipartite_2x3/rho_b.json",
            "--spectrum", str(spec)])
        assert result.exit_code == 1
        assert f"{spec}: values must be finite" in result.output

    def test_solve_rank_with_greedy_init(self, runner, tmp_path):
        ra = tmp_path / "ra.json"
        rb = tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.5951, 0.2341, 0.1708]), (3,))
        fileio.write_matrix(rb, np.diag([0.6124, 0.1926, 0.1654, 0.0296]), (4,))
        result = invoke(runner, "solve", "rank", "--cap", "2",
                        "--dims", "3,4", "--marginal", f"1:{ra}", "--marginal", f"2:{rb}",
                        "--init", "greedy", "--max-iter", "20000", "--tol", "1e-12")
        assert result.exit_code == 0
        assert "rank: 2" in result.output
        assert "entropy: 0.189" in result.output

    def test_solve_rank_notes_the_gauss_newton_finish(self, runner, tmp_path):
        """Rank at most 2 from the greedy start on rank_3x4 within 1,000
        iterations: the seeded nudge leaves the start's saddle, and the
        Gauss-Newton finish takes over at Err 1e-3 (735-988 iterations over
        seeds 0-30; 1,015-1,268 from 1e-6; the sweeps alone take
        1,582-1,835, and 2,862 without the nudge). The written solution
        verifies, and it is in the target set by the rule that verify and the
        printed rank use, so a re-run from it takes no sweep."""
        _, marginals, _ = fixture_marginals("rank_3x4", tmp_path)
        for max_iter, notes in [("1000", r"Gauss-Newton finish: \d+ steps after \d+ sweeps"),
                                ("100", "")]:   # 100 sweeps end far above 1e-3
            out = tmp_path / max_iter
            result = invoke(runner, "solve", "rank", "--cap", "2", "--dims", "3,4", *marginals,
                            "--init", "greedy", "--max-iter", max_iter, "--tol", "1e-12",
                            "--out", out)
            assert result.exit_code == (0 if notes else 2), result.output
            written = json.loads((out / "report.json").read_text())["notes"]
            assert re.fullmatch(notes, written)
            printed = re.findall(r"^notes: (.*)$", result.output, re.M)
            assert printed == ([written] if notes else [])
        solution = tmp_path / "1000" / "solution.json"
        result = invoke(runner, "verify", solution, "--dims", "3,4", *marginals, "--tol", "1e-10")
        assert result.exit_code == 0, result.output
        result = invoke(runner, "solve", "rank", "--cap", "2", "--dims", "3,4", *marginals,
                        "--init", f"file:{solution}", "--tol", "1e-12")
        assert result.exit_code == 0
        assert "iterations: 0" in result.output.splitlines()

    def test_solve_rank_iterates_a_non_psd_start_that_meets_the_marginals(self, runner,
                                                                          tmp_path):
        half, start = tmp_path / "half.json", tmp_path / "x.json"
        fileio.write_matrix(half, np.eye(2) / 2, (2,))
        fileio.write_matrix(start, np.eye(4) / 4 + 0.3 * np.diag([1.0, -1.0, -1.0, 1.0]),
                            (2, 2))
        marginals = ["--marginal", f"1:{half}", "--marginal", f"2:{half}"]
        out = tmp_path / "run"
        result = invoke(runner, "solve", "rank", "--cap", "2", "--dims", "2,2", *marginals,
                        "--init", f"file:{start}", "--out", out)
        assert result.exit_code == 0
        assert "iterations: 0" not in result.output
        result = invoke(runner, "verify", out / "solution.json", "--dims", "2,2", *marginals)
        assert result.exit_code == 0, result.output

    def test_solve_feasible_on_singlet_triangle_exits_two(self, runner, tmp_path):
        v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        singlet = tmp_path / "singlet.json"
        fileio.write_matrix(singlet, np.outer(v, v), (2, 2))
        result = invoke(runner, "solve", "feasible", "--dims", "2,2,2",
                        *[a for pair in ["1,2", "1,3", "2,3"]
                          for a in ("--marginal", f"{pair}:{singlet}")],
                        "--tol", "1e-10", "--max-iter", "500")
        assert result.exit_code == 2

    def test_solve_feasible_trace_mismatch_exits_one(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        fileio.write_matrix(bad, 0.9 * np.eye(3) / 3, (3,))
        result = runner.invoke(main, [
            "solve", "feasible", "--dims", "2,3",
            "--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json",
            "--marginal", f"2:{bad}"])
        assert result.exit_code == 1

    def test_solve_with_file_init_and_restarts(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        p = rng.exponential(size=2)
        q = rng.exponential(size=3)
        r1 = np.diag(p / p.sum())
        r2 = np.diag(q / q.sum())
        ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
        fileio.write_matrix(ra, r1, (2,))
        fileio.write_matrix(rb, r2, (3,))
        product = tmp_path / "x0.json"
        fileio.write_matrix(product, np.kron(r1, r2), (2, 3))
        c = tmp_path / "c.json"
        fileio.write_spectrum(c, np.sort(np.outer(np.diag(r1), np.diag(r2)).ravel())[::-1])
        result = invoke(runner, "solve", "spectrum", "--dims", "2,3",
                        "--marginal", f"1:{ra}", "--marginal", f"2:{rb}",
                        "--spectrum", c, "--init", f"file:{product}",
                        "--restarts", "2", "--tol", "1e-10")
        assert result.exit_code == 0
        assert "iterations: 0" in result.output

    def test_max_entropy_with_renyi_alpha(self, runner, tmp_path):
        ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.6, 0.4]), (2,))
        fileio.write_matrix(rb, np.diag([0.7, 0.3]), (2,))
        result = invoke(runner, "solve", "max-entropy", "--dims", "2,2",
                        "--marginal", f"1:{ra}", "--marginal", f"2:{rb}",
                        "--alpha", "2", "--max-iter", "40", "--seed", "0")
        assert result.exit_code in (0, 2)  # stationarity may or may not fire in 40
        assert "marginal_residual" in result.output

    def test_max_entropy_returns_the_product_state(self, runner, tmp_path):
        """On single-party marginals the entropy maximum is rho_a x rho_b, of
        entropy S(rho_a) + S(rho_b)."""
        out = tmp_path / "run"
        bi = ["--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json",
              "--marginal", f"2:{FIXTURES}/bipartite_2x3/rho_b.json"]
        result = invoke(runner, "solve", "max-entropy", "--dims", "2,3", *bi, "--out", out)
        assert result.exit_code == 0
        ra, _ = fileio.read_matrix(FIXTURES / "bipartite_2x3" / "rho_a.json")
        rb, _ = fileio.read_matrix(FIXTURES / "bipartite_2x3" / "rho_b.json")
        report = json.loads((out / "report.json").read_text())
        assert abs(report["entropy"] - (von_neumann(ra) + von_neumann(rb))) <= 1e-8
        # one row per iteration; the last is the exact stationarity measure
        rows = (out / "history.csv").read_text().splitlines()
        assert rows[0] == "iteration,residual" and len(rows) == 1 + report["iterations"]
        assert float(rows[-1].split(",")[1]) == report["final_residual"] <= 1e-8
        result = invoke(runner, "verify", out / "solution.json", "--dims", "2,3", *bi,
                        "--tol", "1e-10")
        assert result.exit_code == 0

    def test_solve_nonconvergence_exits_two(self, runner, tmp_path):
        ra = tmp_path / "ra.json"
        rb = tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.9, 0.1]), (2,))
        fileio.write_matrix(rb, np.diag([0.9, 0.1]), (2,))
        c = tmp_path / "c.json"
        fileio.write_spectrum(c, [0.25, 0.25, 0.25, 0.25])
        result = runner.invoke(main, [
            "solve", "spectrum", "--dims", "2,2",
            "--marginal", f"1:{ra}", "--marginal", f"2:{rb}",
            "--spectrum", str(c), "--max-iter", "200"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args,message", [
        (["--dims", "2,2", "--marginal", "nocolon"],
         "--marginal 'nocolon': expected '<keepset>:<file>'"),
        (["--dims", "2,x", "--marginal", "1:m.json"], "--dims: invalid literal"),
        (["--dims", "2,2", "--marginal", f"x:{FIXTURES / 'bipartite_2x3' / 'rho_a.json'}"],
         "bad index set 'x'"),
        (["--dims", "2,2"], "at least one --marginal is required"),
        (["--marginal", "1:m.json"], "Missing option '--dims'"),
        (["--dims", "2,2", "--marginal", "1:m.json", "--seed", "x"],
         "'x' is not a valid integer"),
        (["--dims", "2,2", "--marginal", "1:m.json", "--mode", "plain"],
         "No such option '--mode'"),
    ], ids=["malformed-marginal", "bad-dims", "bad-index-set", "no-marginal",
            "missing-dims", "bad-seed", "removed-mode"])
    def test_malformed_input_exits_one(self, runner, args, message):
        result = runner.invoke(main, ["solve", "feasible", *args])
        assert result.exit_code == 1
        assert message in result.output

    @pytest.mark.parametrize("command", [
        ["random", "unitary", "--dims", "2"],
        ["random", "density", "--dims", "2"],
        ["random", "probvec", "--dims", "2"],
        ["solve", "feasible", "--dims", "2,2", "--marginal", "1:m.json"],
    ], ids=["random-unitary", "random-density", "random-probvec", "solve-feasible"])
    def test_negative_seed_exits_one_naming_the_option(self, runner, command):
        result = runner.invoke(main, [*command, "--seed", "-1"])
        assert result.exit_code == 1
        assert "--seed" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("args,message", [
        (["solve", "feasible", "--tol", "nan"], "tolerance must be finite and positive"),
        (["solve", "max-entropy", "--stationarity-tol", "-1"],
         "nspg_stationarity_tol must be finite and positive"),
        (["verify", FIXTURES / "bipartite_2x3" / "rho_a.json", "--tol", "nan"],
         "--tol must be finite and positive"),
        (["solve", "max-entropy", "--alpha", "nan"], "error: alpha must be finite and > 0, got nan"),
        (["solve", "max-entropy", "--alpha", "inf"], "error: alpha must be finite and > 0, got inf"),
    ], ids=["solve-tol-nan", "stationarity-tol-negative", "verify-tol-nan", "alpha-nan",
            "alpha-inf"])
    def test_bad_tolerance_exits_one(self, runner, args, message):
        result = runner.invoke(main, [str(a) for a in args] + [
            "--dims", "2,3", "--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json"])
        assert result.exit_code == 1
        assert message in result.output

    @pytest.mark.parametrize("command,option", [
        (["solve", "max-entropy"], ["--tol", "1e-3"]),
        (["solve", "max-entropy"], ["--restarts", "5"]),
        (["consistency"], ["--tol", "1e-3"]),
        (["project", "z.json"], ["--mode", "dykstra"]),
        (["project", "z.json"], ["--tol", "1e-3", "--psd"]),
        (["project", "z.json"], ["--max-iter", "5", "--psd"]),
    ], ids=["max-entropy-tol", "max-entropy-restarts", "consistency-tol", "project-mode",
            "project-tol", "project-max-iter"])
    def test_options_a_command_does_not_read_are_rejected(self, runner, command, option):
        result = runner.invoke(main, [*command, "--dims", "2,2", "--marginal", "1:m.json",
                                      *option])
        assert result.exit_code == 1
        assert f"No such option '{option[0]}'" in result.output


class TestConstructCommands:
    def test_greedy_prints_table_values(self, runner, tmp_path):
        ra = tmp_path / "ra.json"
        rb = tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.5951, 0.2341, 0.1708]), (3,))
        fileio.write_matrix(rb, np.diag([0.6124, 0.1926, 0.1654, 0.0296]), (4,))
        result = invoke(runner, "construct", "greedy",
                        "--marginal", f"1:{ra}", "--marginal", f"2:{rb}")
        assert result.exit_code == 0
        assert "rank: 3" in result.output
        assert "lambda_max: 0.9531" in result.output
        assert "entropy: 0.2158" in result.output

    def test_pure_on_isospectral(self, runner, tmp_path):
        r = tmp_path / "r.json"
        fileio.write_matrix(r, np.diag([0.7, 0.3]), (2,))
        result = invoke(runner, "construct", "pure",
                        "--marginal", f"1:{r}", "--marginal", f"2:{r}")
        assert result.exit_code == 0
        assert "rank: 1" in result.output

    def test_rank_k_out_of_range_exits_one(self, runner, tmp_path):
        ra = tmp_path / "ra.json"
        rb = tmp_path / "rb.json"
        fileio.write_matrix(ra, np.eye(3) / 3, (3,))
        fileio.write_matrix(rb, np.eye(4) / 4, (4,))
        result = runner.invoke(main, [
            "construct", "rank-k", "--k", "13",
            "--marginal", f"1:{ra}", "--marginal", f"2:{rb}"])
        assert result.exit_code == 1
        assert "admissible" in result.output

    @pytest.mark.parametrize("command,k", [("sweep", 4), ("sweep", 6), ("rank-k", 4)])
    def test_rank_short_of_k_exits_one(self, runner, tmp_path, command, k):
        ra = tmp_path / "ra.json"
        rb = tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.6, 0.4]), (2,))
        fileio.write_matrix(rb, np.diag([0.5, 0.5 - 2e-10, 2e-10]), (3,))
        result = runner.invoke(main, [
            "construct", command, "--k", str(k),
            "--marginal", f"1:{ra}", "--marginal", f"2:{rb}", "--out", str(tmp_path / "run")])
        assert result.exit_code == 1
        assert f"k={k} not reached" in result.output
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", [["greedy"], ["sweep", "--k", "3"]])
    def test_repeated_marginal_exits_one(self, runner, tmp_path, command):
        # a dict of the --marginal pairs used to keep the last of the two
        paths = [tmp_path / f"r{i}.json" for i in range(3)]
        for path, m in zip(paths, (np.diag([0.6, 0.4]), np.diag([0.9, 0.1]),
                                   np.diag([0.5, 0.3, 0.2]))):
            fileio.write_matrix(path, m, (len(m),))
        out = tmp_path / "run"
        result = runner.invoke(main, [
            "construct", *command, "--marginal", f"1:{paths[0]}", "--marginal", f"1:{paths[1]}",
            "--marginal", f"2:{paths[2]}", "--out", str(out)])
        assert result.exit_code == 1
        assert "duplicate kept-index set 1" in result.output
        assert not out.exists()

    def test_runtime_error_exits_one(self, runner, tmp_path, monkeypatch):
        def stalled(rho1, rho2):
            raise RuntimeError("decomposition stalled: no chains on nonzero remainders")

        monkeypatch.setattr(constructive, "interlace_decomposition", stalled)
        r = tmp_path / "r.json"
        fileio.write_matrix(r, np.diag([0.7, 0.3]), (2,))
        result = runner.invoke(main, ["construct", "interlace",
                                      "--marginal", f"1:{r}", "--marginal", f"2:{r}"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: decomposition stalled" in result.output
        assert "Traceback" not in result.output

    def test_sweep_writes_solution(self, runner, tmp_path):
        """The rank sweep at k = 30 on rank_6x8: the file's bytes equal
        json.dumps of the library's state pair by pair, in the one-pair-per-line
        layout, and verify reads it back."""
        dims_text, marginals, _ = fixture_marginals("rank_6x8", tmp_path)
        out = tmp_path / "run"
        result = invoke(runner, "construct", "sweep", "--k", "30", *marginals, "--out", out)
        assert result.exit_code == 0
        a, b = (fileio.read_matrix(tmp_path / f"rho_{side}.json")[0] for side in "ab")
        x = constructive.rank_sweep(a, b, 30).matrix
        pairs = ",\n ".join(json.dumps([z.real, z.imag]) for z in x.ravel().tolist())
        expected = f'{{"dims": {json.dumps([6, 8])}, "entries": [\n {pairs}\n]}}\n'
        assert (out / "solution.json").read_text() == expected
        result = invoke(runner, "verify", out / "solution.json", "--dims", dims_text,
                        *marginals, "--tol", "1e-10")
        assert result.exit_code == 0, result.output


class TestDuplicateMarginals:
    """Every command that reads --marginal refuses a repeated kept set, and
    names it and both of its files."""

    @pytest.mark.parametrize("command", [
        ["solve", "feasible"], ["verify", FIXTURES / "tripartite_222" / "solution_rank6.json"],
        ["consistency"], ["project", FIXTURES / "tripartite_222" / "solution_rank6.json"]],
        ids=["solve", "verify", "consistency", "project"])
    @pytest.mark.parametrize("first,second,label", [("1", "1", "1"), ("1,2", "2,1", "1,2")],
                             ids=["same", "reordered"])
    def test_repeated_kept_set_exits_one_naming_it(self, runner, command, first, second,
                                                   label):
        a, b = ([FIXTURES / "bipartite_2x3" / f"rho_{s}.json" for s in "aa"] if label == "1"
                else [FIXTURES / "tripartite_222" / f"rho_{s}.json" for s in ("12", "23")])
        result = runner.invoke(main, [str(x) for x in command] + [
            "--dims", "2,2,2", "--marginal", f"{first}:{a}", "--marginal", f"{second}:{b}"])
        assert result.exit_code == 1
        assert f"error: duplicate kept-index set {label}: {a} and {b}" in result.output


BI_A, BI_B = (FIXTURES / "bipartite_2x3" / f"rho_{s}.json" for s in "ab")   # orders 2 and 3
RHO_12 = FIXTURES / "tripartite_222" / "rho_12.json"                           # order 4
BI_PAIR = ["--marginal", f"1:{BI_A}", "--marginal", f"2:{BI_B}"]
ORDER_MISMATCHES = {
    "project": (RHO_12, ["project", RHO_12, "--dims", "2,3", "--psd"]),
    "verify": (RHO_12, ["verify", RHO_12, "--dims", "2,3", *BI_PAIR]),
    "init-file": (RHO_12, ["solve", "feasible", "--dims", "2,3", *BI_PAIR,
                           "--init", f"file:{RHO_12}"]),
    "marginal": (BI_B, ["consistency", "--dims", "2,2", *BI_PAIR]),
}


@pytest.mark.parametrize("path,command", ORDER_MISMATCHES.values(), ids=list(ORDER_MISMATCHES))
def test_order_mismatch_exits_one_naming_the_file(runner, path, command):
    """A matrix file whose order does not match --dims (for a --marginal
    file, its kept set's dims) fails with an error line that starts with its path."""
    result = runner.invoke(main, [str(a) for a in command])
    assert result.exit_code == 1, result.output
    assert f"error: {path}: matrix order " in result.output


ROUND_TRIPS = {
    "solve-feasible-twofold-extension": ("twofold_extension_222", [
        "solve", "feasible", "--tol", "1e-10", "--max-iter", "100"], "1e-10"),
    "solve-rank-cap-3": ("bipartite_2x3", ["solve", "rank", "--cap", "3", "--tol", "1e-10"],
                         "1e-9"),
    "solve-rank-greedy-6x8": ("rank_6x8", [
        "solve", "rank", "--cap", "3", "--init", "greedy", "--max-iter", "3000",
        "--tol", "1e-12"], "1e-10"),
    **{f"construct-{args[0]}": ("bipartite_2x3", ["construct", *args], "1e-10")
       for args in [["sweep", "--k", "5"], ["rank-k", "--k", "4"], ["greedy"], ["interlace"]]},
    "construct-pure": ("twin", ["construct", "pure"], "1e-10"),
}


class TestVerify:
    def test_emitted_solution_verifies(self, runner, tmp_path):
        _, marginals, _ = fixture_marginals("tripartite_222", tmp_path)
        out = tmp_path / "run"
        result = invoke(runner, "solve", "feasible", "--dims", "2,2,2", *marginals,
                        "--tol", "1e-10", "--max-iter", "5000", "--out", out)
        assert result.exit_code == 0
        assert (out / "report.json").is_file() and (out / "history.csv").is_file()
        result = invoke(runner, "verify", out / "solution.json", "--dims", "2,2,2", *marginals,
                        "--tol", "1e-9")
        assert result.exit_code == 0
        assert "solution verified" in result.output

    @pytest.mark.parametrize("name,command,tol", ROUND_TRIPS.values(), ids=list(ROUND_TRIPS))
    def test_written_solution_verifies(self, runner, tmp_path, name, command, tol):
        """Each command writes with --out a solution that verify accepts at
        --tol; a solve must converge within its --max-iter. The two-fold
        symmetric extension takes 23 Douglas-Rachford sweeps (alternation
        needs 142 from the same start), and rank at most 3 from the greedy
        start on rank_6x8 takes 2,318 iterations at seed 0: a first
        Gauss-Newton finish at Err 1e-3 stops above the tolerance after one
        step, and a second certifies (7,293 with one finish at 1e-6; the
        sweeps alone take 13,540)."""
        dims_text, marginals, _ = fixture_marginals(name, tmp_path)
        dims = ["--dims", dims_text] if command[0] == "solve" else []
        out = tmp_path / "run"
        result = invoke(runner, *command, *dims, *marginals, "--out", out)
        assert result.exit_code == 0, result.output
        result = invoke(runner, "verify", out / "solution.json", "--dims", dims_text,
                        *marginals, "--tol", tol)
        assert result.exit_code == 0, result.output

    def test_wrong_marginals_fail(self, runner, tmp_path):
        wrong = tmp_path / "wrong.json"
        fileio.write_matrix(wrong, np.eye(4) / 4, (2, 2))
        result = runner.invoke(main, [
            "verify", f"{FIXTURES}/tripartite_222/solution_rank6.json",
            "--dims", "2,2,2",
            "--marginal", f"2,3:{wrong}", "--tol", "1e-10"])
        assert result.exit_code == 1


class TestVerifyThresholds:
    """verify's verdicts on either side of each threshold, on two-qubit states
    whose marginals are given exactly: PSD_ATOL = 1e-10, TRACE_ATOL = 1e-10,
    and the marginal residual against --tol itself."""

    def run(self, runner, tmp_path, x, marginals, *options):
        path = tmp_path / "x.json"
        fileio.write_matrix(path, x, (2, 2))
        args = []
        for keep, m in marginals.items():
            fileio.write_matrix(tmp_path / f"m{keep}.json", m, (2,))
            args += ["--marginal", f"{keep}:{tmp_path / f'm{keep}.json'}"]
        result = runner.invoke(main, [str(a) for a in
                                      ["verify", path, "--dims", "2,2", *args, *options]])
        return result.exit_code, dict(line.split(": ") for line in result.output.splitlines()
                                      if ": " in line)

    @pytest.mark.parametrize("eps,verdict", [(1e-11, "ok"), (1e-9, "FAIL")])
    def test_psd_line_at_an_eigenvalue_of_minus_eps(self, runner, tmp_path, eps, verdict):
        zz = np.diag([1.0, -1.0, -1.0, 1.0])   # eigenvalues 1/2 + eps, -eps twice
        x = np.eye(4) / 4 + (0.25 + eps) * zz
        code, lines = self.run(runner, tmp_path, x, {1: np.eye(2) / 2, 2: np.eye(2) / 2})
        assert lines["psd"] == verdict and code == (0 if verdict == "ok" else 1)
        assert lines["marginals"] == lines["unit_trace"] == "ok"

    @pytest.mark.parametrize("eps,verdict", [(1e-11, "ok"), (1e-9, "FAIL")])
    def test_unit_trace_line_at_a_trace_of_one_plus_eps(self, runner, tmp_path, eps, verdict):
        x = (1 + eps) * np.eye(4) / 4
        half = (1 + eps) * np.eye(2) / 2
        code, lines = self.run(runner, tmp_path, x, {1: half, 2: half}, "--tol", "1e-12")
        assert lines["unit_trace"] == verdict and code == (0 if verdict == "ok" else 1)
        assert lines["psd"] == lines["marginals"] == "ok"

    @pytest.mark.parametrize("tol,verdict", [("1e-6", "ok"), ("1e-7", "FAIL")])
    def test_marginals_line_against_tol(self, runner, tmp_path, tol, verdict):
        """A marginal residual of sqrt(2) 1e-7 passes --tol 1e-6 and fails 1e-7."""
        x = np.eye(4) / 4 + 1e-7 * np.kron(np.diag([1.0, -1.0]), np.eye(2)) / 2
        code, lines = self.run(runner, tmp_path, x, {1: np.eye(2) / 2, 2: np.eye(2) / 2},
                               "--tol", tol)
        assert lines["marginals"] == verdict and code == (0 if verdict == "ok" else 1)
        assert lines["psd"] == lines["unit_trace"] == "ok"


class TestRandomCommands:
    def test_unitary_deterministic(self, runner, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        invoke(runner, "random", "unitary", "--dims", "4", "--seed", "7", "--out", a)
        invoke(runner, "random", "unitary", "--dims", "4", "--seed", "7", "--out", b)
        assert a.read_text() == b.read_text()
        payload = json.loads(a.read_text())
        u = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(4, 4)
        assert np.array_equal(u, random_unitary(4, 7))

    def test_density_valid(self, runner, tmp_path):
        out = tmp_path / "rho.json"
        invoke(runner, "random", "density", "--dims", "2,3", "--seed", "1", "--out", out)
        m, dims = fileio.read_matrix(out)
        assert dims.dims == (2, 3)
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(m)[0] >= -1e-10

    def test_probvec(self, runner, tmp_path):
        out = tmp_path / "p.json"
        invoke(runner, "random", "probvec", "--dims", "6", "--seed", "2", "--out", out)
        p = fileio.read_spectrum(out)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(p) <= 0)


class TestProjectCommand:
    def test_project_marginals(self, runner, tmp_path):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 6))
        z = (z + z.T) / 2
        src = tmp_path / "z.json"
        fileio.write_matrix(src, z, (2, 3))
        out = tmp_path / "x.json"
        result = invoke(runner, "project", src, "--dims", "2,3",
                        "--marginal", f"1:{FIXTURES}/bipartite_2x3/rho_a.json",
                        "--marginal", f"2:{FIXTURES}/bipartite_2x3/rho_b.json",
                        "--out", out)
        assert result.exit_code == 0
        x, _ = fileio.read_matrix(out)
        target, _ = fileio.read_matrix(FIXTURES / "bipartite_2x3/rho_a.json")
        from qmarginals import SystemDims, partial_trace
        assert np.abs(partial_trace(x, SystemDims((2, 3)), (1,)) - target).max() < 1e-10

    def test_project_psd(self, runner, tmp_path):
        src = tmp_path / "z.json"
        fileio.write_matrix(src, np.diag([1.0, -1.0]), (2,))
        out = tmp_path / "x.json"
        result = invoke(runner, "project", src, "--dims", "2", "--psd", "--out", out)
        assert result.exit_code == 0
        x, _ = fileio.read_matrix(out)
        assert np.abs(x - np.diag([1.0, 0.0])).max() < 1e-12

    def test_project_intersection(self, runner, tmp_path):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(4, 4))
        z = (z + z.T) / 2
        src = tmp_path / "z.json"
        fileio.write_matrix(src, z, (2, 2))
        ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
        fileio.write_matrix(ra, np.diag([0.6, 0.4]), (2,))
        fileio.write_matrix(rb, np.diag([0.7, 0.3]), (2,))
        out = tmp_path / "x.json"
        result = invoke(runner, "project", src, "--dims", "2,2", "--psd",
                        "--marginal", f"1:{ra}", "--marginal", f"2:{rb}", "--out", out)
        assert result.exit_code == 0
        assert "converged: True" in result.output
        x, _ = fileio.read_matrix(out)
        from qmarginals import SystemDims, partial_trace
        d = SystemDims((2, 2))
        assert np.linalg.eigvalsh(x)[0] >= -1e-12
        assert np.abs(partial_trace(x, d, (1,)) - np.diag([0.6, 0.4])).max() < 1e-9

    @pytest.mark.parametrize("name,start", [
        ("bipartite_2x3", "hermitian"), ("rank_3x4", "hermitian"), ("tripartite_222", "hermitian"),
        ("tripartite_222", "density"), ("bipartite_2x3", "product"),
    ], ids=["bipartite_2x3", "rank_3x4", "tripartite_222", "tripartite_222-random-density",
            "bipartite_2x3-product"])
    def test_project_intersection_is_certified(self, runner, tmp_path, name, start):
        """The written x is the library's bit for bit, and the library's dual
        point certifies it as the projection of z. The product of the two
        full-rank marginals is positive definite and in the set, so the
        Cholesky test skips the eigendecomposition and x is z up to rounding."""
        dims_text, marginals, cs = fixture_marginals(name, tmp_path)
        src, out = tmp_path / "z.json", tmp_path / "x.json"
        if start == "density":
            invoke(runner, "random", "density", "--dims", dims_text, "--seed", "1", "--out", src)
        else:
            z = (np.kron(*[fileio.read_matrix(FIXTURES / f)[0]
                           for f in FIXTURE_FILES[name].values()]) if start == "product"
                 else random_hermitian(np.random.default_rng(7), cs.dims.total))
            fileio.write_matrix(src, z, cs.dims)
        z = fileio.read_matrix(src)[0]
        result = invoke(runner, "project", src, "--dims", dims_text, "--psd", *marginals,
                        "--out", out)
        assert result.exit_code == 0, result.output
        assert "converged: True" in result.output.splitlines()
        x, h, _gnorm, capped = project_intersection(z, cs)
        assert not capped
        assert np.array_equal(fileio.read_matrix(out)[0], x)
        assert max(kkt_residuals(z, x, h, cs)) <= 1e-12
        if start == "product":
            assert np.abs(x - z).max() <= 1e-14
        result = invoke(runner, "verify", out, "--dims", dims_text, *marginals, "--tol", "1e-12")
        assert result.exit_code == 0, result.output

    def test_project_intersection_on_singlet_triangle_exits_two(self, runner, tmp_path):
        v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        singlet = tmp_path / "singlet.json"
        fileio.write_matrix(singlet, np.outer(v, v), (2, 2))
        src, out = tmp_path / "z.json", tmp_path / "x.json"
        fileio.write_matrix(src, np.eye(8) / 8, (2, 2, 2))
        result = invoke(runner, "project", src, "--dims", "2,2,2", "--psd",
                        *[a for pair in ["1,2", "1,3", "2,3"]
                          for a in ("--marginal", f"{pair}:{singlet}")], "--out", out)
        assert result.exit_code == 2
        assert "converged: False" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--marginal", "1:x.json", "--spectrum", "c.json"],
         "--spectrum cannot be combined with --marginal or --psd"),
        (["--psd", "--spectrum", "c.json"],
         "--spectrum cannot be combined with --marginal or --psd"),
    ], ids=["spectrum-marginal", "spectrum-psd"])
    def test_inputs_the_mode_does_not_read_exit_one(self, runner, tmp_path, args, message):
        src = tmp_path / "z.json"
        fileio.write_matrix(src, np.eye(4) / 4, (2, 2))
        result = runner.invoke(main, ["project", str(src), "--dims", "2,2", *args])
        assert result.exit_code == 1
        assert message in result.output


class TestSingleFileWriteErrors:
    """An unwritable --out exits 1 with an error line naming the target file."""

    def command(self, name, tmp_path):
        m = tmp_path / "m.json"
        fileio.write_matrix(m, np.eye(4) / 4, (2, 2))
        r = tmp_path / "r.json"
        fileio.write_matrix(r, np.diag([0.7, 0.3]), (2,))
        target = tmp_path / "missing" / "x.json"
        return {
            "trace": (["trace", m, "--keep", "1", "--out", target], target),
            "project": (["project", m, "--dims", "2,2", "--psd", "--out", target], target),
            "random-unitary": (["random", "unitary", "--dims", "2", "--out", target], target),
            "random-density": (["random", "density", "--dims", "2", "--out", target], target),
            "random-probvec": (["random", "probvec", "--dims", "2", "--out", target], target),
            "construct": (["construct", "greedy", "--marginal", f"1:{r}",
                           "--marginal", f"2:{r}", "--out", tmp_path / "run"],
                          tmp_path / "run" / "solution.json"),
        }[name]

    @pytest.mark.parametrize("name", ["trace", "project", "random-unitary", "random-density",
                                      "random-probvec", "construct"])
    def test_unwritable_out_exits_one_naming_the_file(self, runner, tmp_path, name):
        args, target = self.command(name, tmp_path)
        if name == "construct":
            target.mkdir(parents=True)   # renaming onto a directory fails
        result = invoke(runner, *args)
        assert result.exit_code == 1
        assert "error: [Errno" in result.output
        assert str(target) in result.output
        assert ".tmp" not in result.output
        assert not any(p.name.endswith(".tmp") for p in tmp_path.rglob("*"))
