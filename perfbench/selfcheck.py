"""The benchmark's own tests: exact counts, tracing hygiene, certification.

    python3 -m pytest perfbench/selfcheck.py

Takes about a minute: every workload is traced twice, and the ROADMAP's
NSPG instance once.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import qmarginals  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LIBRARY = ["nspg-2x2", "chain-7q", "allpairs-6q"]


def traced_round(instances):
    t = tracer.Tracer()
    t.install()
    try:
        times, failures = run.timed_round(instances)
    finally:
        t.uninstall()
    assert failures == []
    assert t.absent == []
    return t.metrics(sum(times), sum(times))


def traced_pass(name, seed, workdir):
    return traced_round(workloads.WORKLOADS[name].prepare(seed, workdir))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced passes of every workload at seed 0, each from a fresh setup."""
    return {name: [traced_pass(name, 0, tmp_path_factory.mktemp(f"{name}-{i}"))
                   for i in range(2)]
            for name in workloads.WORKLOADS}


def counts(metrics):
    units = {name: unit for name, unit, _better in tracer.PER_LAYER}
    return {name: value for name, value in metrics.items()
            if units[name] not in ("s", "ratio")}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(traced, name):
    first, second = traced[name]
    assert counts(first) == counts(second)
    assert set(first) == {name for name, _unit, _better in tracer.PER_LAYER}


def test_nspg_counts(traced):
    m = traced["nspg-2x2"][0]
    instances = len(workloads.NSPG_DRAWS)
    assert m["projections.project_marginals.calls"] == m["projections.project_psd.calls"]
    assert m["projections.plan.terms"] == 3 * instances
    assert m["solvers.marginal_residual.calls"] == 0


def test_nspg_3x4_reproduces_roadmap_counts():
    """Acceptance criterion 11 with solver seed 0, the ROADMAP's NSPG baseline."""
    fixture = workloads.FIXTURES / "rank_3x4"
    rho1 = np.diag(workloads.read_values(fixture / "spectrum_a.json"))
    rho2 = np.diag(workloads.read_values(fixture / "spectrum_b.json"))
    start = workloads.random_state(np.random.default_rng(0), 12)
    m = traced_round([workloads.Instance(
        "nspg-3x4", lambda: workloads.solve_nspg(rho1, rho2, start, (3, 4)))])
    assert m["solvers.outer_iterations"] == 73
    assert m["projections.project_psd.calls"] == 45169
    assert m["projections.project_marginals.calls"] == m["projections.project_psd.calls"]


@pytest.mark.parametrize("name,terms", [("chain-7q", 11), ("allpairs-6q", 22)])
def test_sweep_solver_identities(traced, name, terms):
    m = traced[name][0]
    instances = 1
    assert m["solvers.marginal_residual.calls"] == m["solvers.outer_iterations"] + instances
    assert m["projections.plan.terms"] == terms
    assert m["projections.check_consistency.calls"] == instances
    assert m["solvers.inner_sweeps_per_outer"] == 1.0


@pytest.mark.parametrize("name", LIBRARY)
def test_library_workloads_leave_cli_layers_idle(traced, name):
    m = traced[name][0]
    for layer in ["constructive.calls", "entropy.calls", "fileio.read.calls",
                  "fileio.write.calls", "cli.commands"]:
        assert m[layer] == 0


def test_cli_workload_counts(traced):
    m = traced["cli-fixtures"][0]
    cases = 46                  # 3 solves, 41 sweep ranks, greedy, interlace
    assert m["cli.commands"] == 2 * cases          # each case is re-read by verify
    assert m["fileio.write.calls"] == cases
    assert m["constructive.calls"] > cases
    assert m["fileio.write.bytes"] > 0


def test_uninstall_restores_every_seam(tmp_path):
    modules = [qmarginals, qmarginals.solvers, qmarginals.projections, qmarginals.cli,
               qmarginals.fileio, qmarginals.entropy, qmarginals.constructive]
    before = [dict(vars(m)) for m in modules]
    plan = vars(qmarginals.ConstraintSet)["correction_terms"]
    t = tracer.Tracer()
    t.install()
    assert qmarginals.solvers.project_psd is not before[1]["project_psd"]
    assert qmarginals.cli.von_neumann is not before[3]["von_neumann"]
    t.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert vars(qmarginals.ConstraintSet)["correction_terms"] is plan


def test_absent_seam_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracer, "SEAMS", tracer.SEAMS + [
        ("qmarginals.solvers", "no_such_function", "solvers.gone"),
        ("qmarginals.no_such_module", "f", "gone")])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["qmarginals.solvers.no_such_function", "qmarginals.no_such_module.f"]
    assert set(t.metrics(1.0, 1.0)) == {name for name, _unit, _better in tracer.PER_LAYER}


def test_timer_rescales_each_sample_by_the_probes_around_it(monkeypatch):
    probes = iter([0.01, 0.03, 0.04])
    monkeypatch.setattr(calibrate.Timer, "probe", lambda self: next(probes))
    t = calibrate.Timer(interval=0.0)
    t.record("a", 1.0)
    t.record("a", 2.0)
    assert t.raw["a"] == [1.0, 2.0]
    assert t.calibrated["a"] == pytest.approx([1.0 * calibrate.NOMINAL_S / 0.02,
                                               2.0 * calibrate.NOMINAL_S / 0.035])


def test_reduced_state_matches_partial_trace():
    rng = np.random.default_rng(3)
    dims = (2, 3, 2)
    x = workloads.random_state(rng, 12)
    for keep in [(1,), (2,), (3,), (1, 3), (2, 3), (1, 2, 3)]:
        np.testing.assert_allclose(workloads.reduced_state(x, dims, keep),
                                   qmarginals.partial_trace(x, dims, keep), atol=1e-14)


def test_random_state_matches_library_random_density():
    ours = workloads.random_state(np.random.default_rng(0), 12)
    assert np.array_equal(ours, qmarginals.random_density((3, 4), 0).matrix)


def test_certification_rejects_wrong_states():
    a = np.diag([0.6, 0.4])
    b = np.diag([0.5, 0.3, 0.2])
    targets = [((1,), a), ((2,), b)]
    good = np.kron(a, b)
    assert workloads.certify_state(good, (2, 3), targets, 1e-10) == []
    off = good + 1e-6 * np.diag([1, -1, 0, 0, 0, 0])
    assert any("marginal" in p for p in workloads.certify_state(off, (2, 3), targets, 1e-10))
    negative = good + 0.1 * np.diag([1, 0, 0, 0, 0, -1])
    assert any("eigenvalue" in p
               for p in workloads.certify_state(negative, (2, 3), targets, 1.0))
    assert workloads.certify_state(good * np.nan, (2, 3), targets, 1e-10)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "chain-7q",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
