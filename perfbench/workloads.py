"""The benchmark's four workloads: inputs, timed instances, and certification.

Each workload is a closed loop with a single caller: an instance starts only
when the previous one has returned and been certified. `prepare(seed, workdir)`
builds the inputs (everything before timing starts) and returns the
workload's fixed list of `Instance`s; each `attempt()` is one timed call of
the library or CLI followed by the certification of its result, and returns
one failure message if the call raised, did not converge, or failed
certification.

Inputs are drawn with numpy alone, never with the library's own random
helpers, so that a change to the library cannot change what is measured.
For the three library workloads the seed picks a local frame
U = u_1 x ... x u_k (Haar u_i; the identity for seed 0) and the instances
are the seed-0 instances seen in that frame: marginals and starting point
alike. Every layer is covariant under local unitaries, so the work per
instance hardly depends on the seed, while the entries of every input do.
A new solver seed instead would move the NSPG work by a factor of ten or
more (358 to 11,348 inner sweeps over the first twelve two-qubit draws).
Certification is independent of the library too: marginals are recomputed
here with `reduced_state`, and eigenvalues with `numpy.linalg.eigvalsh`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import qmarginals.cli
import qmarginals.solvers

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

PSD_TOL = 1e-10          # smallest eigenvalue allowed
HERMITIAN_TOL = 1e-12
RANK_RTOL = 1e-10        # eigenvalues above RANK_RTOL * max(1, lambda_max) count
SPECTRUM_TOL = 1e-8      # prescribed eigenvalues, as in acceptance criterion 1
NSPG_TOL = 1e-8          # distance of the NSPG answer from rho1 x rho2
LIBRARY_TOL = 1e-8       # solve_feasible tolerance on chain-7q and allpairs-6q
CLI_TOL = 1e-10          # marginal tolerance for every file the CLI writes


# ---------------------------------------------------------------- inputs

def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar eigenbasis, flat-Dirichlet spectrum sorted descending.

    The same recipe, and so the same bits, as `qmarginals.random_density`
    when the benchmark was written; `selfcheck.py` checks they still agree.
    """
    u = haar_unitary(rng, n)
    p = rng.standard_exponential(n)
    p /= p.sum()
    p = np.sort(p)[::-1]
    return hermitian((u * p) @ u.conj().T)


def local_frame(seed: int, dims: tuple[int, ...]) -> list[np.ndarray]:
    if seed == 0:
        return [np.eye(d) for d in dims]
    rng = np.random.default_rng(seed)
    return [haar_unitary(rng, d) for d in dims]


def in_frame(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    return hermitian(u @ x @ u.conj().T)


def product_pure_state(rng: np.random.Generator, qubits: int) -> np.ndarray:
    psi = np.ones(1, dtype=complex)
    for _ in range(qubits):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(psi, v / np.linalg.norm(v))
    return np.outer(psi, psi.conj())


def read_values(path: Path) -> np.ndarray:
    """Spectrum fixture as written, without the library's renormalization."""
    return np.asarray(json.loads(path.read_text())["values"], dtype=float)


def read_entries(path: Path) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrix file parsed with json alone, independently of `qmarginals.fileio`."""
    payload = json.loads(path.read_text())
    dims = tuple(int(d) for d in payload["dims"])
    n = int(np.prod(dims))
    flat = np.array([complex(re, im) for re, im in payload["entries"]])
    return flat.reshape(n, n), dims


def write_entries(path: Path, matrix: np.ndarray, dims: tuple[int, ...]) -> None:
    payload = {"dims": list(dims),
               "entries": [[float(z.real), float(z.imag)] for z in matrix.ravel()]}
    path.write_text(json.dumps(payload) + "\n")


# ---------------------------------------------------------- certification

def reduced_state(x: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace onto the 1-based labels in `keep`, by axis transposition."""
    k = len(dims)
    kept = [i - 1 for i in sorted(keep)]
    rest = [i for i in range(k) if i not in kept]
    nk = int(np.prod([dims[i] for i in kept]))
    nr = int(np.prod([dims[i] for i in rest]))
    t = x.reshape(dims + dims).transpose(kept + rest + [k + i for i in kept + rest])
    return np.trace(t.reshape(nk, nr, nk, nr), axis1=1, axis2=3)


def certify_state(x, dims, targets, tol) -> list[str]:
    """Problems with `x` as a unit-trace PSD state with the given marginals."""
    x = np.asarray(x, dtype=complex)
    problems = []
    if not np.all(np.isfinite(x)):
        return ["non-finite entries"]
    if np.max(np.abs(x - x.conj().T)) > HERMITIAN_TOL:
        problems.append("not Hermitian")
    worst = max(np.linalg.norm(reduced_state(x, dims, keep) - sigma)
                for keep, sigma in targets)
    if worst > tol:
        problems.append(f"marginal error {worst:.3e} > {tol:g}")
    # |tr X - 1| <= sqrt(n_J) ||tr_{J^c} X - sigma_J||_F for any constraint J,
    # so the marginal check bounds the trace error by this much.
    smallest = min(sigma.shape[0] for _keep, sigma in targets)
    trace_err = abs(float(np.trace(x).real) - 1.0)
    if trace_err > np.sqrt(smallest) * tol + 1e-12:
        problems.append(f"trace error {trace_err:.3e}")
    lowest = float(np.linalg.eigvalsh(hermitian(x))[0])
    if lowest < -PSD_TOL:
        problems.append(f"min eigenvalue {lowest:.3e}")
    return problems


def numerical_rank(x) -> int:
    values = np.linalg.eigvalsh(hermitian(np.asarray(x, dtype=complex)))
    return int(np.sum(values > RANK_RTOL * max(1.0, float(values[-1]))))


@dataclass(frozen=True)
class Instance:
    """One timed call and its certification: `check()` returns the problems."""
    label: str
    check: Callable[[], list[str]]
    reset: Callable[[], None] = lambda: None   # untimed, before every attempt

    def attempt(self) -> list[str]:
        """Run once; one failure message if it raised or reported problems."""
        try:
            problems = self.check()
        except Exception as exc:  # an instance that raises counts as failed, the run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        return [f"{self.label}: {'; '.join(problems)}"] if problems else []


# ------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path], list[Instance]]


def warm_up(dims, targets) -> None:
    """One short solve on a throwaway constraint set: first LAPACK calls,
    code paths and caches, without planning the instance that gets timed."""
    cs = qmarginals.ConstraintSet(dims, targets[:2])
    qmarginals.solvers.solve_feasible(cs, qmarginals.SolveOptions(max_iterations=2))


# nspg-2x2 ---------------------------------------------------------------

# Draws of `random_state` (generator seed: rho1, rho2, then the start) whose
# NSPG solves take from 358 to 3,220 inner sweeps, none longer than ~1.5 s.
NSPG_DRAWS = (0, 2, 10, 11)


def solve_nspg(rho1, rho2, start, dims=(2, 2)) -> list[str]:
    targets = [((1,), rho1), ((2,), rho2)]
    cs = qmarginals.ConstraintSet(dims, targets)
    report = qmarginals.solvers.nspg_minimize(
        cs, "von-neumann", opts=qmarginals.SolveOptions(max_iterations=10000),
        initial=start)
    problems = [] if report.converged else ["stationarity certificate did not fire"]
    problems += certify_state(report.solution, dims, targets, NSPG_TOL)
    gap = np.linalg.norm(report.solution - np.kron(rho1, rho2))
    if gap > NSPG_TOL:
        problems.append(f"distance {gap:.3e} from rho1 x rho2")
    return problems


def prepare_nspg(seed: int, _workdir: Path) -> list[Instance]:
    u1, u2 = local_frame(seed, (2, 2))
    instances = []
    for draw in NSPG_DRAWS:
        rng = np.random.default_rng(draw)
        rho1 = in_frame(u1, random_state(rng, 2))
        rho2 = in_frame(u2, random_state(rng, 2))
        start = in_frame(np.kron(u1, u2), random_state(rng, 4))
        instances.append(Instance(f"nspg-{draw}",
                                  functools.partial(solve_nspg, rho1, rho2, start)))
    warm_up((2, 2), [((1,), rho1), ((2,), rho2)])
    return instances


# chain-7q and allpairs-6q -------------------------------------------------

def solve_mixture(dims, targets, start) -> list[str]:
    cs = qmarginals.ConstraintSet(dims, targets)
    report = qmarginals.solvers.solve_feasible(
        cs, qmarginals.SolveOptions(tolerance=LIBRARY_TOL), initial=start)
    problems = [] if report.converged else ["did not converge"]
    return problems + certify_state(report.solution, dims, targets, LIBRARY_TOL)


def mixture_instance(seed: int, qubits: int, weight: float, keeps) -> list[Instance]:
    """Marginals of (1 - weight) * random product pure state + weight * random state.

    Seed 0 draws the mixture and takes the solver's own seed-0 random start.
    """
    rng = np.random.default_rng(0)
    dims = (2,) * qubits
    n = 2 ** qubits
    rho = (1 - weight) * product_pure_state(rng, qubits) + weight * random_state(rng, n)
    u = functools.reduce(np.kron, local_frame(seed, dims))
    rho = in_frame(u, rho)
    targets = [(keep, reduced_state(rho, dims, keep)) for keep in keeps]
    start = in_frame(u, random_state(np.random.default_rng(0), n))
    warm_up(dims, targets)
    return [Instance("solve_feasible", functools.partial(solve_mixture, dims, targets, start))]


def prepare_chain(seed: int, _workdir: Path) -> list[Instance]:
    return mixture_instance(seed, 7, 0.8, [(i, i + 1) for i in range(1, 7)])


def prepare_allpairs(seed: int, _workdir: Path) -> list[Instance]:
    return mixture_instance(seed, 6, 0.7, list(itertools.combinations(range(1, 7), 2)))


# cli-fixtures -------------------------------------------------------------

def cli(args: list[str]) -> int:
    """One in-process `qmarginals` command; returns its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rv = qmarginals.cli.main([str(a) for a in args], prog_name="qmarginals",
                                     standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    return rv if isinstance(rv, int) else 0


@dataclass(frozen=True)
class CliCase:
    label: str
    command: list          # everything before --out
    dims: tuple[int, ...]
    marginals: list        # (keep, file) pairs
    spectrum: np.ndarray | None = None
    rank_cap: int | None = None
    rank: int | None = None


def prescribed_spectrum(path: Path) -> np.ndarray:
    """The spectrum the CLI prescribes: the file's values, descending, scaled
    to unit sum (`read_spectrum` renormalizes values printed to few decimals)."""
    v = np.sort(read_values(path))[::-1]
    return v / v.sum()


def marginal_args(marginals) -> list[str]:
    args = []
    for keep, path in marginals:
        args += ["--marginal", f"{','.join(map(str, keep))}:{path}"]
    return args


def prepare_cli(seed: int, workdir: Path) -> list[Instance]:
    inputs_dir = workdir / "inputs"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    # rank_3x4 and rank_6x8 ship spectra; the CLI takes matrix files.
    for name in ("rank_3x4", "rank_6x8"):
        for side in ("a", "b"):
            v = read_values(FIXTURES / name / f"spectrum_{side}.json")
            write_entries(inputs_dir / f"{name}_{side}.json", np.diag(v).astype(complex),
                          (len(v),))
    bi = FIXTURES / "bipartite_2x3"
    tri = FIXTURES / "tripartite_222"
    r34 = [((1,), inputs_dir / "rank_3x4_a.json"), ((2,), inputs_dir / "rank_3x4_b.json")]
    r68 = [((1,), inputs_dir / "rank_6x8_a.json"), ((2,), inputs_dir / "rank_6x8_b.json")]
    bi_marginals = [((1,), bi / "rho_a.json"), ((2,), bi / "rho_b.json")]
    tri_marginals = [((1, 2), tri / "rho_12.json"), ((2, 3), tri / "rho_23.json")]
    cases = [
        CliCase("solve-spectrum", ["solve", "spectrum", "--dims", "2,3",
                                   *marginal_args(bi_marginals),
                                   "--spectrum", bi / "target_spectrum.json",
                                   "--tol", "1e-10", "--max-iter", "5000", "--seed", seed],
                (2, 3), bi_marginals,
                spectrum=prescribed_spectrum(bi / "target_spectrum.json")),
        CliCase("solve-rank", ["solve", "rank", "--cap", "2", "--dims", "3,4",
                               *marginal_args(r34), "--init", "greedy",
                               "--max-iter", "20000", "--tol", "1e-12", "--seed", seed],
                (3, 4), r34, rank_cap=2),
        CliCase("solve-feasible", ["solve", "feasible", "--dims", "2,2,2",
                                   *marginal_args(tri_marginals),
                                   "--tol", "1e-12", "--seed", seed],
                (2, 2, 2), tri_marginals),
        *[CliCase(f"sweep-{k}", ["construct", "sweep", "--k", k, *marginal_args(r68)],
                  (6, 8), r68, rank=k)
          for k in range(8, 49)],
        CliCase("greedy", ["construct", "greedy", *marginal_args(r34)], (3, 4), r34),
        CliCase("interlace", ["construct", "interlace", *marginal_args(r34)], (3, 4), r34),
    ]
    targets = {path: read_entries(path)[0]
               for case in cases for _keep, path in case.marginals}
    warm = workdir / "warm-up"
    cli(["construct", "greedy", *marginal_args(r34), "--out", warm])
    cli(["verify", warm / "solution.json", "--dims", "3,4", *marginal_args(r34)])
    # Each attempt first removes what the previous one wrote, so it writes afresh.
    return [Instance(case.label, functools.partial(certify_cli_case, case, targets, out),
                     functools.partial(shutil.rmtree, out, ignore_errors=True))
            for case in cases for out in [workdir / "out" / case.label]]


def certify_cli_case(case: CliCase, targets: dict, out: Path) -> list[str]:
    code = cli([*case.command, "--out", out])
    if code != 0:
        return [f"exit code {code}"]
    solution = out / "solution.json"
    code = cli(["verify", solution, "--dims", ",".join(map(str, case.dims)),
                *marginal_args(case.marginals), "--tol", CLI_TOL])
    problems = [] if code == 0 else [f"verify exit code {code}"]
    x, dims = read_entries(solution)
    if dims != case.dims:
        return problems + [f"written dims {dims}"]
    problems += certify_state(x, dims, [(keep, targets[path]) for keep, path in case.marginals],
                              CLI_TOL)
    if case.spectrum is not None:
        values = np.sort(np.linalg.eigvalsh(hermitian(x)))[::-1]
        gap = float(np.max(np.abs(values - case.spectrum)))
        if gap > SPECTRUM_TOL:
            problems.append(f"spectrum off by {gap:.3e}")
    rank = numerical_rank(x) if case.rank_cap or case.rank else None
    if case.rank_cap is not None and rank > case.rank_cap:
        problems.append(f"rank {rank} > cap {case.rank_cap}")
    if case.rank is not None and rank != case.rank:
        problems.append(f"rank {rank} != {case.rank}")
    return problems


WORKLOADS = {w.name: w for w in [
    Workload("nspg-2x2",
             "NSPG von Neumann on four two-qubit instances: thousands of n = 4 projections "
             "inside capped Dykstra loops, so per-call overhead dominates",
             prepare_nspg),
    Workload("chain-7q",
             "solve_feasible on 7 qubits (n = 128) with 6 nearest-neighbour pair marginals: "
             "affine projection and eigensolves at large n, planning negligible",
             prepare_chain),
    Workload("allpairs-6q",
             "solve_feasible on 6 qubits (n = 64) with all 15 pair marginals: "
             "inclusion-exclusion planning over 2^15 subsets, then many-term projections",
             prepare_allpairs),
    Workload("cli-fixtures",
             "the fixture cases through the CLI with --out, each output re-read by verify: "
             "the only workload where cli, fileio and constructive do the work",
             prepare_cli),
]}
