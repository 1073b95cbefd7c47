"""Command-line front end.

Exit codes: 0 success, 1 input, OS or runtime error (usage errors
included), 2 solver did not converge within its iteration limit.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import constructive, fileio, solvers
from .entropy import _von_neumann
from .projections import (
    ConstraintSet,
    check_consistency,
    project_intersection,
    project_marginals,
    project_psd,
    project_spectrum,
)
from .solvers import SolveOptions, SolveReport, marginal_residual
from .tensorcore import (
    TRACE_ATOL,
    DensityMatrix,
    as_dims,
    numerical_rank,
    partial_trace,
    random_density,
    random_probability_vector,
    random_unitary,
    _eigvalsh,
    _psd,
)


def _parse_dims(text: str):
    try:
        return as_dims(int(part) for part in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"--dims: {exc}") from exc


def _parse_keep(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad index set {text!r}") from exc


def _read_matrix(path, dims=None) -> np.ndarray:
    """The matrix in file `path`; one whose order does not match the dims,
    when given, raises a ValueError that starts with the path."""
    matrix, _file_dims = fileio.read_matrix(path)
    if dims is not None and len(matrix) != dims.total:
        raise ValueError(f"{path}: matrix order {len(matrix)} does not match dims {dims.dims}")
    return matrix


def _read_marginals(marginals, dims=None,
                    states=False) -> list[tuple[tuple[int, ...], np.ndarray | DensityMatrix]]:
    """Each --marginal is '<keepset>:<file>', e.g. '2,3:rho.json'; the kept
    sets come back sorted, and no set may be given twice. Given the dims,
    each file's order must match its kept set's (`_read_matrix`). Each file
    must hold a PSD matrix (`_psd`), and with `states` a state of unit trace,
    returned as a DensityMatrix that keeps the eigenvalues of this one check;
    any other raises a ValueError that starts with the path."""
    if not marginals:
        raise click.UsageError("at least one --marginal is required")
    files = {}
    for spec_text in marginals:
        keep_text, _, path = spec_text.partition(":")
        if not path:
            raise click.UsageError(
                f"--marginal {spec_text!r}: expected '<keepset>:<file>'")
        keep = tuple(sorted(set(_parse_keep(keep_text))))
        if keep in files:
            raise ValueError(f"duplicate kept-index set {','.join(map(str, keep))}: "
                             f"{files[keep]} and {path}")
        files[keep] = path
    targets = []
    for keep, path in files.items():
        matrix = _read_matrix(path, dims and dims.local_dims(dims.validate_keep(keep)))
        if states:
            matrix = DensityMatrix._named(matrix, str(path))
        elif not _psd(values := _eigvalsh(matrix)):
            raise ValueError(f"{path}: not PSD, min eigenvalue {values[0]}")
        targets.append((keep, matrix))
    return targets


def _echo_report(report: SolveReport) -> None:
    click.echo(f"converged: {report.converged}")
    click.echo(f"iterations: {report.iterations}")
    click.echo(f"final residual: {report.final_residual:.6e}")
    click.echo(f"wall time: {report.wall_time:.3f}s")
    click.echo(f"seed: {report.seed_used}")
    if report.notes:
        click.echo(f"notes: {report.notes}")


def _describe_solution(x, cs, values) -> dict:
    """Print and return a summary of x, whose ascending eigenvalues are `values`."""
    description = {
        "rank": numerical_rank(values),
        "lambda_max": float(values[-1]),
        "lambda_min": float(values[0]),
        "entropy": _von_neumann(values),
        "marginal_residual": marginal_residual(x, cs),
        "trace": float(np.trace(x).real),
    }
    for key, value in description.items():
        click.echo(f"{key}: {value:.6g}" if isinstance(value, float) else f"{key}: {value}")
    return description


def _write_outputs(out_dir, report: SolveReport, description: dict, dims) -> None:
    """Write report.json and history.csv, then solution.json: each file is
    renamed into place whole, so a solution never exists without its report."""
    out = Path(out_dir)
    summary = {
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "final_residual": float(report.final_residual),
        "wall_time_s": float(report.wall_time),
        "seed": report.seed_used,
        "notes": report.notes,
        **description,
    }
    lines = ["iteration,residual"]
    lines += [f"{i + 1},{r:.17g}" for i, r in enumerate(report.residual_history)]
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_text(out / "report.json", json.dumps(summary, indent=1) + "\n")
    fileio.write_text(out / "history.csv", "\n".join(lines) + "\n")
    fileio.write_matrix(out / "solution.json", report.solution, dims)
    click.echo(f"wrote {out / 'solution.json'}")


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _emit_matrix(out_path, matrix, dims) -> None:
    """Write `matrix` to out_path, or print it when no path is given."""
    if not out_path:
        click.echo(np.array2string(matrix, precision=6, suppress_small=True))
        return
    fileio.write_matrix(out_path, matrix, dims)
    click.echo(f"wrote {out_path}")


# Options of every `solve` command; those named after a SolveOptions field
# are passed to it as they are.
_shared = [
    click.option("--dims", "dims_text", required=True, help="subsystem dims, e.g. 2,3"),
    click.option("--marginal", "marginals", multiple=True,
                 help="prescribed marginal '<keepset>:<file>' (repeatable)"),
    click.option("--max-iter", "max_iterations", type=int, default=1000, show_default=True),
    click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True),
    click.option("--init", "init_text", default="random", show_default=True,
                 help="random | greedy | interlace | file:<path>"),
    click.option("--out", "out_dir", default=None, help="directory for result files"),
]
# Options of the three alternating solvers only.
_sweep = [
    click.option("--tol", "tolerance", type=float, default=1e-12, show_default=True),
    click.option("--restarts", type=int, default=1, show_default=True),
]


def _add_options(options):
    def apply(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return apply


def _resolve_init(init_text, cs):
    if init_text == "random":
        return None
    if init_text.startswith("file:"):
        return _read_matrix(init_text[5:], cs.dims)
    if init_text in ("greedy", "interlace"):
        by_keep = {c.keep: c.target for c in cs.constraints}
        if cs.dims.k != 2 or (1,) not in by_keep or (2,) not in by_keep:
            raise ValueError(f"--init {init_text} needs bipartite marginals on "
                             "subsystems 1 and 2")
        build = (constructive.greedy_minmatch if init_text == "greedy"
                 else constructive.interlace_decomposition)
        state, _decomposition = build(by_keep[(1,)], by_keep[(2,)])
        return state.matrix
    raise ValueError(f"unknown --init {init_text!r}")


@contextlib.contextmanager
def _errors_exit_one():
    """The CLI's one error boundary: a usage error exits 1 as click reports
    it; a ValueError (LinAlgError included), OSError or RuntimeError prints
    `error: <message>` and exits 1."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise
    except (click.exceptions.Exit, click.Abort):   # RuntimeErrors of click's own
        raise
    except (ValueError, OSError, RuntimeError) as exc:
        _fail(str(exc))


class _Main(click.Group):
    """The command group: every usage, input, OS or runtime error, click's
    own grammar errors included, exits 1; 2 means non-convergence."""

    def make_context(self, *args, **kwargs):
        with _errors_exit_one():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _errors_exit_one():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Construct multipartite density matrices with prescribed marginals."""


@main.command()
@click.argument("input_file", type=click.Path())
@click.option("--keep", "keep_text", required=True, help="kept subsystems, e.g. 2,3")
@click.option("--out", "out_path", default=None)
def trace(input_file, keep_text, out_path):
    """Partial trace of a matrix file down to the kept subsystems."""
    matrix, dims = fileio.read_matrix(input_file)
    keep = dims.validate_keep(_parse_keep(keep_text))
    reduced = partial_trace(matrix, dims, keep)
    _emit_matrix(out_path, reduced, dims.local_dims(keep))


@main.command()
@click.option("--dims", "dims_text", required=True)
@click.option("--marginal", "marginals", multiple=True)
def consistency(dims_text, marginals):
    """Check whether the prescribed marginals can coexist, as the solvers require."""
    dims = _parse_dims(dims_text)
    report = check_consistency(ConstraintSet(dims, _read_marginals(marginals, dims)))
    click.echo(f"consistent: {report.consistent}")
    click.echo(f"max discrepancy: {report.max_discrepancy:.6e}")
    for labels, forced in sorted(report.derived_marginals.items()):
        click.echo(f"shared marginal on {set(labels)}: trace {np.trace(forced).real:.6f}")
    if not report.consistent:
        sys.exit(1)


@main.command()
@click.argument("input_file", type=click.Path())
@click.option("--dims", "dims_text", required=True)
@click.option("--marginal", "marginals", multiple=True)
@click.option("--spectrum", "spectrum_path", default=None,
              help="project onto the unitary orbit of this spectrum (alone)")
@click.option("--psd", "psd_flag", is_flag=True, help="project onto the PSD cone; "
              "combined with --marginal, onto the feasible intersection")
@click.option("--out", "out_path", default=None)
def project(input_file, dims_text, marginals, spectrum_path, psd_flag, out_path):
    """Least-squares projection of a matrix file.

    With --marginal alone this is the closed-form affine projection; with
    --psd alone the eigenvalue clipping; with --spectrum, which takes no
    other target, the nearest matrix with that spectrum; with --psd and
    --marginal, the exact projection onto (marginals) intersect (PSD) by
    semismooth Newton on its dual, which exits 2 when it stops at its
    Newton-step cap (as it does on marginals that no state has).
    """
    if spectrum_path and (marginals or psd_flag):
        raise click.UsageError("--spectrum cannot be combined with --marginal or --psd")
    dims = _parse_dims(dims_text)
    matrix = _read_matrix(input_file, dims)
    if psd_flag and marginals:
        cs = ConstraintSet(dims, _read_marginals(marginals, dims))
        result, _h, gnorm, hit_cap = project_intersection(matrix, cs)
        click.echo(f"converged: {not hit_cap}")
        click.echo(f"dual gradient: {gnorm:.6e}")
        if hit_cap:
            _fail("intersection projection did not converge", code=2)
    elif psd_flag:
        result = project_psd(matrix)
    elif spectrum_path:
        result = project_spectrum(matrix, fileio.read_spectrum(spectrum_path))
    else:
        result = project_marginals(matrix, ConstraintSet(dims, _read_marginals(marginals, dims)))
    _emit_matrix(out_path, result, dims)


@main.group()
def solve():
    """Iterative solvers."""


def _run_solver(runner, dims_text, marginals, init_text, out_dir, **options):
    """Run `runner(cs, SolveOptions(**options), initial)`; exit 2 unless it converged."""
    dims = _parse_dims(dims_text)
    cs = ConstraintSet(dims, _read_marginals(marginals, dims))
    report = runner(cs, SolveOptions(**options), _resolve_init(init_text, cs))
    _echo_report(report)
    # the complex decomposition: report.json records these values to the last bit
    description = _describe_solution(report.solution, cs, np.linalg.eigvalsh(report.solution))
    if out_dir:
        _write_outputs(out_dir, report, description, cs.dims)
    if not report.converged:
        sys.exit(2)


@solve.command("spectrum")
@click.option("--spectrum", "spectrum_path", required=True)
@_add_options(_shared + _sweep)
def solve_spectrum_cmd(spectrum_path, **shared):
    """Find a state with the prescribed marginals and eigenvalues."""
    c = fileio.read_spectrum(spectrum_path)
    _run_solver(lambda cs, opts, initial: solvers.solve_with_spectrum(cs, c, opts, initial),
                **shared)


@solve.command("rank")
@click.option("--cap", type=int, required=True, help="target rank bound")
@_add_options(_shared + _sweep)
def solve_rank_cmd(cap, **shared):
    """Find a state with the prescribed marginals and rank at most --cap."""
    _run_solver(lambda cs, opts, initial: solvers.solve_with_rank_cap(cs, cap, opts, initial),
                **shared)


@solve.command("feasible")
@_add_options(_shared + _sweep)
def solve_feasible_cmd(**shared):
    """Find any state with the prescribed marginals."""
    _run_solver(solvers.solve_feasible, **shared)


@solve.command("max-entropy")
@click.option("--alpha", type=float, default=None,
              help="Renyi order; omit for the von Neumann objective")
@click.option("--stationarity-tol", "nspg_stationarity_tol", type=float, default=1e-8,
              show_default=True)
@_add_options(_shared)
def solve_entropy_cmd(alpha, **shared):
    """Projected-gradient search for the maximum-entropy feasible state.

    It descends -S (or the Renyi form with --alpha) over the states with the
    given marginals. Stops on --stationarity-tol or --max-iter.
    """
    objective = "renyi" if alpha is not None else "von-neumann"
    _run_solver(lambda cs, opts, initial: solvers.nspg_minimize(cs, objective, alpha, opts,
                                                                initial),
                **shared)


@main.group()
def construct():
    """Direct (non-iterative) constructions from two bipartite marginals."""


def _run_construct(builder, marginals, out_dir):
    targets = dict(_read_marginals(marginals, states=True))
    if set(targets) != {(1,), (2,)}:
        raise ValueError("construct needs exactly --marginal 1:<file> and --marginal 2:<file>")
    state = builder(targets[(1,)], targets[(2,)])
    if isinstance(state, tuple):
        state = state[0]
    cs = ConstraintSet(state.dims, [((1,), targets[(1,)]), ((2,), targets[(2,)])])
    _describe_solution(state.matrix, cs, state._eigenvalues)
    if out_dir:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        _emit_matrix(Path(out_dir) / "solution.json", state.matrix, state.dims)


@construct.command("pure")
@click.option("--marginal", "marginals", multiple=True)
@click.option("--out", "out_dir", default=None)
def construct_pure(marginals, out_dir):
    """Rank-one state from isospectral marginals."""
    _run_construct(constructive.pure_state_from_isospectral, marginals, out_dir)


@construct.command("rank-k")
@click.option("--k", "k", type=int, required=True)
@click.option("--marginal", "marginals", multiple=True)
@click.option("--out", "out_dir", default=None)
def construct_rank_k(k, marginals, out_dir):
    """Rank-k state via the roots-of-unity construction."""
    _run_construct(lambda a, b: constructive.rank_k_roots_of_unity(a, b, k),
                   marginals, out_dir)


@construct.command("sweep")
@click.option("--k", "k", type=int, required=True)
@click.option("--marginal", "marginals", multiple=True)
@click.option("--out", "out_dir", default=None)
def construct_sweep(k, marginals, out_dir):
    """Rank-k state for any admissible k up to the rank product."""
    _run_construct(lambda a, b: constructive.rank_sweep(a, b, k), marginals, out_dir)


@construct.command("interlace")
@click.option("--marginal", "marginals", multiple=True)
@click.option("--out", "out_dir", default=None)
def construct_interlace(marginals, out_dir):
    """Low-rank state via interlacing downdates."""
    _run_construct(constructive.interlace_decomposition, marginals, out_dir)


@construct.command("greedy")
@click.option("--marginal", "marginals", multiple=True)
@click.option("--out", "out_dir", default=None)
def construct_greedy(marginals, out_dir):
    """Low-rank state with maximal spectral norm via greedy min-matching."""
    _run_construct(constructive.greedy_minmatch, marginals, out_dir)


@main.command()
@click.argument("solution_file", type=click.Path())
@click.option("--dims", "dims_text", required=True)
@click.option("--marginal", "marginals", multiple=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
def verify(solution_file, dims_text, marginals, tol):
    """Re-validate an emitted solution: Hermitian, PSD, unit trace, marginals."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {tol}")
    dims = _parse_dims(dims_text)
    matrix = _read_matrix(solution_file, dims)
    cs = ConstraintSet(dims, _read_marginals(marginals, dims))
    checks = {
        "hermitian": True,  # read_matrix enforces it
        "psd": _psd(_eigvalsh(matrix)),
        "unit_trace": bool(abs(float(np.trace(matrix).real) - 1.0) <= max(tol, TRACE_ATOL)),
        "marginals": bool(marginal_residual(matrix, cs) <= tol),
    }
    for name, ok in checks.items():
        click.echo(f"{name}: {'ok' if ok else 'FAIL'}")
    if not all(checks.values()):
        sys.exit(1)
    click.echo("solution verified")


@main.group(name="random")
def random_group():
    """Seeded random test objects."""


@random_group.command("unitary")
@click.option("--dims", "dims_text", required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", default=None)
def random_unitary_cmd(dims_text, seed, out_path):
    """Haar-random unitary of order prod(dims)."""
    dims = _parse_dims(dims_text)
    u = random_unitary(dims.total, seed)
    _emit_matrix(out_path, u, dims)


@random_group.command("density")
@click.option("--dims", "dims_text", required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", default=None)
def random_density_cmd(dims_text, seed, out_path):
    """Random density matrix (Haar basis, flat-Dirichlet spectrum)."""
    dims = _parse_dims(dims_text)
    rho = random_density(dims, seed)
    _emit_matrix(out_path, rho.matrix, dims)


@random_group.command("probvec")
@click.option("--dims", "dims_text", required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", "out_path", default=None)
def random_probvec_cmd(dims_text, seed, out_path):
    """Random probability vector of length prod(dims), sorted descending."""
    dims = _parse_dims(dims_text)
    p = random_probability_vector(dims.total, seed)
    if out_path:
        fileio.write_spectrum(out_path, p)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(np.array2string(p, precision=6))


if __name__ == "__main__":
    main()
