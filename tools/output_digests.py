"""Digest every solver and CLI output of a qmarginals checkout, to show that a
change leaves results bit-identical.

    python3 tools/output_digests.py <checkout>   # e.g. . or a clone of the parent

Prints one digest per item and a total. Covered: every SolveReport field
except wall_time for the four solvers over seeds 0-3, and for the rank
solver on a 3x6 pair at cap 2 and seed 0, whose first finish fails;
project_marginals and solve_feasible at seeds 0-1 on two families whose
sweeps trace more than one lattice node (kept sets (1,2), (2,3), (2,) of
three qubits, and all pairs of five qubits); rank_sweep and
rank_k_roots_of_unity at every admissible k,
greedy_minmatch and interlace_decomposition (state and decomposition) on a
seeded rotated pair, and pure_state_from_isospectral on its first marginal
and that marginal's complex conjugate; check_consistency (verdict, derived
marginals, max discrepancy) on the fixture families, all pairs of five
qubits, one inconsistent three-qubit family, and the nested three-qubit and
all-pairs families, each consistent and inconsistent; marginal_residual of
random_density(dims, s) and of its real part, s = 0-1, on a fresh ConstraintSet
per call, over those families; the parsed values of every
file the CLI writes with --out (report.json without wall_time_s).
NSPG's residual_history and notes (history.csv and the notes of report.json
for `solve max-entropy`) are items of their own, suffixed -residual_history
and -notes. Floats are hashed by their bytes, so even the sign of a zero
counts. The seed-0 NSPG item runs once more on a fresh constraint set after
the first run has filled the cache of dual bases; the script exits nonzero
unless both runs give the same bytes.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
REPO = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import qmarginals as qm  # noqa: E402
import qmarginals.cli  # noqa: E402
from qmarginals import fileio  # noqa: E402

FX = REPO / "fixtures"
REPORT_FIELDS = ["solution", "iterations", "residual_history", "converged", "final_residual",
                 "seed_used", "objective_history", "notes"]


def digest(obj) -> str:
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(f"{o.dtype}{o.shape}".encode())
            h.update(np.ascontiguousarray(o).tobytes())
        elif isinstance(o, float):
            h.update(np.float64(o).tobytes())
        elif isinstance(o, (list, tuple)):
            h.update(b"[")
            for x in o:
                feed(x)
            h.update(b"]")
        elif isinstance(o, dict):
            for k in sorted(o):
                h.update(str(k).encode())
                feed(o[k])
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()[:16]


def report(r) -> dict:
    return {k: getattr(r, k) for k in REPORT_FIELDS}


def spectrum_state(name: str) -> np.ndarray:
    v = np.array(json.loads((FX / name).read_text())["values"])
    return np.diag(v / v.sum())


def solver_digests() -> dict:
    out = {}
    bi_a, _ = fileio.read_matrix(FX / "bipartite_2x3/rho_a.json")
    bi_b, _ = fileio.read_matrix(FX / "bipartite_2x3/rho_b.json")
    bi_c = fileio.read_spectrum(FX / "bipartite_2x3/target_spectrum.json")
    cs_bi = qm.ConstraintSet((2, 3), [((1,), bi_a), ((2,), bi_b)])
    r12, _ = fileio.read_matrix(FX / "tripartite_222/rho_12.json")
    r23, _ = fileio.read_matrix(FX / "tripartite_222/rho_23.json")
    cs_tri = qm.ConstraintSet((2, 2, 2), [((1, 2), r12), ((2, 3), r23)])
    a34, b34 = spectrum_state("rank_3x4/spectrum_a.json"), spectrum_state("rank_3x4/spectrum_b.json")
    cs34 = qm.ConstraintSet((3, 4), [((1,), a34), ((2,), b34)])
    greedy = qm.greedy_minmatch(a34, b34)[0].matrix
    cs36 = qm.ConstraintSet((3, 6), [((1,), np.diag([0.8213, 0.1234, 0.0553])),
                                     ((2,), np.diag([0.5720, 0.3068, 0.1000, 0.0189,
                                                     0.0020, 0.0003]))])
    cs22 = qm.ConstraintSet((2, 2), [((1,), qm.random_density((2,), 3).matrix),
                                     ((2,), qm.random_density((2,), 4).matrix)])
    for seed in range(4):
        o = qm.SolveOptions(seed=seed, tolerance=1e-10, max_iterations=3000)
        out[f"feasible-tri-{seed}"] = report(qm.solve_feasible(cs_tri, o))
        out[f"feasible-3x4-{seed}"] = report(qm.solve_feasible(cs34, o))
        out[f"spectrum-2x3-{seed}"] = report(qm.solve_with_spectrum(cs_bi, bi_c, o))
        out[f"rank-3x4-{seed}"] = report(qm.solve_with_rank_cap(
            cs34, 2, qm.SolveOptions(seed=seed, max_iterations=4000),
            initial=greedy if seed == 0 else None))
        nspg = qm.SolveOptions(seed=seed, max_iterations=200)
        vn = report(qm.nspg_minimize(cs22, opts=nspg))
        if seed == 0:   # a fresh set on the same layout, whose dual basis the first run cached
            fresh = qm.ConstraintSet((2, 2), cs22.constraints)
            if digest(report(qm.nspg_minimize(fresh, opts=nspg))) != digest(vn):
                sys.exit("nspg-2x2-0: a fresh set after the first run gives other bytes")
        out.update(traced(f"nspg-2x2-{seed}", vn))
        out.update(traced(f"nspg-renyi-2x2-{seed}",
                          report(qm.nspg_minimize(cs22, "renyi", 2.0, opts=nspg))))
    # a first Gauss-Newton finish that fails, and sweeps that resume from it
    out["rank-3x6-0"] = report(qm.solve_with_rank_cap(
        cs36, 2, qm.SolveOptions(seed=0, max_iterations=20000)))
    return out


def traced(label: str, fields: dict) -> dict:
    """An NSPG report as item `label`, with its residual trace and notes split
    off as items of their own: those two record how the loop measured
    stationarity and how many projections it made, the rest where it went."""
    history, notes = fields.pop("residual_history"), fields.pop("notes")
    return {label: fields, f"{label}-residual_history": history, f"{label}-notes": notes}


def multinode_digests() -> dict:
    """Families whose lattice plan has nodes other than the kept sets and the empty set."""
    families = {
        "nested": ((2, 2, 2), [(1, 2), (2, 3), (2,)], 21),
        "allpairs-5q": ((2,) * 5, list(itertools.combinations(range(1, 6), 2)), 5),
    }
    out = {}
    for name, (dims, keeps, seed) in families.items():
        rho = qm.random_density(dims, seed).matrix
        cs = qm.ConstraintSet(dims, [(keep, qm.partial_trace(rho, dims, keep))
                                     for keep in keeps])
        z = qm.hermitize(np.random.default_rng(seed).normal(size=rho.shape) + 0j)
        out[f"marginals-{name}"] = qm.project_marginals(z, cs)
        for s in range(2):
            out[f"feasible-{name}-{s}"] = report(qm.solve_feasible(
                cs, qm.SolveOptions(seed=s, tolerance=1e-10, max_iterations=3000)))
    return out


def consistency_families() -> dict:
    """(dims, targets) of the fixture families, all pairs of five qubits, one
    inconsistent three-qubit family, and the nested three-qubit and all-pairs
    families, each consistent and inconsistent."""
    def mat(name):
        return fileio.read_matrix(FX / name)[0]

    def one_state(dims, keeps, seed):
        rho = qm.random_density(dims, seed).matrix
        return dims, [(k, qm.partial_trace(rho, dims, k)) for k in keeps]

    def independent(dims, keeps, seed):
        local = qm.SystemDims(dims).local_dims
        return dims, [(k, qm.random_density(local(k), seed + i).matrix)
                      for i, k in enumerate(keeps)]

    ext = mat("twofold_extension_222/rho_12_13.json")
    nested, pairs = [(1, 2), (2, 3), (2,)], list(itertools.combinations(range(1, 6), 2))
    rho = qm.random_density((2,) * 5, 5).matrix
    families = {
        "bipartite-2x3": ((2, 3), [((1,), mat("bipartite_2x3/rho_a.json")),
                                   ((2,), mat("bipartite_2x3/rho_b.json"))]),
        "tripartite-222": ((2, 2, 2), [((1, 2), mat("tripartite_222/rho_12.json")),
                                       ((2, 3), mat("tripartite_222/rho_23.json"))]),
        "extension-222": ((2, 2, 2), [((1, 2), ext), ((1, 3), ext)]),
        **{f"{name}": (dims, [((1,), spectrum_state(f"{name}/spectrum_a.json")),
                              ((2,), spectrum_state(f"{name}/spectrum_b.json"))])
           for name, dims in [("rank_3x4", (3, 4)), ("rank_6x8", (6, 8))]},
        "allpairs-5q": ((2,) * 5, [(k, qm.partial_trace(rho, (2,) * 5, k)) for k in pairs]),
        "inconsistent-222": ((2, 2, 2), [((1, 2), qm.random_density((2, 2), 13).matrix),
                                         ((2, 3), qm.random_density((2, 2), 14).matrix)]),
        "nested": one_state((2, 2, 2), nested, 21),
        "inconsistent-nested": independent((2, 2, 2), nested, 30),
        "inconsistent-allpairs-5q": independent((2,) * 5, pairs, 40),
    }
    return families


def consistency_digests() -> dict:
    """check_consistency's verdict, derived marginals and max discrepancy."""
    out = {}
    for name, (dims, targets) in consistency_families().items():
        r = qm.check_consistency(qm.ConstraintSet(dims, targets))
        out[f"consistency-{name}"] = [r.consistent, r.derived_marginals, r.max_discrepancy]
    return out


def residual_digests() -> dict:
    """marginal_residual of random_density(dims, s) and of its real part on a
    fresh ConstraintSet per call, so that every call traces from no cache."""
    out = {}
    for name, (dims, targets) in consistency_families().items():
        errs = []
        for s in range(2):
            rho = qm.random_density(dims, s).matrix
            for x in (rho, np.ascontiguousarray(rho.real)):
                errs.append(qm.marginal_residual(x, qm.ConstraintSet(dims, targets)))
        out[f"residual-{name}"] = errs
    return out


def construction_digests() -> dict:
    # non-diagonal marginals: the rank_3x4 spectra in seeded random eigenbases
    rotated = []
    for seed, side in ((5, "a"), (6, "b")):
        m = spectrum_state(f"rank_3x4/spectrum_{side}.json")
        u = qm.random_unitary(len(m), seed)
        rotated.append(u @ m @ u.conj().T)
    return {
        "rotated-sweep": [qm.rank_sweep(*rotated, k).matrix for k in range(4, 13)],
        "rotated-rank-k": [qm.rank_k_roots_of_unity(*rotated, k).matrix for k in range(4, 7)],
        "rotated-greedy": decomposed(qm.greedy_minmatch(*rotated)),
        "rotated-interlace": decomposed(qm.interlace_decomposition(*rotated)),
        "rotated-pure": qm.pure_state_from_isospectral(rotated[0], rotated[0].conj()).matrix,
    }


def decomposed(result) -> list:
    state, decomposition = result
    return [state.matrix, decomposition.pairs, decomposition.weights]


def cli(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            qmarginals.cli.main([str(a) for a in args], prog_name="qmarginals",
                                standalone_mode=False)
        except SystemExit as exc:
            return exc.code
    return 0


def parsed(path: Path):
    if path.suffix != ".json":
        return path.read_text()
    payload = json.loads(path.read_text())
    payload.pop("wall_time_s", None)
    if "entries" in payload:
        payload["entries"] = np.array(payload["entries"], dtype=float)
    return payload


def cli_digests(tmp: Path) -> dict:
    inp = tmp / "in"
    inp.mkdir()
    for name in ("rank_3x4", "rank_6x8"):
        for side in "ab":
            m = spectrum_state(f"{name}/spectrum_{side}.json")
            fileio.write_matrix(inp / f"{name}_{side}.json", m, (len(m),))
    fileio.write_spectrum(inp / "c2.json", [0.7, 0.3])
    # fixed inputs for project and trace, so that their digests see only their own code
    cli(["random", "density", "--dims", "2,2,2", "--seed", "4", "--out", inp / "rho_222.json"])
    cli(["random", "density", "--dims", "3,4", "--seed", "4", "--out", inp / "rho_34.json"])

    def pair(a, b):
        return ["--marginal", f"1:{a}", "--marginal", f"2:{b}"]

    m34 = pair(inp / "rank_3x4_a.json", inp / "rank_3x4_b.json")
    m68 = pair(inp / "rank_6x8_a.json", inp / "rank_6x8_b.json")
    mbi = pair(FX / "bipartite_2x3/rho_a.json", FX / "bipartite_2x3/rho_b.json")
    mtri = ["--marginal", f"1,2:{FX}/tripartite_222/rho_12.json",
            "--marginal", f"2,3:{FX}/tripartite_222/rho_23.json"]
    runs = {
        "solve-spectrum": ["solve", "spectrum", "--dims", "2,3", *mbi, "--spectrum",
                           FX / "bipartite_2x3/target_spectrum.json", "--tol", "1e-10",
                           "--max-iter", "5000"],
        "solve-rank": ["solve", "rank", "--cap", "2", "--dims", "3,4", *m34, "--init", "greedy",
                       "--max-iter", "20000"],
        "solve-feasible": ["solve", "feasible", "--dims", "2,2,2", *mtri],
        "solve-entropy": ["solve", "max-entropy", "--dims", "2,3", *mbi, "--max-iter", "50"],
        "greedy": ["construct", "greedy", *m34],
        "interlace": ["construct", "interlace", *m34],
        "pure": ["construct", "pure", *pair(inp / "rank_3x4_a.json", inp / "rank_3x4_a.json")],
        "rank-k": ["construct", "rank-k", "--k", "4", *m34],
        **{f"sweep-{k}": ["construct", "sweep", "--k", k, *m68] for k in range(8, 49, 5)},
    }
    out = {}
    for label, command in runs.items():
        code = cli([*command, "--out", tmp / label])
        written = {f.name: parsed(f) for f in sorted((tmp / label).iterdir())}
        if label == "solve-entropy":   # NSPG: split as in `traced`
            out[f"cli-{label}-residual_history"] = written.pop("history.csv")
            out[f"cli-{label}-notes"] = written["report.json"].pop("notes")
        out[f"cli-{label}"] = [code, written]
    files = {
        "project-marginals": ["project", inp / "rho_222.json", "--dims", "2,2,2", *mtri],
        "project-psd": ["project", FX / "tripartite_222/rho_12.json", "--dims", "2,2", "--psd"],
        "project-spectrum": ["project", FX / "bipartite_2x3/rho_a.json", "--dims", "2",
                             "--spectrum", inp / "c2.json"],
        "project-intersection": ["project", inp / "rho_34.json", "--dims", "3,4", "--psd",
                                 *m34],
        "trace": ["trace", inp / "rho_222.json", "--keep", "1,3"],
        "random-unitary": ["random", "unitary", "--dims", "2,3", "--seed", "4"],
        "random-density": ["random", "density", "--dims", "2,3", "--seed", "4"],
    }
    for label, command in files.items():
        path = tmp / f"{label}.json"
        code = cli([*command, "--out", path])
        out[f"cli-{label}"] = [code, parsed(path) if path.exists() else None]
    return out


def main():
    with tempfile.TemporaryDirectory() as tmp:
        items = {**solver_digests(), **multinode_digests(), **consistency_digests(),
                 **residual_digests(), **construction_digests(),
                 **cli_digests(Path(tmp))}
    digests = {name: digest(value) for name, value in items.items()}
    for name, d in digests.items():
        print(name, d)
    print("TOTAL", digest(digests))


if __name__ == "__main__":
    main()
