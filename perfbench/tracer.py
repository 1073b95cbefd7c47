"""Per-layer tracing for the benchmark, built from the benchmark's own files.

`Tracer.install()` replaces the module-level names through which the
library's layers call one another with wrappers that record a span (name,
start, end, parent) per call; `uninstall()` puts the originals back. Spans
stay in flat arrays in memory until `save()`; self times and layer totals
are derived from them afterwards. A seam that no longer exists is listed in
`absent` and its metrics read 0. Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from array import array
from functools import cached_property
from time import perf_counter

import numpy as np

# (module, attribute, span name): the attribute is replaced on that module only.
SEAMS = [
    ("qmarginals.solvers", "project_marginals", "projections.project_marginals"),
    ("qmarginals.solvers", "project_psd", "projections.project_psd"),
    ("qmarginals.solvers", "project_spectrum", "projections.project_spectrum"),
    ("qmarginals.solvers", "hermitian_eig", "tensorcore.hermitian_eig"),
    ("qmarginals.solvers", "partial_trace", "tensorcore.partial_trace"),
    ("qmarginals.solvers", "marginal_residual", "solvers.marginal_residual"),
    ("qmarginals.projections", "marginal_correction", "projections.marginal_correction"),
    ("qmarginals.projections", "check_consistency", "projections.check_consistency"),
    ("qmarginals.projections", "hermitian_eig", "tensorcore.hermitian_eig"),
    ("qmarginals.projections", "partial_trace", "tensorcore.partial_trace"),
    ("qmarginals.fileio", "read_matrix", "fileio.read"),
    ("qmarginals.fileio", "read_spectrum", "fileio.read"),
    ("qmarginals.fileio", "write_matrix", "fileio.write"),
    ("qmarginals.fileio", "write_spectrum", "fileio.write"),
    ("qmarginals.cli", "main", "cli"),
]
# Solver entry points: their spans give solvers.self_s and, from the
# returned SolveReport, the outer iteration and accepted-step counts.
SOLVERS = ["solve_feasible", "solve_with_spectrum", "solve_with_rank_cap",
           "dykstra_project", "nspg_minimize"]
# Every public function of these modules, at every name it is bound to in
# the package (the CLI imports `von_neumann` by name, for instance).
PUBLIC_API = ["constructive", "entropy"]
PLAN = ("qmarginals.projections", "ConstraintSet", "correction_terms", "projections.plan")

# (metric, unit, better): exactly what a traced run reports.
PER_LAYER = [
    ("tensorcore.hermitian_eig.calls", "count", "lower"),
    ("tensorcore.hermitian_eig.s", "s", "lower"),
    ("tensorcore.partial_trace.calls", "count", "lower"),
    ("tensorcore.partial_trace.s", "s", "lower"),
    ("projections.plan.s", "s", "lower"),
    ("projections.plan.terms", "count", "lower"),
    ("projections.check_consistency.calls", "count", "lower"),
    ("projections.check_consistency.s", "s", "lower"),
    ("projections.project_marginals.calls", "count", "lower"),
    ("projections.project_marginals.s", "s", "lower"),
    ("projections.project_marginals.self_s", "s", "lower"),
    ("projections.marginal_correction.calls", "count", "lower"),
    ("projections.marginal_correction.s", "s", "lower"),
    ("projections.project_psd.calls", "count", "lower"),
    ("projections.project_psd.s", "s", "lower"),
    ("projections.project_spectrum.calls", "count", "lower"),
    ("projections.project_spectrum.s", "s", "lower"),
    ("solvers.outer_iterations", "count", "lower"),
    ("solvers.marginal_residual.calls", "count", "lower"),
    ("solvers.marginal_residual.s", "s", "lower"),
    ("solvers.self_s", "s", "lower"),
    ("solvers.inner_sweeps_per_outer", "sweeps/iter", "lower"),
    ("solvers.nspg.accepted_ratio", "ratio", "higher"),
    ("constructive.calls", "count", "lower"),
    ("constructive.s", "s", "lower"),
    ("entropy.calls", "count", "lower"),
    ("entropy.s", "s", "lower"),
    ("fileio.read.calls", "count", "lower"),
    ("fileio.read.s", "s", "lower"),
    ("fileio.write.calls", "count", "lower"),
    ("fileio.write.s", "s", "lower"),
    ("fileio.write.bytes", "B", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")     # inside another span of the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.outer_iterations = 0
        self.accepted_steps = 0
        self.plan_terms = 0
        self.bytes_written = 0

    # ---------------------------------------------------------- recording

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
            self._depth.append(0)
        return self._ids[span]

    def wrap(self, span: str, fn, after=None):
        nid = self._id(span)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(depth[nid] > 0)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            depth[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[nid] -= 1
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------ seams

    def install(self) -> None:
        hooks = {"fileio.write": self._count_bytes}
        for module_name, attr, span in SEAMS:
            module = _module(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(module, attr, self.wrap(span, getattr(module, attr), hooks.get(span)))
        solvers = _module("qmarginals.solvers")
        for attr in SOLVERS:
            fn = getattr(solvers, attr, None)
            if fn is None:
                self.absent.append(f"qmarginals.solvers.{attr}")
                continue
            self._patch(solvers, attr, self.wrap(f"solvers.{attr}", fn, self._count_report))
        for layer in PUBLIC_API:
            module = _module(f"qmarginals.{layer}")
            if module is None:
                self.absent.append(f"qmarginals.{layer}")
                continue
            for fn in _public_functions(module):
                wrapped = self.wrap(layer, fn)
                for owner, attr in _bindings(fn):
                    self._patch(owner, attr, wrapped)
        module_name, cls_name, attr, span = PLAN
        cls = getattr(_module(module_name), cls_name, None)
        prop = getattr(cls, "__dict__", {}).get(attr)
        if not isinstance(prop, cached_property):
            self.absent.append(f"{module_name}.{cls_name}.{attr}")
        else:
            planned = cached_property(self.wrap(span, prop.func, self._count_terms))
            planned.__set_name__(cls, attr)
            self._patch(cls, attr, planned)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _count_bytes(self, args, _result) -> None:
        self.bytes_written += os.path.getsize(args[0])

    def _count_report(self, _args, report) -> None:
        self.outer_iterations += int(report.iterations)
        if report.objective_history is not None:
            self.accepted_steps += len(report.objective_history) - 1

    def _count_terms(self, _args, terms) -> None:
        self.plan_terms += len(terms)

    # ----------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
        }

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = a["parent"] >= 0
        children = np.bincount(a["parent"][child], weights=duration[child],
                               minlength=len(duration))
        self_time = duration - children

        def mask(*spans):
            ids = [self._ids[s] for s in spans if s in self._ids]
            return np.isin(a["name"], ids)

        def calls(*spans):
            return int(mask(*spans).sum())

        def seconds(*spans):   # time covered, not counting recursion twice
            return float(duration[mask(*spans) & ~a["nested"]].sum())

        def self_seconds(*spans):
            return float(self_time[mask(*spans)].sum())

        solver_spans = [f"solvers.{s}" for s in SOLVERS]
        sweeps = calls("projections.project_marginals")
        nspg = mask("solvers.nspg_minimize")
        # nspg_minimize evaluates the objective once at its start and once
        # per candidate step, each time through one hermitian_eig call.
        in_nspg = mask("tensorcore.hermitian_eig") & child
        in_nspg[in_nspg] = nspg[a["parent"][in_nspg]]
        candidates = int(in_nspg.sum()) - int(nspg.sum())
        out = {}
        for span in ["tensorcore.hermitian_eig", "tensorcore.partial_trace"]:
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.s"] = seconds(span)
        out["projections.plan.s"] = seconds("projections.plan")
        out["projections.plan.terms"] = self.plan_terms
        for span in ["projections.check_consistency", "projections.project_marginals",
                     "projections.marginal_correction", "projections.project_psd",
                     "projections.project_spectrum"]:
            out[f"{span}.calls"] = calls(span)
            out[f"{span}.s"] = seconds(span)
        out["projections.project_marginals.self_s"] = self_seconds(
            "projections.project_marginals")
        out["solvers.outer_iterations"] = self.outer_iterations
        out["solvers.marginal_residual.calls"] = calls("solvers.marginal_residual")
        out["solvers.marginal_residual.s"] = seconds("solvers.marginal_residual")
        out["solvers.self_s"] = self_seconds(*solver_spans)
        out["solvers.inner_sweeps_per_outer"] = (
            sweeps / self.outer_iterations if self.outer_iterations else 0.0)
        out["solvers.nspg.accepted_ratio"] = (
            self.accepted_steps / candidates if candidates > 0 else 0.0)
        for layer in PUBLIC_API:
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.s"] = seconds(layer)
        for side in ["read", "write"]:
            out[f"fileio.{side}.calls"] = calls(f"fileio.{side}")
            out[f"fileio.{side}.s"] = seconds(f"fileio.{side}")
        out["fileio.write.bytes"] = self.bytes_written
        out["cli.commands"] = calls("cli")
        out["cli.self_s"] = self_seconds("cli")
        out["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), absent=np.array(self.absent),
                            **self.arrays())


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _public_functions(module):
    return [fn for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")]


def _bindings(fn):
    """(module, name) for every global of a qmarginals module bound to `fn`."""
    return [(module, name)
            for module_name, module in list(sys.modules.items())
            if module is not None and module_name.split(".")[0] == "qmarginals"
            for name, value in list(vars(module).items()) if value is fn]
