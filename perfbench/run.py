"""Run one benchmark workload against the qmarginals package in this checkout.

    python3 perfbench/run.py --workload chain-7q --seed 1 --seconds 25 --trace 0

With --trace 0 the workload's fixed list of instances is run in rounds,
back to back, until the next round would end after --seconds (at least one
round), and the end-to-end metrics are reported: `wall_s` (the sum over the
instances of each one's median attempt, in the calibrated seconds of
calibrate.py), `setup_s` and `peak_rss_mb`. With --trace 1 three untraced
rounds are followed by one traced round and the per-layer metrics are
reported instead; the spans are saved to .bench_out/.
Every attempt is certified; the last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`. See
perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
PROBE_INTERVAL_S = 0.3
UNTRACED_ROUNDS = 3      # before the traced round, for trace.overhead_ratio
NPROC = len(os.sched_getaffinity(0))   # before main() pins the process to one CPU
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and configuration reported by the loaded OpenBLAS, if any."""
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    return threads(), config().decode()
    return None, None


def fingerprint() -> dict:
    import numpy as np

    threads, config = openblas_runtime()
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "blas_threads": threads,
        "openblas": config,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": NPROC,
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "git_commit": commit,
    }


def import_seconds(timer) -> None:
    """Time a fresh interpreter importing numpy, the package and its CLI."""
    code = ("import time; t = time.perf_counter(); import qmarginals.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(SETUP_REPEATS):
        timer.record("import", float(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True).stdout))


def timed_round(instances, timer=None) -> tuple[list[float], list[str]]:
    """Attempt every instance once: seconds per instance, and failure messages."""
    times, failures = [], []
    for instance in instances:
        instance.reset()
        t0 = time.perf_counter()
        failures += instance.attempt()
        times.append(time.perf_counter() - t0)
        if timer is not None:
            timer.record(instance.label, times[-1])
    return times, failures


def calibrated_wall(timer, instances) -> float:
    """Sum over the instances of each one's median calibrated attempt."""
    timer.flush()
    return sum(statistics.median(timer.calibrated[i.label]) for i in instances)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qmarginals" / "__init__.py").is_file():
        print(f"error: no qmarginals sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not (ROOT / "fixtures").is_dir():
        print(f"error: no fixtures under {ROOT}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import qmarginals
    import workloads

    if Path(qmarginals.__file__).resolve().parent != ROOT / "src" / "qmarginals":
        print(f"error: imported qmarginals from {qmarginals.__file__}", file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    from calibrate import NOMINAL_S, Timer

    # One CPU for this process and the interpreters it starts, so that the
    # calibration probes run where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup_timer = Timer(interval=0.0)
    import_seconds(setup_timer)
    run_dir = OUT / f"run-{os.getpid()}"
    try:
        for _ in range(SETUP_REPEATS):
            instances = setup_timer.time("prepare", lambda: workload.prepare(args.seed, run_dir))
        setup_s = sum(statistics.median(samples)
                      for samples in setup_timer.calibrated.values())
        rounds, timer = [], None
        if args.trace:
            from tracer import PER_LAYER, Tracer

            untraced, traced = Timer(PROBE_INTERVAL_S), Timer(PROBE_INTERVAL_S)
            for _ in range(UNTRACED_ROUNDS):
                rounds.append(timed_round(instances, untraced))
            tracer = Tracer()
            tracer.install()
            try:
                rounds.append(timed_round(instances, traced))
            finally:
                tracer.uninstall()
            values = tracer.metrics(calibrated_wall(traced, instances),
                                    calibrated_wall(untraced, instances))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _better in PER_LAYER}
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
            if tracer.absent:
                print(f"absent seams: {', '.join(tracer.absent)}")
        else:
            timer = Timer(interval=PROBE_INTERVAL_S)
            start = time.perf_counter()
            while True:
                rounds.append(timed_round(instances, timer))
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(sum(r[0]) for r in rounds) > args.seconds:
                    break
            values = {
                "wall_s": calibrated_wall(timer, instances),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(instances) * len(rounds)
    failures = [message for r in rounds for message in r[1]]
    for message in failures[:20]:
        print(f"failed: {message}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds),
        "instance_s": {i.label: [r[0][k] for r in rounds] for k, i in enumerate(instances)},
        "setup_s_raw": setup_timer.raw, "setup_s_calibrated": setup_timer.calibrated,
        "setup_probes_s": setup_timer.probes,
        "instance_s_calibrated": timer and timer.calibrated, "probes_s": timer and timer.probes,
        "fail_ratio": len(failures) / attempted,
        "metrics": metrics, "environment": fingerprint(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"environment: {json.dumps(record['environment'])}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"rounds: {len(rounds)}, median round "
          f"{statistics.median(sum(r[0]) for r in rounds):.6g} s uncalibrated")
    if timer is not None:
        print(f"probes: {len(timer.probes)}, median {statistics.median(timer.probes):.6g} s "
              f"against {NOMINAL_S} s nominal")
    print(f"fail_ratio: {record['fail_ratio']:.6g} ({len(failures)} of {attempted} failed)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
