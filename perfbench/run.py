#!/usr/bin/env python3
"""Benchmark one magspec workload in this process.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source tree: the package is imported from its
``src`` directory, never from an installed copy.  BLAS/OpenMP threads are
pinned to one before numpy loads.  The load is a closed loop with one
caller: the seeded round of operations (see workloads.py) runs whole,
one operation after the other, until the timed operations add up to
``--seconds``; every package cache is cleared before each operation and
``gc.collect()`` runs between operations, both untimed.  Each output is
checked apart from the program after its operation, also untimed.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` every operation runs once
untraced and once traced (both passes count toward ``--seconds``), and
the object holds the per-layer metrics.
A result file with the machine, versions and thread settings goes to
perfbench/results/, and the spans of a traced run to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
sys.path[:0] = [str(SOURCE), str(ROOT)]

# These import neither numpy nor magspec, so the thread pinning below
# still comes first.
from perfbench.caches import clear_package_caches  # noqa: E402
from perfbench.stats import latency_summary  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics, self_times  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MAGSPEC_THREADS")
SETUP_PROBES = 7
RATIO_METRICS = ("disk.kummer_calls_per_eigenvalue", "trace.coverage")


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_package() -> None:
    """Import magspec from this tree's src/ and refuse any other copy."""
    try:
        import magspec
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import magspec from {SOURCE}: {exc}")
    location = Path(magspec.__file__).resolve()
    if SOURCE.resolve() not in location.parents:
        raise SystemExit(f"run.py: magspec imported from {location}, not from {SOURCE}")


def environment(threads: dict) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": {"node": platform.node(), "arch": platform.machine(),
                    "processor": platform.processor(), "cpus": os.cpu_count(),
                    "system": platform.platform()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
    }


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from starting a fresh interpreter until it could begin work.

    Each probe imports magspec with numpy/scipy, loads the corpus and builds
    the round's inputs, then reports ready on stdout and exits.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True) as probe:
            line = probe.stdout.readline()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"run.py: setup probe failed ({probe.returncode})")
    return samples


def release_freed_memory() -> None:
    """Hand freed heap pages back to the system (glibc), so that each
    operation's peak memory starts from what is live, not from what the
    previous operations left fragmented."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def execute(op, tracer=None, op_id=None):
    """Run one operation from cold caches; (seconds, output, error)."""
    clear_package_caches()
    gc.collect()
    release_freed_memory()
    if tracer is not None:
        tracer.install()
        tracer.op = op_id
    output, error = None, None
    started, cpu_started = time.perf_counter(), time.process_time()
    try:
        output = op.run()
    except Exception as exc:  # an operation's failure is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
        if tracer is not None:
            tracer.op = None
            tracer.uninstall()
    return elapsed, cpu, output, error


def check(op, output, done) -> list:
    try:
        return op.check(output, done)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_rounds(ops, seconds: float, tracer=None):
    """Whole rounds until the operations' time adds up to `seconds`.

    A traced run counts both passes, so it lasts as long as an untraced one.
    """
    records, rounds, timed = [], 0, 0.0
    while rounds == 0 or timed < seconds:
        done = {}
        for op in ops:
            passes = [("untraced", None)] + ([("traced", tracer)] if tracer else [])
            for mode, active in passes:
                op_id = len(records)
                elapsed, cpu, output, error = execute(op, active, op_id)
                problems = [] if error else check(op, output, done)
                if error is None:
                    done[op.label] = output
                records.append({"op": op_id, "round": rounds, "label": op.label,
                                "mode": mode, "seconds": elapsed, "cpu_seconds": cpu,
                                "error": error,
                                "problems": problems})
                timed += elapsed
                if error:
                    print(f"failed: {op.label}: {error}", file=sys.stderr)
                for problem in problems:
                    print(f"WRONG: {op.label}: {problem}", file=sys.stderr)
        rounds += 1
    return records, rounds


def end_to_end(records, rounds: int, setup_samples) -> dict:
    completed = [r["seconds"] for r in records if r["error"] is None]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(r["seconds"] for r in records) / rounds,
        "op_p50_s": latency_summary(completed)["p50"],
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(records, rounds: int, tracer) -> dict:
    traced = sum(r["seconds"] for r in records if r["mode"] == "traced")
    untraced = sum(r["seconds"] for r in records if r["mode"] == "untraced")
    metrics = {name: value / rounds
               for name, value in layer_metrics(tracer.spans).items()}
    metrics["trace.overhead_s"] = (traced - untraced) / rounds
    # self times partition the traced call trees, so this is the share of
    # operation time that falls inside some traced layer
    metrics["trace.coverage"] = sum(self_times(tracer.spans)) / traced
    return metrics


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name in RATIO_METRICS else "count"


def main(argv=None) -> int:
    threads = pin_threads()
    import_package()
    from perfbench.workloads import WORKLOADS, build_round

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ops = build_round(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = environment(threads)
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    records, rounds = run_rounds(ops, args.seconds, tracer)

    if args.trace:
        metrics = per_layer(records, rounds, tracer)
    else:
        metrics = end_to_end(records, rounds, setup_samples)
    failed = sum(1 for r in records if r["error"])
    result = {
        "correct": all(not r["problems"] for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }

    stamp = time.strftime("%Y%m%dT%H%M%S")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "environment": env,
              "setup_samples_s": setup_samples,
              "latency": latency_summary(r["seconds"] for r in records
                                         if r["error"] is None and r["mode"] == "untraced"),
              "operations": records, "result": result}
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if tracer is not None:
        traces_dir = BENCH_DIR / "traces"
        traces_dir.mkdir(exist_ok=True)
        tracer.write(traces_dir / f"{stem}.jsonl.gz")

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"threads {threads}")
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"  attempted {result['attempted']}  failed {failed}  "
          f"correct {str(result['correct']).lower()}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
