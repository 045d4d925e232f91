#!/usr/bin/env python3
"""Compare two source trees on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --base HEAD~1 --seed 3 --pairs 10 \\
        --check-seed 11 --check-pairs 3 --out BENCH_6.json

The base side is the committed files of ``--base``, exported with
``git archive`` into a fresh directory; the change side is this working
tree.  Each pair runs ``perfbench/run.py --trace 0`` once in each tree on
the same workload and seed, for the ``run_seconds`` and workloads
BENCHMARK.json declares; the side that runs first alternates from pair to
pair, and one process runs at a time.  The benchmark code of each tree is
used unchanged.

For every end-to-end metric of every workload the output holds each
side's median and quartiles, the pairs the change wins (ties count for
neither side), and whether the change meets the claim rule (it wins at
least nine tenths of the pairs and the medians differ by more than the
base's interquartile range) or breaks the metric's regression bound.
The check seed repeats the comparison with its own, usually fewer, pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLAIM_SHARE = 0.9


def export(rev: str, into: Path) -> Path:
    """The committed files of rev, unpacked into a new directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into


def commit_of(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree; the run's result object plus its environment."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(command)} in {tree} failed "
                         f"({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": list(values)}


def compare(pairs, metric: dict) -> dict:
    """Claim and regression verdicts for one end-to-end metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [p["base"]["metrics"][name] for p in pairs]
    head = [p["head"]["metrics"][name] for p in pairs]
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    losses = sum((h > b) if lower else (h < b) for b, h in zip(base, head))
    b, h = spread(base), spread(head)
    worse_by = (h["median"] - b["median"]) / b["median"] if b["median"] else 0.0
    if not lower:
        worse_by = -worse_by
    return {
        "unit": metric["unit"], "better": metric["better"],
        "base": b, "head": h,
        "relative_change": (h["median"] - b["median"]) / b["median"]
        if b["median"] else 0.0,
        "head_wins": wins, "head_losses": losses, "pairs": len(pairs),
        "gain": (wins >= CLAIM_SHARE * len(pairs) and -worse_by > 0
                 and abs(h["median"] - b["median"]) > b["iqr"]),
        "bound": metric["bound"],
        "within_bound": worse_by <= metric["bound"],
    }


def compare_seed(trees: dict, spec: dict, seed: int, n_pairs: int) -> dict:
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(n_pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, spec["run_seconds"])
            pairs.append(pair)
            print(f"seed {seed} {workload} pair {i + 1}/{n_pairs}: wall_s "
                  f"base {pair['base']['metrics']['wall_s']:.3f} "
                  f"head {pair['head']['metrics']['wall_s']:.3f}",
                  file=sys.stderr, flush=True)
        out[workload] = {
            "runs_correct": all(p[s]["correct"] for p in pairs for s in ("base", "head")),
            "failed": {s: [p[s]["failed"] for p in pairs] for s in ("base", "head")},
            "attempted": {s: [p[s]["attempted"] for p in pairs] for s in ("base", "head")},
            "first": [p["first"] for p in pairs],
            "metrics": {m["name"]: compare(pairs, m) for m in spec["end_to_end"]},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--check-seed", type=int, required=True)
    parser.add_argument("--check-pairs", type=int, default=3)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.check_pairs < 2:
        parser.error("--pairs and --check-pairs must be at least 2")
    if args.seed == args.check_seed:
        parser.error("--check-seed must differ from --seed")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.time()
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {"base": export(args.base, Path(scratch) / "base"), "head": ROOT}
        seeds = {str(args.seed): compare_seed(trees, spec, args.seed, args.pairs),
                 str(args.check_seed): compare_seed(trees, spec, args.check_seed,
                                                    args.check_pairs)}
        probe = subprocess.run(
            [sys.executable, "-c", "import numpy, scipy, platform, os; "
             "print(platform.python_version(), numpy.__version__, "
             "scipy.__version__, os.cpu_count())"],
            capture_output=True, text=True, check=True).stdout.split()

    report = {
        "base": {"rev": args.base, "commit": commit_of(args.base)},
        "head": {"rev": "working tree", "parent": commit_of("HEAD")},
        "environment": {"python": probe[0], "numpy": probe[1], "scipy": probe[2],
                        "cpus": int(probe[3]),
                        "threads": "pinned to 1 by perfbench/run.py"},
        "run_seconds": spec["run_seconds"],
        "claim_rule": f"head wins >= {CLAIM_SHARE:g} of pairs and |median change| "
                      "> base IQR",
        "seeds": seeds,
        "elapsed_s": time.time() - started,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for seed, workloads in seeds.items():
        for workload, entry in workloads.items():
            for name, m in entry["metrics"].items():
                print(f"seed {seed:>3} {workload:14s} {name:12s} "
                      f"base {m['base']['median']:.4g} [{m['base']['q1']:.4g}, "
                      f"{m['base']['q3']:.4g}]  head {m['head']['median']:.4g} "
                      f"[{m['head']['q1']:.4g}, {m['head']['q3']:.4g}]  "
                      f"wins {m['head_wins']}/{m['pairs']}  "
                      f"{'GAIN' if m['gain'] else ''}"
                      f"{'' if m['within_bound'] else 'WORSE THAN BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
