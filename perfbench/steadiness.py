"""Steadiness report: run one workload N times and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload prove-batch --runs 10 --first-seed 1
    python3 perfbench/steadiness.py --workload prove-batch --runs 10 --first-seed 101

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...); the
second command is the held-out seed set.  For every end-to-end metric the
report gives the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median``, and compares the spread with the bound in
BENCHMARK.json: a spread above the bound fails the check, one above a third
of it is flagged as marginal.  With ``--repeat-seed`` every run uses the first
seed and every ``count`` metric must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat-seed", action="store_true",
                        help="use the first seed for every run and require equal counts")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    seeds = range(args.first_seed, args.first_seed + args.runs)
    if args.repeat_seed:
        seeds = [args.first_seed] * args.runs
    for seed in seeds:
        command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        runs.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{name}={entry['value']:.5g}" for name, entry in runs[-1]["metrics"].items()
            if name in bounds or args.trace), flush=True)

    ok = True
    print(f"\n{args.workload}: {len(runs)} runs of {seconds}s")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if args.repeat_seed and runs[0]["metrics"][name]["unit"] == "count" and len(set(values)) > 1:
            verdict, ok = "COUNT DIFFERS", False
        if bound is not None:
            if spread > bound:
                verdict, ok = "FAIL", False
            elif spread > bound / 3:
                verdict = "marginal"
        print(f"{name:32s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6} {verdict}")
    if not all(run["correct"] for run in runs):
        print("some run reported wrong verdicts")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
