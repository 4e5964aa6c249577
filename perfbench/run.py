"""Run one benchmark workload and print its metrics as the last output line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload prove-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics.  A
human-readable table goes to stderr; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong
verdict makes ``correct`` false and the exit code 1; a run that cannot
measure honestly (missing sources, percentile guard) exits 2 without a
result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, BenchmarkError, RunResult, use_repo_sources  # noqa: E402

WORKLOADS = ("prove-batch", "service-mix", "verify")


def _declared():
    """(end-to-end metrics, per-layer metrics) as ``{name: unit}``, from BENCHMARK.json."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _module(workload: str):
    if workload == "prove-batch":
        import prove_batch as module
    elif workload == "service-mix":
        import service_mix as module
    else:
        import verify as module
    return module


def _fill_unmeasured(result: RunResult, declared: dict, unmeasured) -> None:
    """Report 0 for the metrics a workload declares it does not measure."""
    for name, unit in declared.items():
        if name not in result.metrics and name.startswith(tuple(unmeasured)):
            result.put(name, 0.0, unit)


def _check_units(result: RunResult, declared: dict) -> None:
    for name, (_, unit) in result.metrics.items():
        if name in declared and declared[name] != unit:
            raise BenchmarkError(f"{name} measured in {unit}, declared in {declared[name]}")


def _report(workload: str, result: RunResult, names) -> None:
    print(f"== {workload}: {result.attempted} attempted, {result.failed} failed", file=sys.stderr)
    for message in result.failures:
        print(f"   FAIL {message}", file=sys.stderr)
    for name in sorted(result.metrics):
        value, unit = result.metrics[name]
        marker = "" if name in names else "   (report only)"
        print(f"   {name:34s} {value:14.6g} {unit}{marker}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_repo_sources()
        end_to_end, per_layer = _declared()
        module = _module(args.workload)
        result = module.run(args.seed, args.seconds, traced=bool(args.trace))
        declared = per_layer if args.trace else end_to_end
        if args.trace:
            _fill_unmeasured(result, declared, module.UNMEASURED)
        _check_units(result, {**end_to_end, **per_layer})
        names = list(declared)
        _report(args.workload, result, names)
        line = result.result_line(names)
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(line)
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
