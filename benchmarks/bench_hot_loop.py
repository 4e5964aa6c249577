"""Experiment E-hotloop — profile-guided hot-loop optimisations, end to end.

The phase profiler (``python -m repro profile``) attributed ~90% of
end-to-end prover time to the size-change soundness closure, with the
remainder split between matching, substitution and normalisation.  The
optimisation pass that followed (ledger in ``docs/profiling.md``) rewrote
those hot paths:

* the incremental closure composes edge sets through a cached successor
  index, dedupes graphs by value key, and memoises edge-set compositions
  (99.1% of composition calls repeat an already-seen pair); since then its
  update has also become semi-naive, extending each new graph by edge
  generators only;
* ``match_or_none`` runs a flat two-slot stack and hands its bindings dict
  to ``Substitution._adopt`` without a defensive copy;
* ``Substitution.apply`` specialises the ubiquitous single-binding case.

This benchmark measures the **end-to-end** effect: the same suite slice is
run through ``run_suite`` twice, once as shipped and once under
:func:`repro.perf.reference_hot_paths`, which swaps every one of those
optimisations back to its byte-identical pre-optimisation implementation —
so the baseline is the real predecessor on the same interpreter, not a
number written down on another machine.  Both modes run a fixed node budget
with the wall clock disabled, so the searches are deterministic and the
parity gate below is meaningful.

Two claims, both asserted:

* **parity** — per-goal status AND node count must be identical in both
  modes; a speedup that changes the search is not an optimisation.
* **speedup** — the paired, interleaved 95% CI *lower bound* of the
  reference/optimised wall-clock ratio must be ≥ 1.25×.  (The measured
  point estimate is far higher — 22–26×, CI lower 19–23×, on a 2-vCPU Xeon
  under Python 3.11 — but the asserted bound is kept conservative so the
  gate stays robust on slow or loaded CI machines.  The slice runs
  ``falsify_first``, whose ground testing both arms pay.  It used to take
  about 1 s of the optimised arm's run and diluted the ratio to 4–5×; since
  the table-driven instance generation and the memoised instance streams it
  takes about 0.02 s on warm repeats, so the ratio now reads the hot paths
  themselves.  See ``docs/profiling.md``, "The headline number".)

Run directly (``PYTHONPATH=src python benchmarks/bench_hot_loop.py``) for
the full report, or through pytest for the asserted gates.
"""

from __future__ import annotations

from typing import List, Tuple

from conftest import print_report  # shared benchmark helpers
from stats import format_sample, measure_paired

from repro.benchmarks_data.registry import isaplanner_problems, mutual_problems
from repro.harness import format_table, run_suite
from repro.perf import reference_hot_paths
from repro.search.config import ProverConfig

REPEATS = 5
WARMUP = 1

#: Asserted paired-ratio CI lower bound.  Deliberately far below the
#: measured point estimate (see module docstring).
REQUIRED_CI_LOWER = 1.25

#: Deterministic workload: wall clock off, fixed node budget.  The slice is
#: sized so one baseline run takes a few seconds — large enough that
#: per-run noise is small against the measured effect, small enough for
#: REPEATS paired runs in CI.
WORKLOAD_CONFIG = ProverConfig(timeout=None, max_nodes=150, falsify_first=True)


def workload_problems():
    """The benchmark slice: the first IsaPlanner goals plus mutual induction.

    The slice keeps a realistic mix — goals the prover proves, goals it
    exhausts the budget on, and the mutual-induction pairs whose cycles
    stress the soundness closure hardest.
    """
    return isaplanner_problems()[:12] + mutual_problems()[:4]


def _signature(result) -> List[Tuple[str, str, int]]:
    return [(r.name, r.status, r.nodes) for r in result.records]


def run_parity_check() -> Tuple[str, List[str]]:
    """One run per mode; per-goal (status, nodes) must agree exactly."""
    problems = workload_problems()
    optimised = run_suite(problems, WORKLOAD_CONFIG)
    with reference_hot_paths():
        reference = run_suite(problems, WORKLOAD_CONFIG)

    mismatches: List[str] = []
    rows = []
    for opt, ref in zip(_signature(optimised), _signature(reference)):
        name, status, nodes = opt
        agree = opt == ref
        if not agree:
            mismatches.append(
                f"{name}: optimised ({status}, {nodes}) vs reference ({ref[1]}, {ref[2]})"
            )
        rows.append((name, status, str(nodes), "yes" if agree else "NO"))
    table = format_table(("goal", "status", "nodes", "parity"), rows)
    return table, mismatches


def run_speedup_benchmark(repeats: int = REPEATS, warmup: int = WARMUP):
    """Paired, interleaved reference-vs-optimised wall clock over the slice."""
    problems = workload_problems()

    def run_optimised():
        run_suite(problems, WORKLOAD_CONFIG)

    def run_reference():
        with reference_hot_paths():
            run_suite(problems, WORKLOAD_CONFIG)

    reference_sample, optimised_sample, ratio_sample = measure_paired(
        run_reference, run_optimised, repeats=repeats, warmup=warmup
    )
    point = reference_sample.mean / optimised_sample.mean
    rows = [
        ("reference hot paths", format_sample(reference_sample)),
        ("optimised hot paths", format_sample(optimised_sample)),
        ("speedup (point)", f"{point:.2f}x"),
        ("speedup (95% CI)", f"[{ratio_sample.ci_low:.2f}x, {ratio_sample.ci_high:.2f}x]"),
        ("asserted bound", f"CI lower >= {REQUIRED_CI_LOWER:.2f}x"),
    ]
    table = format_table(("measurement", "value"), rows)
    return table, point, ratio_sample.ci_low


def test_hot_loop_parity_reference_vs_optimised():
    """The optimisations must not change any status or node count."""
    table, mismatches = run_parity_check()
    print_report("hot-loop parity (optimised vs reference)", table)
    assert not mismatches, "search diverged under optimisation:\n" + "\n".join(mismatches)


def test_hot_loop_end_to_end_speedup_ci_lower_bound():
    """End-to-end paired speedup, asserted at the 95% CI lower bound."""
    table, point, ci_lower = run_speedup_benchmark()
    print_report("hot-loop end-to-end speedup", table)
    assert ci_lower >= REQUIRED_CI_LOWER, (
        f"paired speedup CI lower bound {ci_lower:.2f}x "
        f"below required {REQUIRED_CI_LOWER:.2f}x (point {point:.2f}x)"
    )


if __name__ == "__main__":
    parity_table, mismatches = run_parity_check()
    print_report("hot-loop parity (optimised vs reference)", parity_table)
    if mismatches:
        raise SystemExit("parity FAILED:\n" + "\n".join(mismatches))
    speed_table, _point, ci_lower = run_speedup_benchmark()
    print_report("hot-loop end-to-end speedup", speed_table)
    if ci_lower < REQUIRED_CI_LOWER:
        raise SystemExit(f"speedup CI lower bound {ci_lower:.2f}x < {REQUIRED_CI_LOWER}x")
