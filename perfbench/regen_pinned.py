"""Regenerate the benchmark's pinned inputs and expected verdicts.

Usage (from the repository root)::

    python3 perfbench/regen_pinned.py

Writes

* ``perfbench/pinned/certificates.json``: the theory sources and the proof
  certificates the verify workload re-checks, plus the commit that produced
  them.  Pinning them means a prover change cannot change verify's inputs.
* ``perfbench/expected/*.json``: the expected verdict of every goal each
  workload submits.

Run it only when a change is meant to alter verdicts or the certificate
format, and commit the result with that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import EXPECTED_DIR, PINNED_CERTIFICATES, ROOT, use_repo_sources  # noqa: E402

#: Goals the service workload may submit: proved at the prove-batch budget
#: with at most this many search nodes, so every request is a light solve.
FAST_NODES = 16


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _write(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    use_repo_sources()
    from prove_batch import MAX_NODES, SUITES
    from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES, BenchmarkProblem
    from repro.harness import run_suite
    from repro.lang.loader import load_program
    from repro.search.config import ProverConfig
    from repro.semantics.falsify import falsify_goal

    config = ProverConfig().with_(max_nodes=MAX_NODES, timeout=None, emit_proofs=True)
    verdicts = {}
    certificates = []
    fast = []
    for suite in SUITES:
        program = load_program(SUITE_PROGRAM_SOURCES[suite], name=suite)
        problems = [
            BenchmarkProblem(name=name, suite=suite, goal=program.goals[name], program=program)
            for name in sorted(program.goals)
            if not program.goals[name].is_conditional
        ]
        for record, problem in zip(run_suite(problems, config).records, problems):
            verdicts[f"{suite}/{record.name}"] = record.status
            if record.proved:
                certificates.append({
                    "suite": suite,
                    "goal": record.name,
                    "equation": str(problem.goal.equation),
                    "certificate": record.certificate,
                })
                if suite == "isaplanner" and record.nodes <= FAST_NODES:
                    fast.append(record.name)
    _write(EXPECTED_DIR / "prove-batch.json", {"max_nodes": MAX_NODES, "verdicts": verdicts})
    _write(PINNED_CERTIFICATES, {
        "commit": _commit(),
        "max_nodes": MAX_NODES,
        "sources": {suite: SUITE_PROGRAM_SOURCES[suite] for suite in SUITES},
        "certificates": certificates,
    })
    _write(EXPECTED_DIR / "service-mix.json", {"fast_goals": fast, "status": "proved"})

    # Ground truth, not the falsifier's own output: every IsaPlanner goal is a
    # theorem, every false conjecture is false by construction.
    falsify = {}
    for suite, truth in (("isaplanner", "no-counterexample"), ("false_conjectures", "refuted")):
        program = load_program(SUITE_PROGRAM_SOURCES[suite], name=suite)
        for name in sorted(program.goals):
            falsify[f"{suite}/{name}"] = truth
            refuted = falsify_goal(program, program.goals[name]).counterexample is not None
            if refuted != (truth == "refuted"):
                print(f"warning: the falsifier disagrees with the truth on {suite}/{name}")
    _write(EXPECTED_DIR / "verify.json", {"falsify": falsify})
    return 0


if __name__ == "__main__":
    sys.exit(main())
