"""Workload ``verify``: certificate re-checking and falsification, no search.

Two request kinds per pass:

* **check**: ``repro check``-style re-checking of the certificates pinned in
  ``pinned/certificates.json`` (against the pinned theory sources, so a
  prover change cannot change these inputs), plus each of them in four
  seeded corrupted forms that must be rejected;
* **falsify**: ``repro disprove``-style testing of every IsaPlanner goal (all
  true: no counterexample allowed) and every false conjecture (the
  counterexample must replay), over α-renamed theories.

A run repeats passes until it has measured ``--seconds`` (at least two
passes).  A first pass measured no slower than later ones, so there is no
warm-up pass.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Tuple

from common import (
    EXPECTED_DIR,
    PINNED_CERTIFICATES,
    SCRATCH,
    RunResult,
    SpanRecorder,
    load_json,
    median_setup,
    own_peak_rss_mb,
    percentile,
    put_self_times,
)
from gate import replay_counterexample
from inputs import CORRUPTIONS, alpha_rename_theory, corrupt

FALSIFY_SUITES = ("isaplanner", "false_conjectures")
SETUP_REPEATS = 9

#: Metrics reported as 0: no proof search, no service, no compiled rewriting here.
UNMEASURED = ("search.", "engine.", "service.", "replay_", "warm_", "cold_",
              "sizechange.soundness", "sizechange.checks", "sizechange.compositions",
              "sizechange.add_", "rewriting.nf_cache", "rewriting.compile", "proofs.encode_s",
              "core.match_s", "core.substitute_s")


class Inputs:
    """Everything a pass needs, built by :func:`_setup`."""

    def __init__(self, checks, corruptions, falsify, checkers, banks):
        self.checks: List[Tuple[str, dict, str]] = checks
        self.corruptions: List[Tuple[str, dict, str]] = corruptions
        self.falsify: List[Tuple[str, object, object]] = falsify
        self.checkers: Dict[str, object] = checkers
        self.banks = banks


def _setup(seed: int) -> Inputs:
    """Load the pinned certificates, build checkers, elaborate and compile the falsify theories."""
    from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES
    from repro.core.interning import TermBank, use_bank
    from repro.lang import loader
    from repro.proofs.checker import CertificateChecker
    from repro.semantics.evaluator import Evaluator

    pinned = load_json(PINNED_CERTIFICATES)
    checkers = {suite: CertificateChecker(source, name=suite)
                for suite, source in pinned["sources"].items()}
    checks = [(c["suite"], c["certificate"], c["equation"]) for c in pinned["certificates"]]
    # Every certificate in each of the four corrupted forms.  The seed picks
    # only where a corruption strikes, so which certificates are re-checked
    # (and so the spread of check times) is the same for every seed.  The
    # checks then outnumber the falsifications and the median verdict sits
    # among three near-copies of every full re-check (valid, changed
    # fingerprint, wrong goal), not in a sparse stretch of check times or in
    # the gap between checks (under 30 ms) and falsifications (over 40 ms).
    rng = random.Random(seed)
    corruptions = [(suite, corrupt(cert, kind, rng), equation)
                   for suite, cert, equation in checks for kind in CORRUPTIONS]
    bank = TermBank("perfbench-falsify")
    falsify = []
    with use_bank(bank):
        for suite in FALSIFY_SUITES:
            program = loader.load_program(alpha_rename_theory(SUITE_PROGRAM_SOURCES[suite], rng),
                                          name=suite)
            Evaluator.for_program(program)
            falsify += [(suite, program, program.goals[name]) for name in sorted(program.goals)]
    return Inputs(checks, corruptions, falsify, checkers,
                  [bank] + [checker.bank for checker in checkers.values()])


def _pass(inputs: Inputs, decisions: List[tuple]) -> None:
    """One pass: every check, corruption and falsification; appends decisions."""
    from repro.semantics import falsify

    for kind, items in (("check", inputs.checks), ("corruption", inputs.corruptions)):
        for suite, cert, equation in items:
            started = perf_counter()
            report = inputs.checkers[suite].check(cert, goal_equation=equation)
            decisions.append((kind, perf_counter() - started, report.ok, equation))
    for suite, program, goal in inputs.falsify:
        started = perf_counter()
        outcome = falsify.falsify_goal(program, goal)
        decisions.append((f"falsify:{suite}", perf_counter() - started, outcome, (program, goal)))


def run(seed: int, seconds: float, traced: bool) -> RunResult:
    from repro.core.interning import use_bank

    result = RunResult()
    recorder = SpanRecorder()
    if traced:
        from repro.lang import loader

        recorder.wrap(loader, "load_program", "lang")
    setup_s, inputs = median_setup(lambda: _setup(seed), SETUP_REPEATS)
    recorder.restore()
    load_spans = list(recorder.spans)
    expected = load_json(EXPECTED_DIR / "verify.json")["falsify"]

    decisions: List[tuple] = []
    walls: List[float] = []
    traced_walls: List[float] = []
    with use_bank(inputs.banks[0]):
        while len(walls) < 2 or sum(walls) < seconds:
            started = perf_counter()
            _pass(inputs, decisions)
            walls.append(perf_counter() - started)
            if traced:
                recorder = SpanRecorder()
                with recorder:
                    _wrap(recorder)
                    started = perf_counter()
                    _pass(inputs, [])
                    traced_walls.append(perf_counter() - started)

        # -- correctness gate (outside every timed region) -------------------------
        for kind, _, outcome, subject in decisions:
            result.attempted += 1
            if kind == "check" and not outcome:
                result.fail(f"pinned certificate rejected: {subject}")
            elif kind == "corruption" and outcome:
                result.fail(f"corrupted certificate accepted: {subject}")
            elif kind.startswith("falsify:"):
                program, goal = subject
                want = expected[f"{kind[len('falsify:'):]}/{goal.name}"]
                if want == "no-counterexample" and outcome.counterexample is not None:
                    result.fail(f"{goal.name}: counterexample to a theorem")
                elif want == "refuted" and not replay_counterexample(
                        program, outcome.counterexample and outcome.counterexample.to_dict(),
                        goal.equation):
                    result.fail(f"{goal.name}: no replayable counterexample")

    wall = sum(walls)
    passes = len(walls)
    latencies = [s * 1000.0 for _, s, _, _ in decisions]
    checks = [s * 1000.0 for kind, s, _, _ in decisions if kind in ("check", "corruption")]
    falsifications = [d for d in decisions if d[0].startswith("falsify:")]
    result.put("setup_s", setup_s, "s")
    result.put("goals_per_s", len(decisions) / wall, "1/s")
    result.put("verdict_p50_ms", percentile(latencies, 0.5, "verdict_p50_ms"), "ms")
    result.put("verdict_p90_ms", percentile(latencies, 0.9, "verdict_p90_ms"), "ms")
    result.put("solved", sum(1 for kind, _, ok, _ in decisions if kind == "check" and ok) / passes,
               "count")
    result.put("peak_rss_mb", own_peak_rss_mb(), "MB")
    result.put("check_p50_ms", percentile(checks, 0.5, "check_p50_ms"), "ms")
    result.put("falsify_p50_ms",
               percentile([d[1] * 1000.0 for d in falsifications], 0.5, "falsify_p50_ms"), "ms")

    if traced:
        spans = recorder  # the last instrumented pass
        per_pass = falsifications[:len(inputs.falsify)]
        instances = sum(outcome.instances_tested for _, _, outcome, _ in per_pass)
        busy = sum(spans.durations("falsify.falsify_goal"))
        result.put("semantics.falsify_busy_s", busy, "s")
        result.put("semantics.instances", instances, "count")
        result.put("semantics.instances_per_s", instances / busy, "1/s")
        check_spans = spans.durations("CertificateChecker.check")
        result.put("proofs.check_calls", len(check_spans), "count")
        result.put("proofs.check_busy_s", sum(check_spans), "s")
        result.put("proofs.cert_bytes_mean", _mean_cert_bytes(inputs), "B")
        result.put("sizechange.closure_of_busy_s", sum(spans.durations("checker.closure_of")), "s")
        # The checker reduces through the rewriting layer's one-step functions.
        result.put("rewriting.normalise_s", spans.self_seconds().get("rewriting", 0.0), "s")
        result.put("core.bank_terms", sum(len(bank) for bank in inputs.banks), "count")
        loads = [end - start for _, _, start, end, _ in load_spans]
        result.put("lang.load_calls", len(loads), "count")
        result.put("lang.load_program_ms", 1000.0 * sum(loads) / max(1, len(loads)), "ms")
        put_self_times(result, spans.self_seconds(), traced_walls[-1])
        result.put("obs.spans", len(spans.spans), "count")
        result.put("obs.trace_overhead_share", 1.0 - wall / sum(traced_walls), "share")
        spans.dump(SCRATCH / f"verify-seed{seed}.spans.jsonl")
    return result


def _wrap(recorder: SpanRecorder) -> None:
    from repro.proofs import checker
    from repro.rewriting import reduction
    from repro.rewriting.reduction import Normalizer
    from repro.semantics import falsify

    recorder.wrap(checker.CertificateChecker, "check", "proofs")
    recorder.wrap(checker, "decode", "proofs")
    recorder.wrap(checker, "closure_of", "sizechange")
    recorder.wrap(Normalizer, "normalize", "rewriting")
    for name in ("reducts", "one_step", "is_normal_form"):
        recorder.wrap(reduction, name, "rewriting")
    recorder.wrap(falsify, "falsify_goal", "semantics")


def _mean_cert_bytes(inputs: Inputs) -> float:
    from repro.proofs.certificate import canonical_json

    return sum(len(canonical_json(cert)) for _, cert, _ in inputs.checks) / len(inputs.checks)
