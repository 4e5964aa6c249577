"""Workload ``prove-batch``: the paper's Fig. 7 search kernel, in process.

Serial :func:`repro.harness.run_suite` over every unconditional IsaPlanner and
mutual goal, α-renamed from the seed, at a fixed node budget with no
wall-clock timeout (verdicts then depend on the budget only, never on the
machine).  A pass is the whole goal set; a run repeats passes until it has
measured ``--seconds`` (at least two passes).  A first pass measured no slower
than later ones, so there is no warm-up pass.
"""

from __future__ import annotations

import json
import random
from time import perf_counter
from typing import Dict, List

from common import (
    EXPECTED_DIR,
    SCRATCH,
    RunResult,
    SpanRecorder,
    load_json,
    median_setup,
    own_peak_rss_mb,
    percentile,
    put_self_times,
)
from gate import recheck_certificates
from inputs import alpha_rename_theory

SUITES = ("isaplanner", "mutual")
#: Node budget: prop_56, the slowest goal, stays near an eighth of a pass.
MAX_NODES = 40
SETUP_REPEATS = 15

#: Metrics reported as 0: their layers are not on this workload's path.
UNMEASURED = ("semantics.", "engine.", "service.", "replay_", "warm_", "cold_", "falsify_")


def _setup(seed: int):
    """Elaborate the α-renamed theories into a fresh term bank."""
    from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES, BenchmarkProblem
    from repro.core.interning import TermBank, use_bank
    from repro.lang import loader

    rng = random.Random(seed)
    sources = {suite: alpha_rename_theory(SUITE_PROGRAM_SOURCES[suite], rng) for suite in SUITES}
    bank = TermBank("perfbench")
    problems = []
    with use_bank(bank):
        for suite in SUITES:
            program = loader.load_program(sources[suite], name=suite)
            for name in sorted(program.goals):
                goal = program.goals[name]
                if not goal.is_conditional:
                    problems.append(BenchmarkProblem(name=name, suite=suite, goal=goal, program=program))
    return bank, sources, problems


def run(seed: int, seconds: float, traced: bool) -> RunResult:
    from repro.core.interning import use_bank
    from repro.harness import run_suite
    from repro.search.config import ProverConfig

    result = RunResult()
    recorder = SpanRecorder()
    if traced:
        _wrap_setup(recorder)
    setup_s, (bank, sources, problems) = median_setup(lambda: _setup(seed), SETUP_REPEATS)
    recorder.restore()
    load_spans = list(recorder.spans)
    config = ProverConfig().with_(max_nodes=MAX_NODES, timeout=None, emit_proofs=True)
    expected: Dict[str, str] = load_json(EXPECTED_DIR / "prove-batch.json")["verdicts"]

    equations = {f"{p.suite}/{p.name}": str(p.goal.equation) for p in problems}
    first: List = []  # the first pass's records, for the per-layer counters
    latencies: List[float] = []
    proved = 0
    # Certificates to re-check, one per distinct (goal, certificate).  Records
    # are dropped after each pass, so memory does not grow with the number of
    # passes a fast machine fits into the run.
    certificates: Dict[tuple, tuple] = {}
    pass_walls: List[float] = []
    traced_walls: List[float] = []
    stats: List = []
    with use_bank(bank):
        while len(pass_walls) < 2 or sum(pass_walls) < seconds:
            started = perf_counter()
            records = run_suite(problems, config).records
            pass_walls.append(perf_counter() - started)
            first = first or records
            for record in records:  # the verdict gate, outside the timed pass
                key = f"{record.suite}/{record.name}"
                result.attempted += 1
                latencies.append(record.seconds * 1000.0)
                if record.status != expected.get(key):
                    result.fail(f"{key}: {record.status}, expected {expected.get(key)}")
                if record.proved:
                    proved += 1
                    item = (sources[record.suite], record.certificate, equations[key])
                    certificates[(key, json.dumps(record.certificate, sort_keys=True))] = item
            if traced:
                # Alternate an instrumented pass with each plain one, so the
                # overhead estimate sees the same machine drift on both sides.
                recorder = SpanRecorder()
                with recorder:
                    _wrap_search(recorder, stats)
                    started = perf_counter()
                    run_suite(problems, config)
                    traced_walls.append(perf_counter() - started)

    gate_recorder = SpanRecorder()
    with gate_recorder:
        if traced:
            _wrap_gate(gate_recorder)
        check_times = recheck_certificates(result, certificates.values())

    passes = len(pass_walls)
    per_pass = len(problems)
    result.put("setup_s", setup_s, "s")
    result.put("goals_per_s", len(latencies) / sum(pass_walls), "1/s")
    result.put("verdict_p50_ms", percentile(latencies, 0.5, "verdict_p50_ms"), "ms")
    result.put("verdict_p90_ms", percentile(latencies, 0.9, "verdict_p90_ms"), "ms")
    result.put("solved", proved / passes, "count")
    result.put("peak_rss_mb", own_peak_rss_mb(), "MB")

    if traced:
        _layer_metrics(result, first, stats[:per_pass], load_spans, gate_recorder,
                       bank, check_times)
        spans = recorder  # the last instrumented pass
        traced_wall = traced_walls[-1]
        put_self_times(result, spans.self_seconds(), traced_wall)
        add = spans.durations("IncrementalClosure.add")
        result.put("sizechange.add_calls", len(add), "count")
        result.put("sizechange.add_busy_s", sum(add), "s")
        result.put("sizechange.add_p50_us", percentile(add, 0.5, "sizechange.add_p50_us") * 1e6, "us")
        result.put("obs.spans", len(spans.spans), "count")
        result.put("obs.trace_overhead_share", 1.0 - sum(pass_walls) / sum(traced_walls), "share")
        spans.dump(SCRATCH / f"prove-batch-seed{seed}.spans.jsonl")
    return result


def _wrap_setup(recorder: SpanRecorder) -> None:
    from repro.lang import loader

    recorder.wrap(loader, "load_program", "lang")


def _wrap_search(recorder: SpanRecorder, stats: List) -> None:
    """Spans around each layer's entry points, as the prover calls them."""
    from repro.proofs import certificate
    from repro.rewriting.reduction import Normalizer
    from repro.search.prover import Prover
    from repro.sizechange.closure import IncrementalClosure

    recorder.wrap(Prover, "prove", "search")
    recorder.wrap(IncrementalClosure, "add", "sizechange")
    recorder.wrap(Normalizer, "normalize", "rewriting")
    recorder.wrap(certificate, "encode", "proofs")
    # SearchStatistics carries counters SolveRecord drops (checks, compositions).
    prove = vars(Prover)["prove"]

    def prove_and_keep(*args, **kwargs):
        outcome = prove(*args, **kwargs)
        stats.append(outcome.statistics)
        return outcome

    Prover.prove = prove_and_keep


def _wrap_gate(recorder: SpanRecorder) -> None:
    from repro.proofs import checker

    recorder.wrap(checker.CertificateChecker, "check", "proofs")
    recorder.wrap(checker, "closure_of", "sizechange")


def _layer_metrics(result, records, stats, load_spans, gate_recorder, bank, check_times) -> None:
    """Per-layer counters of one pass, from SolveRecord and SearchStatistics."""
    def phase(name: str) -> float:
        return sum(r.phase_seconds.get(name, 0.0) for r in records)

    solve_s = sum(r.seconds for r in records)
    result.put("sizechange.soundness_s", phase("soundness"), "s")
    result.put("sizechange.soundness_share", phase("soundness") / solve_s, "share")
    result.put("sizechange.checks", sum(s.soundness_checks for s in stats), "count")
    result.put("sizechange.compositions", sum(s.closure_compositions for s in stats), "count")
    result.put("sizechange.closure_of_busy_s", sum(gate_recorder.durations("checker.closure_of")), "s")

    proved = [r for r in records if r.proved]
    result.put("search.nodes", sum(r.nodes for r in records), "count")
    result.put("search.useful_node_share",
               sum(len(r.certificate["nodes"]) for r in proved) / max(1, sum(r.nodes for r in proved)),
               "share")
    result.put("search.expand_s", phase("expand"), "s")
    result.put("search.case_split_s", phase("case_split"), "s")
    result.put("search.lemma_prefilter_s", phase("lemma_prefilter"), "s")

    hits = sum(r.normalizer_hits for r in records)
    misses = sum(r.normalizer_misses for r in records)
    compiled = sum(r.compiled_steps for r in records)
    fallback = sum(r.fallback_steps for r in records)
    result.put("rewriting.normalise_s", phase("normalise"), "s")
    result.put("rewriting.nf_cache_hit_share", hits / max(1, hits + misses), "share")
    result.put("rewriting.compile_s", sum(r.compile_seconds for r in records), "s")
    result.put("rewriting.compiled_step_share", compiled / max(1, compiled + fallback), "share")

    result.put("core.match_s", phase("match"), "s")
    result.put("core.substitute_s", phase("substitute"), "s")
    result.put("core.bank_terms", len(bank), "count")

    loads = [end - start for layer, _, start, end, _ in load_spans if layer == "lang"]
    result.put("lang.load_calls", len(loads), "count")
    result.put("lang.load_program_ms", 1000.0 * sum(loads) / max(1, len(loads)), "ms")

    from repro.proofs.certificate import canonical_json

    result.put("proofs.encode_s", sum(r.certificate_seconds for r in records), "s")
    result.put("proofs.cert_bytes_mean",
               sum(len(canonical_json(r.certificate)) for r in proved) / max(1, len(proved)), "B")
    checks = gate_recorder.durations("CertificateChecker.check")
    result.put("proofs.check_calls", len(checks), "count")
    result.put("proofs.check_busy_s", sum(checks), "s")
    result.put("check_p50_ms", percentile(check_times, 0.5, "check_p50_ms") * 1000.0, "ms")
