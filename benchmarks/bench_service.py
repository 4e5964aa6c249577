"""Experiment E-service — what the resident proof service buys.

The ``repro serve`` daemon exists for two reasons: a *warm* request (the
theory already elaborated and compiled, the verdict already in the result
store) should cost replay time, not solve time; and lemmas proved for one
goal should make later goals on the same theory provable that were not
provable alone.  This benchmark measures both.

* **Warm vs cold.** The cold baseline builds a fresh :class:`ProofService`
  per run — no warm cache, no store — so every run pays elaboration,
  rewrite-system compilation, worker spawning, and proof search, exactly like
  a one-shot ``repro prove``.  The warm candidate re-submits the same goals
  to one long-lived service whose store already holds the verdicts.  The two
  are timed with :func:`stats.measure_paired` (interleaved pairs, ratio per
  pair) and the assertion fires on ``ratio_sample.ci_low`` — the warm path
  must be at least 10x faster even when both confidence intervals conspire
  against the claim.  The warm path must also spawn exactly zero workers.

* **Resident pool vs. one private pool per request.**  Four client threads
  ask for the same cold goals at once.  The candidate is one memoryless
  service whose resident one-worker pool serves every request as its own
  session, so the worker spawns once and keeps the elaborated theory.  The
  baseline is the batch API: each client takes one lock and calls
  :func:`~repro.engine.solve_suite` with one job and a
  :class:`~repro.service.resolver.SourceResolver`, so every request spawns a
  private worker that elaborates the theory from source, one request at a
  time.  The resolver matters: the default registry resolver would inherit
  the parent's elaborated theory through the fork and hide the elaboration
  a fresh worker pays.  The aggregate-throughput ratio must be at least 2x
  at its 95% CI lower bound, and the resident pool must spawn exactly once.

* **Library ablation (reported, not asserted).** ``prop_54`` of the
  IsaPlanner suite needs ``add a b ≈ add b a`` as a lemma at small budgets.
  With the library seeded by proving that conjecture first, the assisted
  service proves ``prop_54`` using a certified library hint; the bare
  service, hintless at the same budget, does not.  Wall-clock and verdicts
  for both arms are printed for inspection — search-budget cliffs are
  machine-sensitive, so this table is evidence, not a gate.

Run directly (``PYTHONPATH=src python benchmarks/bench_service.py``) for the
tables, or through pytest for the assertions.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from typing import Callable, Dict, List, Optional, Tuple

from conftest import print_report  # shared benchmark helpers
from stats import Sample, format_sample, measure_paired

from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES
from repro.engine import solve_suite
from repro.obs.trace import TraceSink
from repro.proofs.certificate import canonical_json
from repro.search import ProverConfig
from repro.service import ProofService, ServiceConfig
from repro.service.resolver import SourceResolver

#: Quick-but-not-trivial IsaPlanner goals: enough work that the cold path is
#: dominated by real solving, small enough that interleaved repeats stay fast.
GOALS = ("prop_01", "prop_22", "prop_28")

#: Per-goal budget for the warm-vs-cold slice (all three prove in well under
#: a second; the budget only caps pathological scheduler stalls).
TIMEOUT = 5.0

#: The ablation goal and the lemma that unlocks it (see tests/test_service.py
#: for the same dynamics under assertion).
ABLATION_GOAL = "prop_54"
ABLATION_LEMMA = ("add_comm", "add a b === add b a")
ABLATION_TIMEOUT = 8.0

REPEATS = 7
WARMUP = 1

#: Concurrent-clients slice: this many threads each submit the pinned goals
#: at once.  Small enough that a run stays in seconds, large enough that the
#: baseline's per-request worker spawn and in-worker theory elaboration stack
#: up four deep.
CONCURRENT_CLIENTS = 4
CONCURRENT_REPEATS = 5

#: Warm submits per timed run.  A warm replay costs single-digit
#: milliseconds, where scheduler jitter is the same order as the signal and
#: per-pair ratios go heavy-tailed (one jittery 8 ms replay halves a ratio).
#: Batching amortizes the jitter; the per-request figures below divide it
#: back out.
WARM_BATCH = 5


def _submit(service: ProofService, **request) -> Tuple[dict, List[dict]]:
    """One in-process submission; returns (done line, all emitted lines)."""
    events: List[dict] = []
    service.handle_request(dict(request, op="submit"), events.append)
    done = events[-1]
    if done.get("op") != "done":
        raise AssertionError(f"submission failed: {done}")
    return done, events


def run_warm_vs_cold() -> Dict[str, object]:
    """Paired cold-service vs warm-service timings over the pinned slice."""
    scratch = tempfile.mkdtemp(prefix="bench-service-")
    warm_service = ProofService(
        ServiceConfig(store_path=f"{scratch}/store.jsonl", timeout=TIMEOUT)
    )
    cold_services: List[ProofService] = []
    try:
        # Populate the store and the warm cache once; everything after this
        # line is the steady state a resident daemon lives in.
        prime, _ = _submit(warm_service, suite="isaplanner", goals=list(GOALS))
        if prime["proved"] != len(GOALS):
            raise AssertionError(f"pinned slice must be provable: {prime}")

        def cold() -> None:
            # A fresh memoryless service per run: pays elaboration,
            # compilation, worker spawn, and search — the one-shot CLI cost.
            service = ProofService(ServiceConfig(timeout=TIMEOUT))
            cold_services.append(service)
            done, _ = _submit(service, suite="isaplanner", goals=list(GOALS))
            if done["proved"] != len(GOALS):
                raise AssertionError(f"cold run regressed: {done}")

        warm_spawns: List[int] = []

        def warm() -> None:
            for _ in range(WARM_BATCH):
                done, _ = _submit(warm_service, suite="isaplanner", goals=list(GOALS))
                warm_spawns.append(int(done["worker_spawns"]))
                if done["proved"] != len(GOALS):
                    raise AssertionError(f"warm run regressed: {done}")

        try:
            cold_sample, warm_batch_sample, ratio_batch_sample = measure_paired(
                cold, warm, repeats=REPEATS, warmup=WARMUP
            )
        finally:
            for service in cold_services:
                service.close()
        # The warm thunk timed WARM_BATCH submits; divide back to per-request
        # latency (and scale the per-pair ratios up correspondingly).
        warm_sample = Sample(tuple(v / WARM_BATCH for v in warm_batch_sample.values))
        ratio_sample = Sample(tuple(v * WARM_BATCH for v in ratio_batch_sample.values))
        return {
            "cold": cold_sample,
            "warm": warm_sample,
            "ratio": ratio_sample,
            "warm_spawns": tuple(warm_spawns),
            "metrics": warm_service.metrics_snapshot(),
        }
    finally:
        warm_service.close()
        shutil.rmtree(scratch, ignore_errors=True)


def _from_clients(clients: int, request: Callable[[str], Tuple[int, int]]) -> List[int]:
    """``clients`` threads each call ``request(name)`` at once.

    ``request`` solves the pinned goals and returns ``(proved, worker
    spawns)``; this returns the spawn counts.  Any thread's failure re-raises
    in the caller.
    """
    spawns: List[int] = []
    errors: List[BaseException] = []
    lock = threading.Lock()

    def one(name: str) -> None:
        try:
            proved, spawned = request(name)
            if proved != len(GOALS):
                raise AssertionError(f"client {name} proved {proved} of {len(GOALS)}")
            with lock:
                spawns.append(spawned)
        except BaseException as error:  # noqa: BLE001 - surfaced to the caller
            with lock:
                errors.append(error)

    threads = [
        threading.Thread(target=one, args=(f"client-{index}",))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return spawns


def run_concurrent_vs_private_pools() -> Dict[str, object]:
    """Aggregate cold-solve throughput: 4 concurrent clients, resident vs. private.

    Neither arm has a store, so every request is a genuine cold solve.  The
    baseline gives each request its own one-worker pool, one request at a
    time (a lock), with the theory elaborated from source inside the worker;
    the candidate is the service's shared resident pool, where concurrent
    sessions interleave on a warm worker that keeps its elaborated theory.
    Paired wall-clock per "all four clients answered" round; the assertion
    fires on the ratio's 95% CI lower bound.
    """
    resolver = SourceResolver(SUITE_PROGRAM_SOURCES["isaplanner"], "isaplanner", [])
    problems = [problem for problem in resolver() if problem.name in GOALS]
    # The service's own per-request configuration (certificates always on).
    config = ProverConfig(timeout=TIMEOUT, emit_proofs=True)
    one_at_a_time = threading.Lock()
    concurrent = ProofService(ServiceConfig(timeout=TIMEOUT, jobs=1))
    concurrent_spawns: List[int] = []
    try:
        def solve_privately(name: str) -> Tuple[int, int]:
            with one_at_a_time:
                result = solve_suite(problems, config, jobs=1, resolver=resolver)
            return len(result.solved), result.engine.worker_spawns

        def submit(name: str) -> Tuple[int, int]:
            done, _ = _submit(
                concurrent, suite="isaplanner", goals=list(GOALS), client=name
            )
            return done["proved"], int(done["worker_spawns"])

        def baseline() -> None:
            _from_clients(CONCURRENT_CLIENTS, solve_privately)

        def candidate() -> None:
            concurrent_spawns.extend(_from_clients(CONCURRENT_CLIENTS, submit))

        private_sample, concurrent_sample, ratio_sample = measure_paired(
            baseline, candidate, repeats=CONCURRENT_REPEATS, warmup=WARMUP
        )
        return {
            "private": private_sample,
            "concurrent": concurrent_sample,
            "ratio": ratio_sample,
            "spawns": tuple(concurrent_spawns),
            "pool": concurrent.pool.snapshot(),
        }
    finally:
        concurrent.close()


def run_concurrent_warm_replay() -> Dict[str, object]:
    """Warm replay under concurrency: 4 clients re-request solved goals.

    One cold pass populates the store; then four concurrent clients re-submit
    the same slice.  Every warm request must answer without a single worker
    spawn and stream back certificates byte-identical to the cold pass.
    """
    scratch = tempfile.mkdtemp(prefix="bench-service-warm-concurrent-")
    service = ProofService(
        ServiceConfig(store_path=f"{scratch}/store.jsonl", timeout=TIMEOUT, jobs=1)
    )
    try:
        _, cold_events = _submit(service, suite="isaplanner", goals=list(GOALS))
        cold_certificates = {
            event["goal"]: canonical_json(event["certificate"])
            for event in cold_events
            if event.get("op") == "verdict"
        }
        replays: List[Tuple[dict, List[dict]]] = []
        lock = threading.Lock()

        def one(name: str) -> None:
            done, events = _submit(
                service, suite="isaplanner", goals=list(GOALS), client=name
            )
            with lock:
                replays.append((done, events))

        threads = [
            threading.Thread(target=one, args=(f"warm-{index}",))
            for index in range(CONCURRENT_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        warm_spawns = []
        identical = True
        for done, events in replays:
            warm_spawns.append(int(done["worker_spawns"]))
            for event in events:
                if event.get("op") != "verdict":
                    continue
                if canonical_json(event["certificate"]) != cold_certificates[event["goal"]]:
                    identical = False
        return {
            "requests": len(replays),
            "warm_spawns": tuple(warm_spawns),
            "byte_identical": identical,
        }
    finally:
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)


#: Warm submits per timed run in the tracing-overhead slice.  Much bigger
#: than WARM_BATCH because the claim is an upper bound on a *near-1* ratio:
#: a single jittery replay shifts a pair by ±10% where the asserted envelope
#: is 2%, so the batches must amortize jitter well below the envelope.
TRACE_BATCH = 60

#: Interleaved best-of-TRACE_INNER per pair side, TRACE_REPEATS pairs.  The
#: sizing is driven by the noise, not the signal: shared single-core CI
#: runners show a ±3% floor between adjacent 25 ms windows, so the 2%
#: envelope is asserted on the ratio of per-arm *minima* (the noise-floor
#: estimate, which both arms approach as windows accumulate) while the
#: paired 95% CI lower bound guards more coarsely against gross regression.
TRACE_REPEATS = 8
TRACE_INNER = 8
TRACE_WARMUP = 2


def run_tracing_overhead() -> Dict[str, object]:
    """Warm replay with tracing to a JSONL sink vs without — the 2% envelope.

    Tracing is always on (the in-memory ring, span bookkeeping and latency
    histograms run either way); what this slice prices is the *sink*: a
    configured ``trace_path`` adds, for persisted requests, appends to the
    sink's pending list plus a writer thread's batched JSONL serialization.
    The replay path stays inside the envelope by design — sink writes are
    asynchronous and pure-replay requests are head-sampled (1 in
    ``REPLAY_SINK_SAMPLE``) — and this slice holds it to that: one primed
    resident service, whose one :class:`TraceSink` is attached to its tracer
    for the traced batches and detached for the plain ones, paired
    interleaved batches, plain/traced ratio (1.0 means free, 0.98 is the
    promised ceiling).  One service for both arms keeps the comparison to the
    sink alone: two separately primed services also differ in warm state and
    heap layout, and the ratio of their noise floors reads that too.
    """
    scratch = tempfile.mkdtemp(prefix="bench-service-trace-")
    service = ProofService(
        ServiceConfig(store_path=f"{scratch}/store.jsonl", timeout=TIMEOUT)
    )
    sink = TraceSink(f"{scratch}/trace.jsonl")
    tracer = service.tracer

    def use_sink(attached: Optional[TraceSink]) -> None:
        # What ``Tracer.configure_sink`` does, minus closing and reopening
        # the file: both arms share one sink, and with it one writer thread.
        with tracer._lock:
            tracer._sink = attached

    try:
        prime, _ = _submit(service, suite="isaplanner", goals=list(GOALS))
        if prime["proved"] != len(GOALS):
            raise AssertionError(f"pinned slice must be provable: {prime}")

        def baseline() -> None:
            use_sink(None)
            for _ in range(TRACE_BATCH):
                _submit(service, suite="isaplanner", goals=list(GOALS))

        def candidate() -> None:
            use_sink(sink)
            for _ in range(TRACE_BATCH):
                _submit(service, suite="isaplanner", goals=list(GOALS))

        plain_sample, traced_sample, ratio_sample = measure_paired(
            baseline,
            candidate,
            repeats=TRACE_REPEATS,
            warmup=TRACE_WARMUP,
            # Near-1 bound: best-of-TRACE_INNER per pair side discards point
            # spikes (scheduler preemptions) that would drown a 2% signal.
            inner=TRACE_INNER,
        )
        use_sink(None)
        sink.close()  # drains the backlog, so the line count below is final
        with open(sink.path, encoding="utf-8") as handle:
            sink_records = sum(1 for _ in handle)
        metrics = service.metrics_snapshot()
        return {
            "plain": Sample(tuple(v / TRACE_BATCH for v in plain_sample.values)),
            "traced": Sample(tuple(v / TRACE_BATCH for v in traced_sample.values)),
            # Per-pair ratios need no rescaling: both thunks run TRACE_BATCH
            # submits, so the batch factor cancels.
            "ratio": ratio_sample,
            # Ratio of noise floors: each arm's global minimum over all
            # inner runs.  Noise on a throttled box only ever *adds* time,
            # so both minima converge to the arms' true costs and their
            # ratio isolates the systematic difference — this carries the
            # 2% envelope assertion.
            "floor_ratio": min(plain_sample.values) / min(traced_sample.values),
            "replay_p99": metrics["op_latency"]["store_replay"]["p99"],
            "replay_count": metrics["op_latency"]["store_replay"]["count"],
            "sink_records": sink_records,
        }
    finally:
        use_sink(None)
        sink.close()
        service.close()
        shutil.rmtree(scratch, ignore_errors=True)


def run_library_ablation() -> Dict[str, object]:
    """``prop_54`` with and without a seeded lemma library (reported only)."""

    def attempt(with_library: bool) -> dict:
        scratch = tempfile.mkdtemp(prefix="bench-service-ablation-")
        config = ServiceConfig(
            store_path=f"{scratch}/store.jsonl",
            library_path=f"{scratch}/library.jsonl" if with_library else None,
            timeout=ABLATION_TIMEOUT,
            jobs=1,
        )
        service = ProofService(config)
        try:
            if with_library:
                name, equation = ABLATION_LEMMA
                seeded, _ = _submit(
                    service,
                    suite="isaplanner",
                    conjectures=[{"name": name, "equation": equation}],
                )
                if seeded["lemmas_learned"] < 1:
                    raise AssertionError(f"lemma seeding failed: {seeded}")
            done, events = _submit(
                service, suite="isaplanner", goals=[ABLATION_GOAL]
            )
            verdict = next(
                e for e in events
                if e.get("op") == "verdict" and e.get("goal") == ABLATION_GOAL
            )
            return {
                "status": verdict["status"],
                "seconds": done["seconds"],
                "hints_offered": verdict.get("hints_offered") or 0,
                "hint_steps": verdict.get("hint_steps") or 0,
                "reason": verdict.get("reason"),
            }
        finally:
            service.close()
            shutil.rmtree(scratch, ignore_errors=True)

    return {"assisted": attempt(True), "bare": attempt(False)}


def _warm_vs_cold_table(report: Dict[str, object]) -> str:
    cold, warm, ratio = report["cold"], report["warm"], report["ratio"]
    lines = [
        f"goals: {', '.join(GOALS)} (suite isaplanner, per-goal budget {TIMEOUT:.0f}s)",
        f"cold (fresh service/run): {format_sample(cold)}",
        f"warm (resident daemon):   {format_sample(warm)}",
        f"speedup ratio per pair:   mean {ratio.mean:.1f}x, 95% CI lower {ratio.ci_low:.1f}x",
        f"warm-path worker spawns:  {sum(report['warm_spawns'])}"
        f" across {len(report['warm_spawns'])} warm requests (must be 0)",
    ]
    return "\n".join(lines)


def _concurrent_table(report: Dict[str, object]) -> str:
    private, concurrent, ratio = (
        report["private"], report["concurrent"], report["ratio"],
    )
    pool = report["pool"]
    lines = [
        f"{CONCURRENT_CLIENTS} clients x {len(GOALS)} cold goals each, "
        f"1 pooled worker, no store",
        f"private (lock + one pool per request): {format_sample(private)}",
        f"concurrent (shared resident pool):     {format_sample(concurrent)}",
        f"aggregate throughput ratio per pair:   mean {ratio.mean:.1f}x,"
        f" 95% CI lower {ratio.ci_low:.1f}x",
        f"pool spawns across all runs: {sum(report['spawns'])}"
        f" ({len(report['spawns'])} requests), interleaved dispatches:"
        f" {pool['interleaves']}, max concurrent sessions:"
        f" {pool['max_concurrent_sessions']}",
    ]
    return "\n".join(lines)


def _tracing_table(report: Dict[str, object]) -> str:
    ratio = report["ratio"]
    lines = [
        f"goals: {', '.join(GOALS)}, warm replays, {TRACE_BATCH} submits/run",
        f"plain (no sink):        {format_sample(report['plain'])} per request",
        f"traced (JSONL sink):    {format_sample(report['traced'])} per request",
        f"plain/traced noise floor: {report['floor_ratio']:.3f}x (>= 0.98 required)",
        f"plain/traced per pair:  mean {ratio.mean:.3f}x (>= 0.95 required),"
        f" 95% CI lower {ratio.ci_low:.3f}x",
        f"store_replay p99: {report['replay_p99'] * 1000.0:.2f} ms"
        f" over {report['replay_count']} replayed goals"
        f" ({report['sink_records']} sink records)",
    ]
    return "\n".join(lines)


def _ablation_table(report: Dict[str, object]) -> str:
    lines = [
        f"goal {ABLATION_GOAL}, per-goal budget {ABLATION_TIMEOUT:.0f}s, "
        f"library lemma: {ABLATION_LEMMA[1]}"
    ]
    for arm in ("assisted", "bare"):
        entry = report[arm]
        detail = f"{entry['status']} in {entry['seconds'] * 1000.0:.0f} ms"
        if arm == "assisted":
            detail += (
                f", {entry['hints_offered']} hint(s) offered,"
                f" {entry['hint_steps']} hint step(s) in the proof"
            )
        elif entry["reason"]:
            detail += f" ({entry['reason']})"
        lines.append(f"{arm:>8}: {detail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------

_WARM_REPORT: Optional[Dict[str, object]] = None
_CONCURRENT_REPORT: Optional[Dict[str, object]] = None


def _warm_report() -> Dict[str, object]:
    global _WARM_REPORT
    if _WARM_REPORT is None:
        _WARM_REPORT = run_warm_vs_cold()
    return _WARM_REPORT


def _concurrent_report() -> Dict[str, object]:
    global _CONCURRENT_REPORT
    if _CONCURRENT_REPORT is None:
        _CONCURRENT_REPORT = run_concurrent_vs_private_pools()
    return _CONCURRENT_REPORT


def test_warm_requests_spawn_zero_workers():
    report = _warm_report()
    assert report["warm_spawns"], "no warm runs were measured"
    assert all(spawns == 0 for spawns in report["warm_spawns"]), report["warm_spawns"]


def test_warm_replay_at_least_10x_faster_ci_lower_bound():
    report = _warm_report()
    print_report("warm daemon vs cold one-shot", _warm_vs_cold_table(report))
    ratio = report["ratio"]
    assert ratio.ci_low >= 10.0, (
        f"warm-path speedup not robustly >= 10x: mean {ratio.mean:.1f}x,"
        f" 95% CI lower bound {ratio.ci_low:.1f}x"
    )


def test_concurrent_clients_at_least_2x_private_pools_ci_lower_bound():
    report = _concurrent_report()
    print_report(
        "4 concurrent clients vs one private pool per request", _concurrent_table(report)
    )
    ratio = report["ratio"]
    assert ratio.ci_low >= 2.0, (
        f"concurrent aggregate throughput not robustly >= 2x one private pool"
        f" per request: mean {ratio.mean:.1f}x, 95% CI lower bound {ratio.ci_low:.1f}x"
    )


def test_concurrent_pool_spawns_once_and_interleaves():
    report = _concurrent_report()
    # One resident worker serves every request of every run; the only spawn
    # is the pool's initial one, during the warmup round.
    assert sum(report["spawns"]) == 1, report["spawns"]
    pool = report["pool"]
    assert pool["interleaves"] >= 1, pool
    assert pool["max_concurrent_sessions"] >= 2, pool


def test_concurrent_warm_replay_workerless_and_byte_identical():
    report = run_concurrent_warm_replay()
    assert report["requests"] == CONCURRENT_CLIENTS
    assert all(spawns == 0 for spawns in report["warm_spawns"]), report
    assert report["byte_identical"], "a concurrent replay mutated a certificate"


def test_tracing_overhead_within_two_percent_envelope():
    report = run_tracing_overhead()
    print_report("tracing overhead on warm replay", _tracing_table(report))
    ratio = report["ratio"]
    assert report["replay_count"] > 0, "no replays were traced"
    assert report["sink_records"] > 0, "the traced arm wrote nothing to its sink"
    # Two-tier gate (see TRACE_REPEATS): the 2% envelope rides on the ratio
    # of noise floors, which isolates the systematic cost on boxes whose
    # pair-to-pair jitter dwarfs 2%; the paired mean still guards, across
    # all pairs including the jittery ones, that tracing cannot have
    # regressed the replay path grossly.
    assert report["floor_ratio"] >= 0.98, (
        f"tracing sink costs more than the 2% envelope on warm replay:"
        f" noise-floor ratio {report['floor_ratio']:.3f}x"
    )
    assert ratio.mean >= 0.95, (
        f"tracing sink regressed warm replay beyond noise:"
        f" paired mean {ratio.mean:.3f}x (95% CI lower {ratio.ci_low:.3f}x)"
    )


def test_library_ablation_reported():
    report = run_library_ablation()
    print_report("lemma library ablation (reported, not asserted)", _ablation_table(report))
    # Evidence, not a gate: budget cliffs move with the machine.  The one
    # structural fact worth pinning is that the assisted arm actually used
    # the library (otherwise the ablation measures nothing).
    assert report["assisted"]["hints_offered"] >= 1


if __name__ == "__main__":
    report = _warm_report()
    print_report("warm daemon vs cold one-shot", _warm_vs_cold_table(report))
    print_report(
        "4 concurrent clients vs one private pool per request",
        _concurrent_table(_concurrent_report()),
    )
    print_report(
        "tracing overhead on warm replay", _tracing_table(run_tracing_overhead())
    )
    print_report(
        "lemma library ablation (reported, not asserted)",
        _ablation_table(run_library_ablation()),
    )
