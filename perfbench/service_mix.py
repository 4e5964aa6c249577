"""Workload ``service-mix``: a ``repro serve`` daemon under a seeded request mix.

The daemon runs as a subprocess with a result store, no lemma library
(lemmas learned from earlier requests would change what later ones search)
and one worker.  One benchmark process sends a fixed, seeded list of one-goal
requests over one connection in a closed loop.  One connection, because a
second one made each replay's latency depend on whether a solve happened to
run beside it: the median verdict then sat where that contention decides it
and spread by a quarter from run to run.

* **replay** (60%): a conjecture of the primed pool, answered from the store;
* **warm** (35%): a freshly α-renamed fast IsaPlanner goal under a new name,
  so a new store key (the store's writes) on the resident theory;
* **cold** (5%): a fast goal over a copy of the prelude whose function
  symbols carry a fresh prefix, so a program no cache has seen.

The list has ``round(seconds * NOMINAL_RATE)`` requests, so the same seed and
length always send the same requests.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from common import (
    EXPECTED_DIR,
    SCRATCH,
    SRC,
    BenchmarkError,
    RunResult,
    SpanRecorder,
    load_json,
    median_setup,
    percentile,
    put_self_times,
    tree_peak_rss_mb,
)
from gate import recheck_certificates
from inputs import alpha_rename_equation, defined_symbols, goal_lines, rename_symbols, symbol_prefix

SHARES = (("replay", 0.60), ("warm", 0.35), ("cold", 0.05))
#: Requests per second of run length (about what one connection sustains).
NOMINAL_RATE = 90
JOBS = 1
SETUP_REPEATS = 3
#: Generous per-goal budget: verdicts must depend on the node budget only.
DAEMON_TIMEOUT = 60.0

#: Metrics reported as 0: semantics is not on this path, and the daemon's term
#: bank and closure internals are out of the benchmark's view.
UNMEASURED = ("semantics.", "falsify_", "core.bank_terms", "sizechange.checks",
              "sizechange.compositions", "sizechange.add_")

#: Daemon trace span name -> layer (phase spans map through PHASE_LAYERS).
SPAN_LAYERS = {"request": "service", "verdict": "service", "queue": "engine",
               "pool-dispatch": "engine", "worker-solve": "search"}
PHASE_LAYERS = {"soundness": "sizechange", "normalise": "rewriting", "match": "core",
                "substitute": "core", "falsify": "semantics", "store": "service"}


class Request:
    __slots__ = ("kind", "name", "equation", "source", "latency", "verdict", "error")

    def __init__(self, kind: str, name: str, equation: str, source: Optional[str]):
        self.kind, self.name, self.equation, self.source = kind, name, equation, source
        self.latency = 0.0
        self.verdict: Dict = {}
        self.error = ""


def make_requests(seed: int, count: int) -> Tuple[List[Request], List[Request]]:
    """(primed pool, request list) for one seed."""
    from repro.benchmarks_data.isaplanner import ISAPLANNER_PROPERTIES_SOURCE
    from repro.benchmarks_data.prelude import PRELUDE_SOURCE

    rng = random.Random(seed)
    fast = load_json(EXPECTED_DIR / "service-mix.json")["fast_goals"]
    goals = goal_lines(ISAPLANNER_PROPERTIES_SOURCE)
    taken = set(ISAPLANNER_PROPERTIES_SOURCE.split()) | set(PRELUDE_SOURCE.split())
    symbols = defined_symbols(PRELUDE_SOURCE)

    def renamed(goal: str) -> str:
        variables, equation = goals[goal]
        return alpha_rename_equation(equation, variables, rng, taken)[0]

    # Every class cycles through its goals in a seeded order, so each goal is
    # submitted equally often whatever the seed: the seed changes names and
    # order, never how much work a run holds.
    pool = [Request("replay", f"r{i}_{goal}", renamed(goal), None)
            for i, goal in enumerate(rng.sample(fast, len(fast)))]
    picks = {kind: _cycle(rng, options) for kind, options in
             (("replay", pool), ("warm", fast), ("cold", fast))}
    kinds: List[str] = []
    for kind, share in SHARES[1:]:
        kinds += [kind] * round(count * share)
    kinds += ["replay"] * (count - len(kinds))
    rng.shuffle(kinds)
    requests: List[Request] = []
    for index, kind in enumerate(kinds):
        pick = next(picks[kind])
        if kind == "replay":
            requests.append(Request(kind, pick.name, pick.equation, None))
        elif kind == "warm":
            requests.append(Request(kind, f"w{index}_{pick}", renamed(pick), None))
        else:
            prefix = symbol_prefix(rng)
            requests.append(Request(
                kind, f"c{index}_{pick}", rename_symbols(renamed(pick), symbols, prefix),
                rename_symbols(PRELUDE_SOURCE, symbols, prefix),
            ))
    return pool, requests


def _cycle(rng: random.Random, options: list) -> Iterator:
    """Endless rounds over ``options``, each round in a fresh seeded order."""
    while True:
        yield from rng.sample(options, len(options))


class Daemon:
    """A ``repro serve`` subprocess with its own store, socket and log."""

    def __init__(self, workdir: Path, traced: bool):
        from repro.service.client import ServiceClient

        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.trace_path = workdir / "trace.jsonl" if traced else None
        command = [sys.executable, "-m", "repro", "serve", "--socket", "s.sock",
                   "--store", "store.jsonl", "--jobs", str(JOBS), "--timeout", str(DAEMON_TIMEOUT)]
        if traced:
            command += ["--trace", "trace.jsonl"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(workdir / "daemon.log", "wb")
        self.process = subprocess.Popen(command, cwd=workdir, env=env,
                                        stdout=self._log, stderr=subprocess.STDOUT)
        # A relative path keeps the socket name short whatever the checkout path.
        self.socket = os.path.relpath(workdir / "s.sock")
        self.client = ServiceClient(self.socket, timeout=120.0, connect_retries=400,
                                    connect_backoff=0.025)
        try:
            self.client.ping()
        except Exception:
            self.stop()
            raise

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:  # noqa: BLE001 - fall through to terminate
                    pass
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
        finally:
            self._log.close()


def _submit(client, request: Request) -> None:
    started = perf_counter()
    if request.source is None:
        outcome = client.submit(suite="isaplanner", conjectures=[(request.name, request.equation)])
    else:
        outcome = client.submit(source=request.source, conjectures=[(request.name, request.equation)])
    request.latency = perf_counter() - started
    request.verdict = outcome.verdicts[0] if outcome.verdicts else {}


def _start_and_prime(workdir: Path, pool: List[Request], traced: bool) -> Daemon:
    daemon = Daemon(workdir, traced)
    try:
        done = daemon.client.submit(
            suite="isaplanner", conjectures=[(r.name, r.equation) for r in pool]
        ).done
    except Exception:
        daemon.stop()
        raise
    if done.get("proved") != len(pool):
        daemon.stop()
        raise BenchmarkError(f"priming the store proved {done.get('proved')} of {len(pool)} goals")
    return daemon


def _drive(daemon: Daemon, requests: List[Request]) -> float:
    """Send the requests one after another; returns the wall they took."""
    started = perf_counter()
    for request in requests:
        try:
            _submit(daemon.client, request)
        except Exception as error:  # noqa: BLE001 - recorded as a failed request
            request.error = f"{type(error).__name__}: {error}"
    return perf_counter() - started


def _measure(seed: int, seconds: float, traced: bool, workdir: Path):
    """Setup (median of SETUP_REPEATS) plus one measured pass of the request list."""
    pool, requests = make_requests(seed, max(1, round(seconds * NOMINAL_RATE)))
    daemons: List[Daemon] = []

    def setup() -> Daemon:
        if daemons:
            daemons.pop().stop()
        daemons.append(_start_and_prime(workdir, pool, traced))
        return daemons[-1]

    try:
        setup_s, daemon = median_setup(setup, SETUP_REPEATS)
        before = daemon.client.metrics()
        wall = _drive(daemon, requests)
        after = daemon.client.metrics()
        rss = tree_peak_rss_mb(daemon.process.pid)
    finally:
        for daemon in daemons:
            daemon.stop()
    return setup_s, requests, wall, before, after, rss, daemon


def run(seed: int, seconds: float, traced: bool) -> RunResult:
    result = RunResult()
    workdir = SCRATCH / f"service-mix-{os.getpid()}"
    try:
        if traced:
            # The untraced pass is the baseline of the tracing overhead.
            plain = _measure(seed, seconds, False, workdir)
            _gate(result, plain[1], False)
        setup_s, requests, wall, before, after, rss, daemon = _measure(seed, seconds, traced, workdir)
        trace = _read_trace(daemon) if traced else []
        store_lines = _read_store(daemon)
        _gate(result, requests, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(SCRATCH)

    latencies = [r.latency * 1000.0 for r in requests if not r.error]
    result.put("setup_s", setup_s, "s")
    result.put("goals_per_s", len(requests) / wall, "1/s")
    result.put("verdict_p50_ms", percentile(latencies, 0.5, "verdict_p50_ms"), "ms")
    result.put("verdict_p90_ms", percentile(latencies, 0.9, "verdict_p90_ms"), "ms")
    result.put("solved", sum(1 for r in requests if r.verdict.get("status") == "proved"), "count")
    result.put("peak_rss_mb", rss, "MB")
    _class_latencies(result, requests)
    if traced:
        plain_wall = plain[2]
        result.put("obs.trace_overhead_share", 1.0 - plain_wall / wall, "share")
        _layer_metrics(result, requests, before, after, trace, store_lines, wall)
    return result


def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:
        pass


def _read_trace(daemon: Daemon) -> List[dict]:
    from repro.obs.export import read_trace

    return read_trace(str(daemon.trace_path))


def _read_store(daemon: Daemon) -> List[dict]:
    import json

    lines = []
    with open(daemon.workdir / "store.jsonl", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                lines.append(json.loads(line))
    return lines


def _gate(result: RunResult, requests: List[Request], traced: bool) -> None:
    """Every request proved, replays from the store, solves not; certificates re-check."""
    from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES

    expected = load_json(EXPECTED_DIR / "service-mix.json")["status"]
    recorder = SpanRecorder()
    if traced:
        from repro.lang import loader
        from repro.proofs import checker

        recorder.wrap(loader, "load_program", "lang")
        recorder.wrap(checker.CertificateChecker, "check", "proofs")
        recorder.wrap(checker, "closure_of", "sizechange")
    with recorder:
        to_check = []
        for request in requests:
            result.attempted += 1
            status = request.verdict.get("status")
            if request.error or status != expected:
                result.fail(f"{request.kind} {request.name}: {request.error or status}")
                continue
            if bool(request.verdict.get("cached")) != (request.kind == "replay"):
                result.fail(f"{request.kind} {request.name}: cached={request.verdict.get('cached')}")
                continue
            source = request.source or SUITE_PROGRAM_SOURCES["isaplanner"]
            to_check.append((source, request.verdict.get("certificate"), request.equation))
        check_times = recheck_certificates(result, to_check)
    result.put("check_p50_ms", percentile(check_times, 0.5, "check_p50_ms") * 1000.0, "ms")
    if traced:
        loads = recorder.durations("loader.load_program")
        checks = recorder.durations("CertificateChecker.check")
        result.put("lang.load_calls", len(loads), "count")
        result.put("lang.load_program_ms", 1000.0 * sum(loads) / max(1, len(loads)), "ms")
        result.put("proofs.check_calls", len(checks), "count")
        result.put("proofs.check_busy_s", sum(checks), "s")
        result.put("sizechange.closure_of_busy_s", sum(recorder.durations("checker.closure_of")), "s")


def _class_latencies(result: RunResult, requests: List[Request]) -> None:
    by_kind: Dict[str, List[float]] = {"replay": [], "warm": [], "cold": []}
    for request in requests:
        if not request.error:
            by_kind[request.kind].append(request.latency * 1000.0)
    result.put("replay_p50_ms", percentile(by_kind["replay"], 0.5, "replay_p50_ms"), "ms")
    result.put("replay_p90_ms", percentile(by_kind["replay"], 0.9, "replay_p90_ms"), "ms")
    result.put("warm_p50_ms", percentile(by_kind["warm"], 0.5, "warm_p50_ms"), "ms")
    result.put("warm_p90_ms", percentile(by_kind["warm"], 0.9, "warm_p90_ms"), "ms")
    result.put("cold_p50_ms", percentile(by_kind["cold"], 0.5, "cold_p50_ms"), "ms")


def _histogram_p50_ms(before: dict, after: dict, op_class: str) -> float:
    """p50 of the daemon's own latency histogram over the measured region only."""
    from repro.obs.histogram import LatencyHistogram

    old = before["op_latency"][op_class]
    new = after["op_latency"][op_class]
    histogram = LatencyHistogram()
    for index, count in new["buckets"].items():
        histogram.counts[int(index)] = count - old["buckets"].get(index, 0)
    histogram.count = new["count"] - old["count"]
    histogram.max = new["max"]
    return histogram.quantile(0.5) * 1000.0


def _layer_metrics(result, requests, before, after, trace, store_lines, wall) -> None:
    def delta(key: str) -> int:
        return int(after[key]) - int(before[key])

    solves = [r for r in requests if r.kind != "replay" and not r.error]
    queued = [float(r.verdict.get("queued_seconds") or 0.0) * 1000.0 for r in solves]
    overhead = [
        (r.latency - float(r.verdict.get("seconds") or 0.0)
         - float(r.verdict.get("queued_seconds") or 0.0)) * 1000.0
        for r in solves if r.kind == "warm"
    ]
    result.put("engine.queued_p50_ms", percentile(queued, 0.5, "engine.queued_p50_ms"), "ms")
    result.put("engine.dispatch_overhead_p50_ms",
               percentile(overhead, 0.5, "engine.dispatch_overhead_p50_ms"), "ms")
    result.put("engine.worker_spawns", delta("worker_spawns"), "count")
    result.put("engine.dispatched_goals", delta("dispatched_goals"), "count")
    for key in ("store_hits", "store_misses", "warm_hits", "warm_misses"):
        result.put(f"service.{key}", delta(key), "count")
    daemon_replay = _histogram_p50_ms(before, after, "store_replay")
    result.put("service.daemon_replay_p50_ms", daemon_replay, "ms")
    result.put("service.daemon_warm_p50_ms", _histogram_p50_ms(before, after, "warm_solve"), "ms")
    result.put("service.daemon_cold_p50_ms", _histogram_p50_ms(before, after, "cold_solve"), "ms")
    result.put("service.transport_p50_ms", result.metrics["replay_p50_ms"][0] - daemon_replay, "ms")

    # Search-side counters of the measured solves, from the store lines they appended.
    measured = [line for line in store_lines
                if str(line.get("goal", "")).split("/")[-1][:1] in ("w", "c")]

    def phase(name: str) -> float:
        return sum(float((line.get("phase_seconds") or {}).get(name, 0.0)) for line in measured)

    def total(key: str) -> float:
        return sum(float(line.get(key) or 0.0) for line in measured)

    solve_s = total("seconds")
    hits, misses = total("normalizer_hits"), total("normalizer_misses")
    compiled, fallback = total("compiled_steps"), total("fallback_steps")
    certificates = [line["certificate"] for line in measured if line.get("certificate")]
    result.put("sizechange.soundness_s", phase("soundness"), "s")
    result.put("sizechange.soundness_share", phase("soundness") / solve_s if solve_s else 0.0, "share")
    result.put("search.nodes", total("nodes"), "count")
    result.put("search.useful_node_share",
               sum(len(c["nodes"]) for c in certificates) / max(1.0, total("nodes")), "share")
    result.put("search.expand_s", phase("expand"), "s")
    result.put("search.case_split_s", phase("case_split"), "s")
    result.put("search.lemma_prefilter_s", phase("lemma_prefilter"), "s")
    result.put("rewriting.normalise_s", phase("normalise"), "s")
    result.put("rewriting.nf_cache_hit_share", hits / max(1.0, hits + misses), "share")
    result.put("rewriting.compile_s", total("compile_seconds"), "s")
    result.put("rewriting.compiled_step_share", compiled / max(1.0, compiled + fallback), "share")
    result.put("core.match_s", phase("match"), "s")
    result.put("core.substitute_s", phase("substitute"), "s")
    result.put("proofs.encode_s", total("certificate_seconds"), "s")

    from repro.proofs.certificate import canonical_json

    result.put("proofs.cert_bytes_mean",
               sum(len(canonical_json(c)) for c in certificates) / max(1, len(certificates)), "B")
    result.put("obs.spans", len(trace), "count")
    put_self_times(result, _trace_self_times(trace), wall)


def _trace_self_times(trace: List[dict]) -> Dict[str, float]:
    """Per-layer self time of the daemon's spans: duration minus child spans."""
    spans = {r["span"]: r for r in trace if r.get("kind") == "span"}
    children: Dict[str, float] = {}
    for record in spans.values():
        parent = record.get("parent")
        if parent in spans:
            children[parent] = children.get(parent, 0.0) + (record["end"] - record["start"])
    totals: Dict[str, float] = {}
    for key, record in spans.items():
        name = str(record["name"])
        if name.startswith("phase:"):
            phase = name[len("phase:"):]
            layer = PHASE_LAYERS.get(phase, "search")
        else:
            layer = SPAN_LAYERS.get(name, "service")
        own = (record["end"] - record["start"]) - children.get(key, 0.0)
        totals[layer] = totals.get(layer, 0.0) + max(0.0, own)
    return totals
