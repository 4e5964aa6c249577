"""Tests for the observability layer: spans, histograms, export, and the
tracing threaded through the proof service (PR 10).

The end-to-end tests drive the in-process service core with tracing to a
JSONL sink and then read the file back exactly as ``repro trace`` would —
the span *tree* (a request's queue, pool-dispatch → worker-solve and verdict
spans) is asserted from the file, not from internals, because the file is the
contract.
"""

import json
import threading

import pytest

from repro import cli
from repro.harness.report import phase_profile_table, service_summary_table
from repro.harness.runner import SolveRecord, SuiteResult
from repro.obs.export import chrome_trace, read_trace, slow_goals, summarise
from repro.obs.histogram import BUCKET_BOUNDS, OP_CLASSES, LatencyHistogram
from repro.obs.trace import TraceSink, Tracer, mint_trace_id, span_record
from repro.service.client import ServiceProtocolError, SubmitOutcome
from repro.service.server import ProofService, ServiceConfig


def make_service(tmp_path, **overrides) -> ProofService:
    config = ServiceConfig(
        store_path=str(tmp_path / "store.jsonl"),
        library_path=str(tmp_path / "library.jsonl"),
        timeout=3.0,
        jobs=1,
        trace_path=str(tmp_path / "trace.jsonl"),
    )
    for name, value in overrides.items():
        setattr(config, name, value)
    return ProofService(config)


def submit(service: ProofService, **request):
    events = []
    service.handle_request(dict({"op": "submit"}, **request), events.append)
    return events


def done_line(events) -> dict:
    terminal = [e for e in events if e.get("op") in ("done", "error")]
    assert terminal, f"no terminal line in {events}"
    return terminal[-1]


def verdict_lines(events):
    return [e for e in events if e.get("op") == "verdict"]


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def test_histogram_percentiles_track_the_population():
    histogram = LatencyHistogram()
    for ms in range(1, 101):  # 1ms .. 100ms
        histogram.record(ms / 1000.0)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 100
    assert snapshot["max"] == pytest.approx(0.1)
    # Log-spaced buckets are within 2x; check the right order of magnitude.
    assert 0.02 <= snapshot["p50"] <= 0.11
    assert snapshot["p95"] >= snapshot["p50"]
    assert snapshot["p99"] >= snapshot["p95"]
    assert snapshot["p99"] <= snapshot["max"]


def test_histogram_empty_and_overflow_behave():
    histogram = LatencyHistogram()
    assert histogram.snapshot()["p99"] == 0.0
    histogram.record(BUCKET_BOUNDS[-1] * 10)  # past every finite bucket
    assert histogram.overflow == 1
    assert histogram.quantile(0.5) == pytest.approx(BUCKET_BOUNDS[-1] * 10)


# ---------------------------------------------------------------------------
# tracer + sink
# ---------------------------------------------------------------------------


def test_tracer_ring_span_and_event():
    tracer = Tracer(ring_capacity=16)
    trace = mint_trace_id()
    with tracer.span("request", trace, attrs={"client": "t"}) as record:
        record["attrs"]["extra"] = 1
    tracer.event("worker-crash", trace, attrs={"exit_code": 23})
    spans = tracer.recent(trace=trace, name="request")
    assert len(spans) == 1
    assert spans[0]["end"] >= spans[0]["start"]
    assert spans[0]["attrs"] == {"client": "t", "extra": 1}
    events = tracer.recent(trace=trace, name="worker-crash")
    assert events[0]["kind"] == "event"


def test_sink_rotation_keeps_disk_bounded(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = TraceSink(str(path), max_bytes=65536)  # floor: the minimum bound
    record = span_record("filler", mint_trace_id(), attrs={"pad": "x" * 200})
    for _ in range(600):  # ~ 3x the bound
        sink.write(record)
    sink.close()
    assert path.exists() and (tmp_path / "trace.jsonl.1").exists()
    assert path.stat().st_size < 65536 * 2
    # Both generations read back, rotated first.
    assert len(read_trace(str(path))) > 100


def test_read_trace_skips_torn_and_foreign_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    good = json.dumps(span_record("request", mint_trace_id()))
    path.write_text(good + "\n" + '{"torn": ' + "\n" + "not json\n" + good + "\n")
    assert len(read_trace(str(path))) == 2
    with pytest.raises(FileNotFoundError):
        read_trace(str(tmp_path / "missing.jsonl"))


# ---------------------------------------------------------------------------
# the end-to-end span chain
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_client_trace(tmp_path_factory):
    """Two clients' cold submits on one traced service: (responses, records)."""
    tmp_path = tmp_path_factory.mktemp("two-client-trace")
    service = make_service(tmp_path, jobs=2)
    results = {}

    def run(client: str, goal: str) -> None:
        results[client] = submit(
            service, suite="isaplanner", goals=[goal], client=client
        )

    with service:
        threads = [
            threading.Thread(target=run, args=("alice", "prop_01")),
            threading.Thread(target=run, args=("bob", "prop_22")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return results, read_trace(str(tmp_path / "trace.jsonl"))


def test_concurrent_clients_trace_complete_span_chains(two_client_trace):
    results, records = two_client_trace
    for client, goal in (("alice", "prop_01"), ("bob", "prop_22")):
        done = done_line(results[client])
        assert done["op"] == "done" and done["trace"]

    by_span = {r["span"]: r for r in records if r["kind"] == "span"}
    # For every cold goal: the full chain with one consistent trace id.
    solves = [r for r in records if r["name"] == "worker-solve"]
    assert len(solves) == 2
    for solve in solves:
        dispatch = by_span[solve["parent"]]
        request = by_span[dispatch["parent"]]
        # queue is dispatch's sibling under the request: the wait that ends
        # where dispatch begins.
        queue = next(
            r
            for r in records
            if r["name"] == "queue"
            and r["parent"] == request["span"]
            and r["attrs"]["goal"] == dispatch["attrs"]["goal"]
        )
        verdict = next(
            r
            for r in records
            if r["name"] == "verdict"
            and r["trace"] == solve["trace"]
            and r["attrs"]["goal"] in solve["attrs"]["goal"]
        )
        assert dispatch["name"] == "pool-dispatch"
        assert request["name"] == "request"
        assert queue["end"] == dispatch["start"]
        assert verdict["parent"] == request["span"]
        assert (
            {solve["trace"], dispatch["trace"], queue["trace"], request["trace"]}
            == {solve["trace"]}
        )
        # Whichever request arrived second may find the theory already warm.
        assert verdict["op_class"] in ("cold_solve", "warm_solve")
    # The two requests traced independently.
    assert len({s["trace"] for s in solves}) == 2
    # Phase spans parent onto the worker-solve span.
    phases = [r for r in records if r["name"].startswith("phase:")]
    assert phases and all(by_span[p["parent"]]["name"] == "worker-solve" for p in phases)

    # The export is valid Chrome trace-event JSON.
    payload = json.loads(json.dumps(chrome_trace(records)))
    assert payload["traceEvents"]
    assert {e["ph"] for e in payload["traceEvents"]} <= {"X", "i", "M"}
    complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert all("dur" in e and e["ts"] >= 0 for e in complete)


def test_every_span_lies_inside_its_parent(two_client_trace):
    """Self time is a span minus its direct children, so a child that runs
    outside its parent is counted twice (once in each)."""
    _, records = two_client_trace
    spans = {r["span"]: r for r in records if r["kind"] == "span"}
    children = [r for r in spans.values() if r["parent"]]
    assert children
    for child in children:
        parent = spans[child["parent"]]
        assert parent["start"] <= child["start"] <= child["end"] <= parent["end"], (
            child["name"], parent["name"]
        )


def test_verdict_lines_attribute_queue_wait_separately(tmp_path):
    with make_service(tmp_path) as service:
        cold = verdict_lines(submit(service, suite="isaplanner", goals=["prop_01"]))[0]
        assert cold["cached"] is False
        assert cold["queued_seconds"] >= 0.0
        assert cold["queued_seconds"] <= cold["seconds"] + 3.0
        replay = verdict_lines(submit(service, suite="isaplanner", goals=["prop_01"]))[0]
        assert replay["cached"] is True
        # A replayed goal waited for nothing: the historical queue wait of the
        # original solve must not leak out of the store.
        assert replay["queued_seconds"] == 0.0


def test_done_and_error_lines_carry_the_trace_id(tmp_path):
    with make_service(tmp_path) as service:
        done = done_line(submit(service, suite="isaplanner", goals=["prop_01"]))
        assert len(done["trace"]) == 16
        error = done_line(submit(service, suite="no-such-theory"))
        assert error["op"] == "error"
        assert len(error["trace"]) == 16
        assert error["trace"] != done["trace"]


def test_rejected_goals_land_in_the_rejected_op_class(tmp_path):
    with make_service(tmp_path, client_max_inflight=1) as service:
        events = submit(service, suite="isaplanner", goals=["prop_01", "prop_22"])
        rejected = [v for v in verdict_lines(events) if v["status"] == "rejected"]
        assert len(rejected) == 1
        assert rejected[0]["queued_seconds"] == 0.0
        assert rejected[0]["trace"] == done_line(events)["trace"]
        snapshot = service.metrics_snapshot()
    assert snapshot["op_latency"]["rejected"]["count"] == 1
    assert snapshot["op_latency"]["cold_solve"]["count"] == 1


def test_pure_replay_requests_are_head_sampled_into_the_sink(tmp_path):
    from repro.service.server import REPLAY_SINK_SAMPLE

    with make_service(tmp_path) as service:
        submit(service, suite="isaplanner", goals=["prop_01"])  # cold: persists
        for _ in range(REPLAY_SINK_SAMPLE + 1):  # pure replays 0..N inclusive
            submit(service, suite="isaplanner", goals=["prop_01"])
        # The ring and the histograms see everything...
        assert (
            service.metrics_snapshot()["op_latency"]["store_replay"]["count"]
            == REPLAY_SINK_SAMPLE + 1
        )
        assert (
            len(service.tracer.recent(name="request")) == REPLAY_SINK_SAMPLE + 2
        )
    # ...but the sink only keeps the cold request plus the sampled replays
    # (the first and the REPLAY_SINK_SAMPLE-th).
    records = read_trace(str(tmp_path / "trace.jsonl"))
    assert len([r for r in records if r["name"] == "request"]) == 3
    replay_verdicts = [r for r in records if r["op_class"] == "store_replay"]
    assert len(replay_verdicts) == 2


def test_op_latency_histograms_cover_every_class_contract(tmp_path):
    with make_service(tmp_path) as service:
        snapshot = service.metrics_snapshot()
    assert set(snapshot["op_latency"]) == set(OP_CLASSES)


# ---------------------------------------------------------------------------
# trace continuity across a worker crash (satellite)
# ---------------------------------------------------------------------------


def test_trace_continuity_across_worker_crash_and_respawn(tmp_path):
    with make_service(
        tmp_path, worker_hook="engine_hooks:crash_on_prop_11"
    ) as service:
        events = submit(
            service, suite="isaplanner", goals=["prop_11", "prop_01"]
        )
        done = done_line(events)
        trace = done["trace"]
        crashed = next(v for v in verdict_lines(events) if v["goal"] == "prop_11")
        assert "worker crashed" in crashed.get("reason", "")
        survived = next(v for v in verdict_lines(events) if v["goal"] == "prop_01")
        assert survived["status"] == "proved"

    records = read_trace(str(tmp_path / "trace.jsonl"))
    crash_events = [r for r in records if r["name"] == "worker-crash"]
    assert len(crash_events) == 1
    assert crash_events[0]["trace"] == trace
    assert crash_events[0]["attrs"]["exit_code"] == 23
    assert crash_events[0]["attrs"]["goal"] == "isaplanner/prop_11"
    # The respawned worker's solve spans carry the same request trace id.
    respawned_solves = [
        r
        for r in records
        if r["name"] == "worker-solve" and r["attrs"]["goal"] == "isaplanner/prop_01"
    ]
    assert respawned_solves and all(r["trace"] == trace for r in respawned_solves)
    # The crashed goal still settled its queue span under the same trace.
    crashed_queues = [
        r
        for r in records
        if r["name"] == "queue" and r["attrs"]["goal"] == "isaplanner/prop_11"
    ]
    assert crashed_queues and all(r["trace"] == trace for r in crashed_queues)


# ---------------------------------------------------------------------------
# client-side surfacing
# ---------------------------------------------------------------------------


def test_service_protocol_error_appends_daemon_trace():
    error = ServiceProtocolError("bad request", trace="cafe0123cafe0123")
    assert "bad request [daemon trace cafe0123cafe0123]" in str(error)
    assert error.trace == "cafe0123cafe0123"
    plain = ServiceProtocolError("no trace here")
    assert plain.trace == "" and "[daemon trace" not in str(plain)


def test_submit_outcome_exposes_trace():
    assert SubmitOutcome(done={"trace": "abc"}).trace == "abc"
    assert SubmitOutcome(done={}).trace == ""  # pre-trace daemons


# ---------------------------------------------------------------------------
# report tables (explicit no-data degrade)
# ---------------------------------------------------------------------------


def test_service_summary_table_renders_op_latency_rows(tmp_path):
    with make_service(tmp_path) as service:
        submit(service, suite="isaplanner", goals=["prop_01"])
        table = service_summary_table(service.metrics_snapshot())
    assert "goal latency (cold solve)" in table
    assert "goal latency (store replay)" in table
    assert "p95" in table


def test_service_summary_table_degrades_without_op_latency():
    # A snapshot from a daemon predating per-op tracing: explicit row, no KeyError.
    table = service_summary_table({"requests": 3, "goals": 5})
    assert "goal latency (per op class)" in table
    assert "(no data: snapshot predates per-op tracing)" in table


def test_phase_profile_table_renders_explicit_no_data_row():
    result = SuiteResult(suite="mixed")
    result.records.append(
        SolveRecord(
            name="new", suite="mixed", status="proved",
            phase_seconds={"normalise": 0.2}, phase_counts={"normalise": 4},
        )
    )
    result.records.append(
        SolveRecord(name="old", suite="mixed", status="proved")  # pre-trace line
    )
    table = phase_profile_table(result)
    assert "(no phase data)" in table
    assert "1 record(s)" in table
    assert "profiled records: 1/2" in table


# ---------------------------------------------------------------------------
# the trace CLI
# ---------------------------------------------------------------------------


def test_trace_cli_summary_export_and_slow(tmp_path, capsys):
    with make_service(tmp_path) as service:
        submit(service, suite="isaplanner", goals=["prop_01"])
    path = str(tmp_path / "trace.jsonl")

    assert cli.main(["trace", "summary", path]) == 0
    out = capsys.readouterr().out
    assert "op class cold_solve: 1 span(s)" in out
    assert "worker-solve" in out

    exported = str(tmp_path / "chrome.json")
    assert cli.main(["trace", "export", path, "--out", exported]) == 0
    capsys.readouterr()
    with open(exported, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["traceEvents"] and payload["displayTimeUnit"] == "ms"

    assert cli.main(["trace", "slow", path, "--threshold", "0.0"]) == 0
    out = capsys.readouterr().out
    assert "isaplanner/prop_01" in out

    assert cli.main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2


def test_slow_goals_attributes_queue_vs_solve():
    trace = mint_trace_id()
    records = [
        span_record("queue", trace, start=100.0, end=100.5, attrs={"goal": "s/g"}),
        span_record(
            "worker-solve", trace, start=100.5, end=102.0,
            attrs={"goal": "s/g", "status": "proved"},
        ),
    ]
    rows = slow_goals(records, threshold=1.0)
    assert len(rows) == 1
    assert rows[0]["queued_seconds"] == pytest.approx(0.5)
    assert rows[0]["solve_seconds"] == pytest.approx(1.5)
    assert rows[0]["status"] == "proved"
    assert slow_goals(records, threshold=10.0) == []


def test_summarise_counts_spans_events_and_traces():
    trace = mint_trace_id()
    records = [
        span_record("request", trace, op_class="", start=1.0, end=2.0),
        span_record("verdict", trace, op_class="cold_solve", start=1.5, end=1.6),
    ]
    summary = summarise(records)
    assert summary["spans"] == 2 and summary["traces"] == 1
    assert summary["op_classes"]["cold_solve"]["count"] == 1
    assert summary["names"]["request"]["max"] == pytest.approx(1.0)
