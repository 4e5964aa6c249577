"""Report formatting: paper-vs-measured tables and ASCII versions of Fig. 7.

These functions are used by the benchmark modules and the example scripts to
print the same rows/series the paper reports, next to the values measured on
the current machine.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..benchmarks_data.registry import PAPER_REPORTED
from .runner import SuiteResult, cumulative_curve

__all__ = [
    "format_table",
    "isaplanner_summary_table",
    "tool_comparison_table",
    "ascii_cumulative_plot",
    "unsolved_classification",
    "normalizer_cache_table",
    "suite_cache_stats",
    "service_summary_table",
    "worker_utilisation_table",
    "portfolio_winner_table",
    "strategy_summary_table",
    "phase_profile_table",
    "hot_symbol_table",
    "proof_size_table",
    "check_time_table",
    "counterexample_table",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    separator = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), separator] + [line(row) for row in rows])


def isaplanner_summary_table(result: SuiteResult) -> str:
    """The Section 6.1 headline numbers, paper vs measured."""
    summary = result.summary()
    rows = [
        ("problems in suite", PAPER_REPORTED["isaplanner_total"], summary["total"]),
        ("solved", PAPER_REPORTED["isaplanner_solved"], summary["solved"]),
        (
            "solved in < 100 ms",
            PAPER_REPORTED["isaplanner_solved_under_100ms"],
            summary["solved_under_100ms"],
        ),
        (
            "average time over solved (ms)",
            PAPER_REPORTED["isaplanner_average_ms"],
            summary["average_solved_ms"],
        ),
        (
            "conditional (out of scope)",
            PAPER_REPORTED["isaplanner_conditional_out_of_scope"],
            summary["out_of_scope"],
        ),
        # The paper folds timeouts into "unsolved"; the harness reports them
        # separately since the timeout status split.
        ("timed out (wall-clock budget)", "-", summary["timeout"]),
    ]
    return format_table(("metric", "paper", "measured"), rows)


def tool_comparison_table(measured_solved: int) -> str:
    """The Section 6.2 comparison of solved counts across tools.

    All numbers other than this reproduction's are literature values, exactly as
    in the paper ("as reported by [14, 53]").
    """
    comparison: Dict[str, int] = dict(PAPER_REPORTED["tool_comparison"])  # type: ignore[arg-type]
    rows: List[Tuple[str, object]] = sorted(
        comparison.items(), key=lambda item: -int(item[1])
    )
    rows.append(("CycleQ (this reproduction)", measured_solved))
    return format_table(("tool", "problems solved"), rows)


def ascii_cumulative_plot(result: SuiteResult, width: int = 60, height: int = 15) -> str:
    """An ASCII rendering of the Fig. 7 cumulative solved-vs-time curve.

    The x axis is log-scaled time in milliseconds (as in the paper's figure),
    the y axis the number of problems solved within that time.
    """
    import math

    curve = cumulative_curve(result)
    if not curve:
        return "(no problems solved)"
    max_count = curve[-1][1]
    min_time = max(min(t for t, _ in curve), 1e-3)
    max_time = max(t for t, _ in curve)
    span = math.log10(max_time / min_time) if max_time > min_time else 1.0
    grid = [[" "] * width for _ in range(height)]
    for t, count in curve:
        x = int((math.log10(max(t, min_time) / min_time) / span) * (width - 1)) if span else 0
        y = int((count / max_count) * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = ["".join(row) for row in grid]
    lines.append("-" * width)
    lines.append(
        f"time: {min_time:.2f} ms .. {max_time:.2f} ms (log scale), "
        f"solved: {max_count}/{result.total}"
    )
    return "\n".join(lines)


def normalizer_cache_table(*labelled_stats: Tuple[str, Dict[str, int]]) -> str:
    """Normal-form cache effectiveness, one row per labelled stats dict.

    Each stats dict needs ``hits`` and ``misses`` keys (``size``/``steps`` are
    shown when present) — i.e. exactly what
    :meth:`repro.rewriting.reduction.Normalizer.cache_stats` returns, or what a
    :class:`~repro.harness.runner.SuiteResult` aggregates via
    :func:`suite_cache_stats`.  With hash-consed terms every hit replaces a
    full normalisation by one integer-keyed dict probe, so the hit rate is the
    direct measure of whether sharing is paying off.
    """
    rows = []
    for label, stats in labelled_stats:
        hits = int(stats.get("hits", 0))
        misses = int(stats.get("misses", 0))
        lookups = hits + misses
        rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "n/a"
        rows.append(
            (
                label,
                lookups,
                hits,
                misses,
                rate,
                stats.get("size", "-"),
                stats.get("steps", "-"),
            )
        )
    headers = ("workload", "lookups", "hits", "misses", "hit rate", "cached NFs", "rewrite steps")
    return format_table(headers, rows)


def suite_cache_stats(result: SuiteResult) -> Dict[str, int]:
    """Aggregate the per-problem normal-form cache counters of a suite run."""
    return {
        "hits": sum(r.normalizer_hits for r in result.records),
        "misses": sum(r.normalizer_misses for r in result.records),
    }


def unsolved_classification(result: SuiteResult, hinted: Optional[Dict[str, str]] = None) -> str:
    """The Section 6.2 classification of unsolved problems.

    Problems are split into: out of scope (conditional), requiring a lemma hint
    (the paper's props 47/54/65/69), and other failures.
    """
    hinted = hinted or dict(PAPER_REPORTED["hinted_properties"])  # type: ignore[arg-type]
    rows = []
    for record in result.records:
        if record.proved:
            continue
        if record.disproved:
            category = "disproved (ground counterexample)"
        elif record.status == "out-of-scope":
            category = "conditional (out of scope)"
        elif record.name in hinted:
            category = f"needs lemma: {hinted[record.name]}"
        elif record.status == "timeout":
            category = "timed out (wall-clock budget)"
        else:
            category = "needs conditional reasoning or a lemma"
        rows.append((record.name, category))
    return format_table(("problem", "classification"), rows)


def service_summary_table(metrics: Dict[str, object]) -> str:
    """Render a proof-service metrics snapshot (``repro submit --metrics``).

    Takes the primitive dict produced by
    :meth:`repro.service.server.ServiceMetrics.snapshot` — the service ships
    metrics over the wire as JSON, so this consumes plain data, never live
    objects.
    """
    def count(name: str) -> int:
        return int(metrics.get(name) or 0)

    def rate(hits: int, misses: int) -> str:
        total = hits + misses
        if not total:
            return f"{hits}/0"
        return f"{hits}/{total} ({hits / total * 100.0:.0f}%)"

    rows = [
        ("requests", count("requests")),
        ("goals submitted", count("goals")),
        ("store hits", rate(count("store_hits"), count("store_misses"))),
        ("warm-state hits", rate(count("warm_hits"), count("warm_misses"))),
        ("warm-state evictions", count("warm_evictions")),
        ("library lemmas held", count("library_lemmas")),
        ("library lemmas rejected (bad certificate)", count("library_rejected")),
        ("library hints offered", count("library_hints_offered")),
        ("library hints used in proofs", count("library_hints_used")),
        ("library-assisted goals", count("library_assisted_goals")),
        ("goals dispatched to workers", count("dispatched_goals")),
        ("worker processes spawned", count("worker_spawns")),
        ("goals rejected (client budget)", count("rejected_goals")),
        ("theories prewarmed at startup", count("prewarmed_theories")),
        ("worker pool size", count("pool_size")),
        ("queue depth", count("queue_depth")),
        ("goals in flight", count("inflight_goals")),
        ("active client sessions", f"{count('active_sessions')}"
         f" (max concurrent {count('max_concurrent_sessions')})"),
        ("interleaved dispatches (fairness)", count("interleaved_dispatches")),
        ("request errors", count("errors")),
    ]

    def histogram(snapshot: object) -> str:
        if not isinstance(snapshot, dict):
            return "(no data)"
        n = int(snapshot.get("count") or 0)
        if not n:
            return "-"
        return (
            f"p50 {float(snapshot.get('p50') or 0.0) * 1000.0:.2f} ms, "
            f"p95 {float(snapshot.get('p95') or 0.0) * 1000.0:.2f} ms, "
            f"p99 {float(snapshot.get('p99') or 0.0) * 1000.0:.2f} ms, "
            f"max {float(snapshot.get('max') or 0.0) * 1000.0:.2f} ms (n={n})"
        )

    op_latency = metrics.get("op_latency")
    if isinstance(op_latency, dict) and op_latency:
        known = ("store_replay", "warm_solve", "cold_solve", "rejected")
        for op_class in known:
            if op_class in op_latency:
                rows.append(
                    (
                        f"goal latency ({op_class.replace('_', ' ')})",
                        histogram(op_latency[op_class]),
                    )
                )
        for op_class in sorted(set(op_latency) - set(known)):
            rows.append(
                (f"goal latency ({op_class})", histogram(op_latency[op_class]))
            )
    else:
        # Explicit degrade (PR 8 convention): a snapshot from a daemon that
        # predates per-op tracing says so instead of silently omitting rows.
        rows.append(
            (
                "goal latency (per op class)",
                "(no data: snapshot predates per-op tracing)",
            )
        )
    clients = metrics.get("clients")
    if isinstance(clients, dict):
        for name in sorted(clients):
            counters = clients[name] or {}
            rows.append((
                f"client {name}",
                f"{int(counters.get('requests') or 0)} request(s), "
                f"{int(counters.get('served_goals') or 0)} goal(s) served, "
                f"{int(counters.get('rejected_goals') or 0)} rejected",
            ))
    uptime = float(metrics.get("uptime_seconds") or 0.0)
    if uptime:
        rows.append(("uptime (s)", f"{uptime:.1f}"))
    return format_table(("metric", "value"), rows)


def worker_utilisation_table(result: SuiteResult, wall_seconds: Optional[float] = None) -> str:
    """Per-worker utilisation of a parallel run.

    Prefers the scheduler's own counters (every task the worker touched,
    including portfolio losers) when the result carries its engine; otherwise
    falls back to the winning records' ``worker``/``seconds`` fields.  Store
    replays never occupied a worker and are shown as one ``(store)`` row.
    """
    engine = getattr(result, "engine", None)
    if wall_seconds is None and engine is not None:
        wall_seconds = engine.wall_seconds
    per_worker: Dict[int, Dict[str, float]] = {}
    if engine is not None and engine.worker_stats:
        for slot, stats in engine.worker_stats.items():
            per_worker[slot] = {
                "tasks": int(stats.get("tasks", 0)),
                "busy": float(stats.get("busy_seconds", 0.0)),
                "respawns": int(stats.get("respawns", 0)),
            }
    else:
        for record in result.records:
            if record.worker < 0:
                continue
            stats = per_worker.setdefault(record.worker, {"tasks": 0, "busy": 0.0, "respawns": 0})
            stats["tasks"] += 1
            stats["busy"] += record.seconds
    total_busy = sum(stats["busy"] for stats in per_worker.values())
    rows: List[Tuple[object, ...]] = []
    for slot in sorted(per_worker):
        stats = per_worker[slot]
        share = f"{100.0 * stats['busy'] / total_busy:.1f}%" if total_busy else "n/a"
        utilisation = (
            f"{100.0 * stats['busy'] / wall_seconds:.1f}%"
            if wall_seconds
            else "n/a"
        )
        rows.append(
            (f"worker {slot}", int(stats["tasks"]), f"{stats['busy']:.3f}",
             share, utilisation, int(stats["respawns"]))
        )
    cached = [r for r in result.records if r.cached]
    if cached:
        rows.append(("(store)", len(cached), "0.000", "-", "-", 0))
    if not rows:
        return "(serial run: no worker data)"
    headers = ("worker", "tasks", "busy s", "busy share", "utilisation", "respawns")
    table = format_table(headers, rows)
    if wall_seconds:
        table += f"\nwall-clock: {wall_seconds:.3f} s"
    return table


def portfolio_winner_table(result: SuiteResult) -> str:
    """Which portfolio variant won each solved goal, and per-variant totals.

    Since the strategy split a variant may differ by search *algorithm* rather
    than knob values; the winning variant's strategy is reported alongside, so
    a ``strategy-race`` run reads directly as a strategy comparison.
    """
    by_variant: Dict[str, List] = {}
    for record in result.records:
        if record.proved and record.variant:
            by_variant.setdefault(record.variant, []).append(record)
    if not by_variant:
        return "(no proofs, or no portfolio data)"
    rows = []
    for variant in sorted(by_variant, key=lambda v: (-len(by_variant[v]), v)):
        winners = by_variant[variant]
        strategies = sorted({r.strategy for r in winners if r.strategy}) or ["-"]
        names = [r.name for r in winners]
        shown = ", ".join(names[:6]) + (f", … (+{len(names) - 6})" if len(names) > 6 else "")
        rows.append((variant, "/".join(strategies), len(winners), shown))
    return format_table(("variant", "strategy", "wins", "goals"), rows)


def proof_size_table(result: SuiteResult, limit: Optional[int] = 20) -> str:
    """Per-goal certificate sizes of an ``emit_proofs`` run, largest first.

    One row per proved record carrying a certificate: proof vertices, distinct
    (shared) term-table entries, canonical JSON bytes, and the encoding cost —
    the emit overhead relative to the solve time is what
    ``benchmarks/bench_certificates.py`` bounds.  A trailing totals row
    aggregates the whole suite.
    """
    rows: List[Tuple[object, ...]] = []
    certified = [r for r in result.records if r.proved and r.certificate]
    if not certified:
        return "(no certificates: run with emit_proofs / --emit-proofs)"
    from ..proofs.certificate import canonical_json

    def size_of(record) -> Tuple[int, int, int]:
        cert = record.certificate or {}
        payload = canonical_json(cert)
        return len(cert.get("nodes", ())), len(cert.get("terms", ())), len(payload)

    sized = sorted(
        ((record, *size_of(record)) for record in certified),
        key=lambda item: -item[3],
    )
    shown = sized if limit is None else sized[:limit]
    for record, nodes, terms, nbytes in shown:
        rows.append(
            (record.name, nodes, terms, nbytes, f"{record.certificate_seconds * 1000:.2f}",
             f"{record.milliseconds:.1f}")
        )
    if limit is not None and len(sized) > limit:
        rows.append((f"… (+{len(sized) - limit} more)", "", "", "", "", ""))
    rows.append(
        (
            "total",
            sum(n for _, n, _, _ in sized),
            sum(t for _, _, t, _ in sized),
            sum(b for _, _, _, b in sized),
            f"{sum(r.certificate_seconds for r in certified) * 1000:.2f}",
            f"{sum(r.milliseconds for r in certified):.1f}",
        )
    )
    headers = ("goal", "proof vertices", "shared terms", "bytes", "encode ms", "solve ms")
    return format_table(headers, rows)


def check_time_table(rows: Sequence[Dict[str, object]]) -> str:
    """The ``python -m repro check`` result table.

    Each row dict describes one checked certificate: ``goal``, ``status``
    (``verified``/``REJECTED``/``no certificate``/…), ``nodes``, ``bytes``,
    ``seconds`` (check time), and an optional ``detail`` (first issue).
    """
    if not rows:
        return "(nothing to check)"
    rendered = []
    for row in rows:
        seconds = row.get("seconds")
        rendered.append(
            (
                row.get("goal", ""),
                row.get("status", ""),
                row.get("nodes", ""),
                row.get("bytes", ""),
                f"{float(seconds) * 1000:.1f}" if isinstance(seconds, (int, float)) else "-",
                str(row.get("detail", ""))[:80],
            )
        )
    headers = ("goal", "status", "vertices", "bytes", "check ms", "detail")
    return format_table(headers, rendered)


def counterexample_table(result: SuiteResult, max_width: int = 60) -> str:
    """Per-goal refutations of a falsifying run.

    One row per ``disproved`` record: the witness bindings, the evaluated
    values both sides computed to, how many instances were examined before the
    witness, and the falsification time.  Counterexamples are stored as
    primitive dicts (:meth:`repro.semantics.falsify.Counterexample.to_dict`),
    so this renders straight from records *or* store replays.
    """
    disproved = [r for r in result.records if r.disproved]
    if not disproved:
        return "(no goals disproved)"

    def clip(text: str) -> str:
        return text if len(text) <= max_width else text[: max_width - 1] + "…"

    rows = []
    for record in disproved:
        cex = record.counterexample or {}
        bindings = cex.get("bindings", {})
        witness = ", ".join(f"{name} = {value}" for name, value in sorted(bindings.items()))
        rows.append(
            (
                record.name,
                clip(witness),
                clip(str(cex.get("lhs_value", ""))),
                clip(str(cex.get("rhs_value", ""))),
                cex.get("instances_tested", ""),
                f"{record.falsify_seconds * 1000:.2f}" if record.falsify_seconds else "-",
            )
        )
    headers = ("goal", "witness", "lhs value", "rhs value", "tested", "falsify ms")
    return format_table(headers, rows)


def phase_profile_table(result: SuiteResult) -> str:
    """Where the prover's wall-clock actually went, ranked by exclusive time.

    Aggregates the per-record ``phase_seconds``/``phase_counts`` dicts written
    by :class:`repro.search.phases.PhaseClock` — exclusive accounting, so the
    shares sum to 100% of the *accounted* time rather than double-counting
    nested phases.  This is the table behind ``python -m repro profile``; it is
    how this codebase discovered that the size-change soundness closure, not
    rewriting, dominated end-to-end time.  Records replayed from store lines
    that predate the profiler carry no phase data and degrade to an explicit
    ``(no phase data)`` row plus a trailing note (never a ``KeyError``, never
    a silent omission); a result with no phase data at all renders a one-line
    placeholder.
    """
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    profiled = 0
    attempted = 0
    for record in result.records:
        if record.status == "out-of-scope":
            continue
        attempted += 1
        if record.phase_seconds:
            profiled += 1
        for phase, seconds in record.phase_seconds.items():
            totals[phase] = totals.get(phase, 0.0) + float(seconds)
        for phase, entries in (record.phase_counts or {}).items():
            counts[phase] = counts.get(phase, 0) + int(entries)
    if not totals:
        return "(no phase data: records predate the phase profiler)"
    accounted = sum(totals.values())
    rows: List[Tuple[object, ...]] = []
    for phase, seconds in sorted(totals.items(), key=lambda item: (-item[1], item[0])):
        entries = counts.get(phase, 0)
        share = f"{100.0 * seconds / accounted:.1f}%" if accounted else "-"
        per_entry = f"{seconds / entries * 1e6:.2f}" if entries else "-"
        rows.append((phase, f"{seconds:.3f}", share, entries or "-", per_entry))
    if profiled < attempted:
        # A mixed result (store lines from before and after the profiler)
        # gets an explicit in-table row for the unprofiled remainder, not a
        # silent omission — the same degrade convention as the service table.
        rows.append(
            (
                "(no phase data)",
                "-",
                "-",
                f"{attempted - profiled} record(s)",
                "-",
            )
        )
    rows.append(("total accounted", f"{accounted:.3f}", "100.0%", "-", "-"))
    table = format_table(("phase", "seconds", "share", "entries", "µs/entry"), rows)
    if profiled < attempted:
        table += (
            f"\nprofiled records: {profiled}/{attempted} "
            "(the rest were replayed from a pre-profiler store)"
        )
    return table


def hot_symbol_table(result: SuiteResult, top: int = 12) -> str:
    """The hottest head symbols of a suite run, ranked by rewrite steps.

    One row per head symbol, aggregated across records from the
    ``hot_symbols`` counters the normaliser threads up — the
    per-symbol view that pairs with :func:`phase_profile_table`'s per-phase
    view under ``python -m repro profile``.
    """
    heads: Dict[str, int] = {}
    for record in result.records:
        for head, count in (record.hot_symbols or {}).items():
            heads[head] = heads.get(head, 0) + int(count)
    if not heads:
        return "(no per-symbol data: a pre-counter store)"
    total = sum(heads.values())
    ranked = sorted(heads.items(), key=lambda item: (-item[1], item[0]))
    rows: List[Tuple[object, ...]] = [
        (head, count, f"{100.0 * count / total:.1f}%") for head, count in ranked[:top]
    ]
    if len(ranked) > top:
        remainder = sum(count for _, count in ranked[top:])
        rows.append((f"… (+{len(ranked) - top} more)", remainder, f"{100.0 * remainder / total:.1f}%"))
    return format_table(("head symbol", "rewrite steps", "share"), rows)


def strategy_summary_table(result: SuiteResult) -> str:
    """Per-strategy aggregates: solve rate, times, agenda and choice-point load.

    Groups the suite's records by the strategy that produced them (records
    without strategy provenance — out-of-scope goals, entries replayed from a
    pre-strategy store — are collected under ``(unknown)``).
    """
    by_strategy: Dict[str, List] = {}
    for record in result.records:
        if record.status == "out-of-scope":
            continue
        by_strategy.setdefault(record.strategy or "(unknown)", []).append(record)
    if not by_strategy:
        return "(no attempts recorded)"
    rows = []
    for strategy in sorted(by_strategy):
        records = by_strategy[strategy]
        solved = [r for r in records if r.proved]
        rate = f"{100.0 * len(solved) / len(records):.0f}%" if records else "n/a"
        avg_ms = (
            f"{sum(r.milliseconds for r in solved) / len(solved):.1f}" if solved else "-"
        )
        rows.append(
            (
                strategy,
                len(records),
                len(solved),
                rate,
                avg_ms,
                max((r.max_agenda_size for r in records), default=0),
                sum(r.choice_points for r in records),
            )
        )
    headers = ("strategy", "attempts", "proved", "solve rate", "avg solved ms",
               "max agenda", "choice points")
    return format_table(headers, rows)
