"""The ``python -m repro`` command line: solve, bench, profile, disprove, report, check, store, serve, submit, trace.

Nine subcommands::

    python -m repro solve --suite isaplanner --goal prop_01 --emit-proofs
    python -m repro bench --suite isaplanner --jobs 4 --timeout 1 --store results.jsonl
    python -m repro profile --suite isaplanner --limit 10 --max-nodes 300
    python -m repro disprove --suite false_conjectures
    python -m repro report --store results.jsonl
    python -m repro check --store results.jsonl --require-certificates
    python -m repro store compact --store results.jsonl
    python -m repro serve --socket repro.sock --store results.jsonl --library lemmas.jsonl
    python -m repro submit --socket repro.sock --suite isaplanner --goal prop_01

``solve`` proves individual goals (from a built-in suite or a program file)
and prints the proof-search statistics; with ``--emit-proofs`` every proof is
also encoded as a portable certificate (``--proof-dir`` writes self-contained
certificate files), and with ``--falsify`` every goal is ground-tested first —
a refuted goal reports ``disproved`` with its counterexample instead of
burning the proof budget.  ``bench`` runs a suite on the parallel engine —
``--jobs``, ``--portfolio``, ``--store``, ``--timeout``, ``--emit-proofs`` and
``--falsify`` map straight onto :func:`repro.engine.suite.solve_suite` — and
prints the paper-vs-measured tables.  ``profile`` runs a suite slice serially
with the phase profiler and prints where the prover's wall-clock actually
went — ranked per-phase exclusive times and the hottest head symbols — with a
``--cprofile`` escape hatch for a function-level view (both ``solve`` and
``bench`` also accept ``--profile`` to append the same tables to a normal
run).  ``disprove`` runs *only* the falsifier
(no proof search, no workers) and exits 0 exactly when every selected goal is
refuted with a replayable counterexample.  ``report`` renders tables from a
persisted result store without re-running anything.  ``check`` independently
re-verifies proof certificates — from a result store or from certificate
files — by re-elaborating the program into a fresh term bank and re-running
the local and global soundness checks from scratch (exit code 1 when any
proof is rejected).  ``store`` maintains persisted stores (``compact`` dedups
superseded lines and drops stale-schema lines).  ``serve`` runs the long-lived
proof service daemon (warm per-theory state, result-store replay, lemma
library) and ``submit`` talks to it over its unix socket — see
:mod:`repro.service` and ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from .benchmarks_data.registry import (
    BenchmarkProblem,
    all_problems,
    false_conjectures_problems,
    isaplanner_problems,
    mutual_problems,
)
from .engine.portfolio import PORTFOLIO_PRESETS
from .engine.suite import solve_suite
from .harness.report import (
    ascii_cumulative_plot,
    check_time_table,
    counterexample_table,
    format_table,
    hot_symbol_table,
    isaplanner_summary_table,
    phase_profile_table,
    portfolio_winner_table,
    proof_size_table,
    strategy_summary_table,
    unsolved_classification,
    worker_utilisation_table,
)
from .harness.runner import SolveRecord, SuiteResult, run_suite
from .search.agenda import strategy_names
from .search.config import LEMMAS_ALL, LEMMAS_CASE_ONLY, LEMMAS_NONE, ProverConfig

__all__ = ["main", "build_parser"]

#: Format marker of self-contained certificate *files* written by
#: ``solve --emit-proofs --proof-dir`` (program source + certificate in one
#: JSON document, so ``repro check file.json`` needs nothing else).
CERTIFICATE_FILE_FORMAT = "cycleq.certificate-file"

SUITES = {
    "isaplanner": isaplanner_problems,
    "mutual": mutual_problems,
    "false_conjectures": false_conjectures_problems,
    "all": all_problems,
}

#: Worker-side resolver per suite: workers only rebuild the programs they can
#: actually be asked about, instead of every suite on every (re)spawn.
RESOLVERS = {
    "isaplanner": "repro.benchmarks_data.registry:isaplanner_problems",
    "mutual": "repro.benchmarks_data.registry:mutual_problems",
    "false_conjectures": "repro.benchmarks_data.registry:false_conjectures_problems",
    "all": "repro.benchmarks_data.registry:all_problems",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CycleQ reproduction: prove equations, run benchmark suites, read result stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # The prover flags solve, bench and profile share; _prover_config maps
    # them (and each command's own extras) onto one ProverConfig.
    prover_flags = argparse.ArgumentParser(add_help=False)
    prover_flags.add_argument("--timeout", type=float, default=None,
                              help="per-goal budget in seconds")
    prover_flags.add_argument("--strategy", choices=strategy_names(), default=None,
                              help="search strategy for the agenda core (default: dfs)")
    prover_flags.add_argument("--falsify", action="store_true",
                              help="ground-test each goal first; refuted goals report "
                                   "'disproved' with a counterexample and skip proof search")

    solve = commands.add_parser("solve", parents=[prover_flags],
                                help="prove one or more named goals")
    source = solve.add_mutually_exclusive_group()
    source.add_argument("--suite", choices=sorted(SUITES), default="all",
                        help="built-in suite to look the goal up in (default: all)")
    source.add_argument("--file", help="program file in the surface language")
    solve.add_argument("--goal", action="append", default=[], metavar="NAME",
                       help="goal name; repeatable (required with --suite)")
    solve.add_argument("--hint", action="append", default=[], metavar="EQUATION",
                       help="lemma hint as equation source, e.g. 'add a b === add b a'")
    solve.add_argument("--max-depth", type=int, default=None)
    solve.add_argument("--lemmas", choices=(LEMMAS_CASE_ONLY, LEMMAS_ALL, LEMMAS_NONE), default=None)
    solve.add_argument("--emit-proofs", action="store_true",
                       help="encode every proof as a portable certificate")
    solve.add_argument("--proof-dir", default=None, metavar="DIR",
                       help="write self-contained certificate files to DIR (implies --emit-proofs)")
    solve.add_argument("--profile", action="store_true",
                       help="print the per-phase time breakdown after each goal")

    bench = commands.add_parser("bench", parents=[prover_flags],
                                help="run a benchmark suite on the parallel engine")
    bench.add_argument("--suite", choices=sorted(SUITES), default="isaplanner")
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: CPU count; 0 = serial in-process)")
    bench.add_argument("--serial", action="store_true", help="force the serial runner")
    bench.add_argument("--portfolio", nargs="?", const="default", default=None,
                       choices=sorted(PORTFOLIO_PRESETS),
                       help="race a portfolio per goal: 'default' (config knobs) or "
                            "'strategy-race' (dfs vs iddfs vs best-first)")
    bench.add_argument("--store", default=None, metavar="PATH",
                       help="JSON-lines result store; warm entries are replayed, not re-solved")
    bench.add_argument("--limit", type=int, default=None, metavar="N",
                       help="only the first N problems of the suite")
    bench.add_argument("--names", default=None,
                       help="comma-separated problem names to run (a slice of the suite)")
    bench.add_argument("--plot", action="store_true", help="print the Fig. 7 ASCII cumulative plot")
    bench.add_argument("--emit-proofs", action="store_true",
                       help="workers encode certificates for every proof; persisted in the store")
    bench.add_argument("--profile", action="store_true",
                       help="append the phase-profile and hot-symbol tables to the report")

    profile = commands.add_parser(
        "profile",
        parents=[prover_flags],
        help="run a suite slice serially and print where the prover's time went",
    )
    profile.add_argument("--suite", choices=sorted(SUITES), default="isaplanner")
    profile.add_argument("--limit", type=int, default=None, metavar="N",
                         help="only the first N problems of the suite")
    profile.add_argument("--names", default=None,
                         help="comma-separated problem names to profile (a slice of the suite)")
    profile.add_argument("--max-nodes", type=int, default=None, metavar="N",
                         help="deterministic per-goal node budget (replaces the "
                              "wall-clock budget; reproducible profiles)")
    profile.add_argument("--cprofile", type=int, nargs="?", const=25, default=None,
                         metavar="N",
                         help="also run cProfile and print the top N functions "
                              "by cumulative time (default N: 25)")

    disprove = commands.add_parser(
        "disprove",
        help="run only the falsifier: refute goals on ground instances (no proof search)",
    )
    disprove_source = disprove.add_mutually_exclusive_group()
    disprove_source.add_argument("--suite", choices=sorted(SUITES), default="false_conjectures",
                                 help="built-in suite to falsify (default: false_conjectures)")
    disprove_source.add_argument("--file", help="program file in the surface language")
    disprove.add_argument("--goal", action="append", default=[], metavar="NAME",
                          help="goal name; repeatable (default: every goal of the selection)")
    disprove.add_argument("--names", default=None,
                          help="comma-separated goal names (a slice of the suite)")
    disprove.add_argument("--limit", type=int, default=None, metavar="N",
                          help="only the first N goals of the selection")
    disprove.add_argument("--depth", type=int, default=None,
                          help="exhaustive enumeration depth (default: 4)")
    disprove.add_argument("--exhaustive-limit", type=int, default=None, metavar="N",
                          help="exhaustive instances per goal (default: 400)")
    disprove.add_argument("--samples", type=int, default=None, metavar="N",
                          help="random instances per goal (default: 200)")
    disprove.add_argument("--random-depth", type=int, default=None,
                          help="depth of the random regime (default: 7)")
    disprove.add_argument("--seed", type=int, default=None,
                          help="seed of the random regime (default: fixed)")
    disprove.add_argument("--replay", action="store_true",
                          help="independently re-check every counterexample through "
                               "the generic normaliser before reporting it")

    report = commands.add_parser("report", help="render tables from a persisted result store")
    report.add_argument("--store", required=True, metavar="PATH")
    report.add_argument("--suite", default=None, help="only entries of this suite")
    report.add_argument("--plot", action="store_true", help="print the cumulative plot")

    check = commands.add_parser(
        "check", help="independently re-verify proof certificates (store or files)"
    )
    check.add_argument("certificates", nargs="*", metavar="CERT",
                       help="certificate JSON files (as written by solve --proof-dir)")
    check.add_argument("--store", default=None, metavar="PATH",
                       help="re-verify every certified proof in a result store")
    check.add_argument("--suite", default=None,
                       help="only store entries of this suite / program source for bare certificates")
    check.add_argument("--file", default=None, metavar="PROGRAM",
                       help="program file the certificates refer to (overrides embedded source)")
    check.add_argument("--require-certificates", action="store_true",
                       help="also fail when a proved store entry carries no certificate")
    check.add_argument("--allow-hypotheses", action="store_true",
                       help="accept partial proofs whose hypotheses are recorded with the "
                            "goal (hinted runs); without this flag any proof that assumes "
                            "a hypothesis is rejected")
    check.add_argument("--render", action="store_true",
                       help="render every verified proof tree after the table")

    store = commands.add_parser("store", help="maintain a persisted result store")
    store_commands = store.add_subparsers(dest="store_command", required=True)
    compact = store_commands.add_parser(
        "compact", help="rewrite the store with one line per key, dropping stale-schema lines"
    )
    compact.add_argument("--store", required=True, metavar="PATH")

    serve = commands.add_parser(
        "serve", help="run the proof service daemon (warm state + lemma library)"
    )
    serve.add_argument("--socket", default="repro-serve.sock", metavar="PATH",
                       help="unix socket to listen on (default: ./repro-serve.sock)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="persistent result store; solved goals replay with zero workers")
    serve.add_argument("--library", default=None, metavar="PATH",
                       help="lemma library; certified proofs are learned and offered as hints")
    serve.add_argument("--warm-cache-size", type=int, default=8, metavar="N",
                       help="theories kept resident (elaborated program, evaluator, "
                            "checker); LRU beyond N (default: 8)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="resident worker processes (default: CPU count)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="default per-goal budget in seconds (requests may override)")
    serve.add_argument("--hint-limit", type=int, default=8, metavar="N",
                       help="most library lemmas offered to one goal (default: 8)")
    serve.add_argument("--explore", action="store_true",
                       help="enrich the library in the background when a new theory arrives")
    serve.add_argument("--prewarm", action="store_true",
                       help="rebuild warm state for every theory seen in the store/library at startup")
    serve.add_argument("--client-max-inflight", type=int, default=0, metavar="N",
                       help="max unsolved goals one client may have queued/running (0 = unlimited)")
    serve.add_argument("--client-cpu-budget", type=float, default=0.0, metavar="S",
                       help="cumulative worker CPU-seconds one client may consume (0 = unlimited)")
    serve.add_argument("--shutdown-grace", type=float, default=2.0, metavar="S",
                       help="seconds an in-flight goal may keep its worker at shutdown")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write structured spans to this JSONL file "
                            "(read back with `repro trace`)")
    serve.add_argument("--trace-max-bytes", type=int, default=32 * 1024 * 1024,
                       metavar="N",
                       help="rotate the trace file past N bytes, keeping one "
                            ".1 sibling (default: 32 MiB)")

    submit = commands.add_parser(
        "submit", help="submit goals to a running proof service daemon"
    )
    submit.add_argument("--socket", default="repro-serve.sock", metavar="PATH",
                        help="daemon socket (default: ./repro-serve.sock)")
    submit_source = submit.add_mutually_exclusive_group()
    submit_source.add_argument("--suite", default=None,
                               help="built-in theory to submit goals against")
    submit_source.add_argument("--file", default=None, metavar="PROGRAM",
                               help="program file whose source is submitted")
    submit.add_argument("--goal", action="append", default=[], metavar="NAME",
                        help="declared goal name; repeatable (default: every goal)")
    submit.add_argument("--conjecture", action="append", default=[], metavar="NAME=EQUATION",
                        help="extra conjecture, e.g. add_comm='add a b === add b a'; repeatable")
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-goal budget in seconds for this submission")
    submit.add_argument("--no-hints", action="store_true",
                        help="do not offer library lemmas as hints")
    submit.add_argument("--falsify", action="store_true",
                        help="ground-test goals before search (refutations disprove)")
    submit.add_argument("--wait", type=float, default=600.0, metavar="S",
                        help="client-side ceiling on the daemon's answer (default: 600)")
    submit.add_argument("--client", default=None, metavar="NAME",
                        help="client identity for the daemon's fair scheduler and budgets")
    submit.add_argument("--metrics", action="store_true",
                        help="print the daemon's service metrics table")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to shut down (after any submission)")

    trace = commands.add_parser(
        "trace", help="read a service trace file (summary, Chrome export, slow goals)"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_commands.add_parser(
        "summary", help="span counts and latency percentiles per op class and span name"
    )
    trace_summary.add_argument("path", metavar="TRACE",
                               help="JSONL trace file written by `serve --trace`")
    trace_export = trace_commands.add_parser(
        "export", help="convert a trace to Chrome trace-event JSON (open in Perfetto)"
    )
    trace_export.add_argument("path", metavar="TRACE")
    trace_export.add_argument("--out", default=None, metavar="FILE",
                              help="write the JSON here instead of stdout")
    trace_slow = trace_commands.add_parser(
        "slow", help="slowest goals with queue-wait vs solve-time attribution"
    )
    trace_slow.add_argument("path", metavar="TRACE")
    trace_slow.add_argument("--threshold", type=float, default=0.5, metavar="S",
                            help="report goals whose queue+solve total exceeds "
                                 "S seconds (default: 0.5)")
    trace_slow.add_argument("--limit", type=int, default=20, metavar="N",
                            help="most rows shown (default: 20)")

    return parser


def _prover_config(args) -> ProverConfig:
    """The :class:`ProverConfig` of the prover flags ``solve``, ``bench`` and
    ``profile`` share, plus whichever of ``--max-depth``/``--lemmas``/
    ``--max-nodes``/``--emit-proofs``/``--proof-dir`` the command has."""
    changes: Dict[str, object] = {}
    for flag, option in (
        ("timeout", "timeout"),
        ("max_depth", "max_depth"),
        ("lemmas", "lemma_restriction"),
        ("strategy", "strategy"),
        ("max_nodes", "max_nodes"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            changes[option] = value
    if "max_nodes" in changes:
        # A node budget replaces the wall-clock one unless both are given.
        changes.setdefault("timeout", None)
    if getattr(args, "emit_proofs", False) or getattr(args, "proof_dir", None) is not None:
        changes["emit_proofs"] = True
    if args.falsify:
        changes["falsify_first"] = True
    return ProverConfig().with_(**changes)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_command(args) -> int:
    from .search.prover import Prover

    if args.file:
        from .lang.loader import load_program_file

        program = load_program_file(args.file)
        missing = [name for name in args.goal if name not in program.goals]
        if missing:
            print(f"solve: unknown goal(s) {', '.join(missing)} in {args.file}", file=sys.stderr)
            return 2
        goals = [program.goal(name) for name in args.goal] if args.goal else list(program.goals.values())
        pairs = [(program, goal) for goal in goals]
    else:
        if not args.goal:
            print("solve: --goal is required with --suite", file=sys.stderr)
            return 2
        problems = {p.name: p for p in SUITES[args.suite]()}
        missing = [name for name in args.goal if name not in problems]
        if missing:
            print(f"solve: unknown goal(s) {', '.join(missing)} in suite {args.suite}", file=sys.stderr)
            return 2
        pairs = [(problems[name].program, problems[name].goal) for name in args.goal]

    config = _prover_config(args)
    if args.proof_dir is not None:
        os.makedirs(args.proof_dir, exist_ok=True)

    # Without --falsify only proofs count as success; with it a refutation is
    # an equally decisive answer, so 'disproved' resolves a goal too.
    all_resolved = True
    for program, goal in pairs:
        hints = tuple(program.parse_equation(source) for source in args.hint)
        result = Prover(program, config).prove_goal(goal, hypotheses=hints)
        print(result)
        if args.profile and result.statistics.phase_seconds:
            ranked = sorted(result.statistics.phase_seconds.items(), key=lambda kv: -kv[1])
            accounted = sum(seconds for _, seconds in ranked) or 1.0
            print(format_table(
                ("phase", "ms", "share", "entries"),
                [
                    (
                        phase,
                        f"{seconds * 1000:.2f}",
                        f"{100.0 * seconds / accounted:.1f}%",
                        result.statistics.phase_counts.get(phase, "-"),
                    )
                    for phase, seconds in ranked
                ],
            ))
        resolved = result.proved or (args.falsify and result.disproved)
        all_resolved = all_resolved and resolved
        if result.counterexample is not None:
            payload = result.counterexample.to_dict()
            print(f"  counterexample: {json.dumps(payload, sort_keys=True)}")
        certificate = result.certificate
        if certificate is not None:
            print(
                f"  certificate: {certificate.node_count} vertices, "
                f"{certificate.term_count} shared terms, {certificate.byte_size()} bytes, "
                f"sha256 {certificate.digest()[:16]}…"
            )
            if args.proof_dir is not None:
                path = os.path.join(args.proof_dir, f"{goal.name or 'goal'}.cert.json")
                payload = {
                    "format": CERTIFICATE_FILE_FORMAT,
                    "version": 1,
                    "program_source": program.source,
                    "hints": list(args.hint),
                    "certificate": certificate.to_dict(),
                }
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                    handle.write("\n")
                print(f"  wrote {path}")
    return 0 if all_resolved else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _select_problems(args) -> List[BenchmarkProblem]:
    problems = SUITES[args.suite]()
    if args.names:
        wanted = {name.strip() for name in args.names.split(",") if name.strip()}
        problems = [p for p in problems if p.name in wanted]
    if args.limit is not None:
        problems = problems[: max(0, args.limit)]
    return problems


def _print_suite_tables(result: SuiteResult, args, wall: float, parallel: bool, portfolio: bool = False) -> None:
    summary = result.summary()
    rows = [(key, value) for key, value in summary.items()]
    print(format_table(("metric", "value"), rows))
    print(f"\nwall-clock: {wall:.3f} s")
    store = getattr(result, "store", None)
    if store is not None:
        print(f"store: {store.path} ({len(store)} entries, {store.hits} hits / {store.misses} misses this run)")
        replayed = sum(1 for record in result.records if record.cached)
        print(f"replayed from store: {replayed}/{result.total}")
    if parallel:
        print("\n" + worker_utilisation_table(result, wall_seconds=wall))
    if portfolio:
        print("\nportfolio winners:")
        print(portfolio_winner_table(result))
    if any(r.disproved for r in result.records):
        print("\ncounterexamples:")
        print(counterexample_table(result))
    print("\nper-strategy summary:")
    print(strategy_summary_table(result))
    if getattr(args, "profile", False):
        print("\nphase profile (exclusive time):")
        print(phase_profile_table(result))
        print("\nhottest symbols:")
        print(hot_symbol_table(result))
    if getattr(args, "emit_proofs", False) or any(r.certificate for r in result.records):
        print("\nproof certificates:")
        print(proof_size_table(result))
    if args.suite == "isaplanner" and args.limit is None and not args.names:
        print("\npaper vs measured (Section 6.1):")
        print(isaplanner_summary_table(result))
        print("\nunsolved problems:")
        print(unsolved_classification(result))
    if getattr(args, "plot", False):
        print("\ncumulative solved-vs-time (Fig. 7):")
        print(ascii_cumulative_plot(result))


def _bench_command(args) -> int:
    problems = _select_problems(args)
    if not problems:
        print("bench: no problems selected", file=sys.stderr)
        return 2
    config = _prover_config(args)
    serial = args.serial or args.jobs == 0
    started = time.monotonic()
    if serial:
        result = run_suite(problems, config, suite_name=args.suite)
    else:
        variants = PORTFOLIO_PRESETS[args.portfolio](config) if args.portfolio else None
        result = solve_suite(
            problems,
            config,
            suite_name=args.suite,
            jobs=args.jobs,
            variants=variants,
            store=args.store,
            resolver=RESOLVERS[args.suite],
        )
    wall = time.monotonic() - started
    _print_suite_tables(result, args, wall, parallel=not serial, portfolio=bool(args.portfolio))
    return 0


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def _profile_command(args) -> int:
    """Serial suite slice under the phase profiler; where did the time go?

    Serial on purpose: phase times are *per-attempt* wall-clock, and a profile
    taken while sibling workers compete for cores answers a different (and
    noisier) question.  ``--max-nodes`` pins a deterministic search budget so
    two profiles of the same tree are comparable; ``--cprofile`` drops from
    phases to functions when the phase ranking alone is too coarse.
    """
    problems = _select_problems(args)
    if not problems:
        print("profile: no problems selected", file=sys.stderr)
        return 2
    config = _prover_config(args)

    def run() -> SuiteResult:
        return run_suite(problems, config, suite_name=args.suite)

    started = time.monotonic()
    if args.cprofile is not None:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(run)
    else:
        result = run()
    wall = time.monotonic() - started

    print(format_table(("metric", "value"), list(result.summary().items())))
    print(f"\nwall-clock: {wall:.3f} s ({len(problems)} goal(s), serial)")
    print("\nphase profile (exclusive time):")
    print(phase_profile_table(result))
    print("\nhottest symbols (rewrite steps):")
    print(hot_symbol_table(result))
    if args.cprofile is not None:
        print(f"\ncProfile: top {args.cprofile} function(s) by cumulative time:")
        pstats.Stats(profiler, stream=sys.stdout).strip_dirs().sort_stats(
            "cumulative"
        ).print_stats(args.cprofile)
    return 0


# ---------------------------------------------------------------------------
# disprove
# ---------------------------------------------------------------------------


def _disprove_command(args) -> int:
    from .semantics.falsify import FalsificationConfig, falsify_goal

    if args.file:
        from .lang.loader import load_program

        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            print(f"disprove: cannot read {args.file}: {error.strerror or error}", file=sys.stderr)
            return 2
        from .core.exceptions import CycleQError

        try:
            program = load_program(source, name=os.path.basename(args.file))
        except CycleQError as error:
            print(f"disprove: {args.file} does not elaborate: {error}", file=sys.stderr)
            return 2
        selection = [(program, goal) for goal in program.goals.values()]
    else:
        selection = [(p.program, p.goal) for p in SUITES[args.suite]()]

    wanted = set(args.goal)
    if args.names:
        wanted.update(name.strip() for name in args.names.split(",") if name.strip())
    if wanted:
        known = {goal.name for _, goal in selection}
        missing = sorted(wanted - known)
        if missing:
            print(f"disprove: unknown goal(s) {', '.join(missing)}", file=sys.stderr)
            return 2
        selection = [(program, goal) for program, goal in selection if goal.name in wanted]
    if args.limit is not None:
        selection = selection[: max(0, args.limit)]
    if not selection:
        print("disprove: no goals selected", file=sys.stderr)
        return 2

    changes = {}
    if args.depth is not None:
        changes["depth"] = args.depth
    if args.exhaustive_limit is not None:
        changes["exhaustive_limit"] = args.exhaustive_limit
    if args.samples is not None:
        changes["random_samples"] = args.samples
    if args.random_depth is not None:
        changes["random_depth"] = args.random_depth
    if args.seed is not None:
        changes["seed"] = args.seed
    config = FalsificationConfig(**changes) if changes else FalsificationConfig()

    rows = []
    disproved = 0
    errors = 0
    for program, goal in selection:
        outcome = falsify_goal(program, goal, config)
        counterexample = outcome.counterexample
        if counterexample is not None and args.replay and not counterexample.replay(program):
            # The compiled evaluator and the normaliser disagree — a bug in
            # one of them, never a verdict about the conjecture.
            print(
                f"disprove: counterexample for {goal.name} failed normaliser replay",
                file=sys.stderr,
            )
            errors += 1
            counterexample = None
        if counterexample is not None:
            disproved += 1
            witness = ", ".join(
                f"{name} = {value}" for name, value in sorted(counterexample.bindings.items())
            )
            status = "disproved"
            detail = (
                f"{witness} ⇒ lhs {counterexample.lhs_value}, rhs {counterexample.rhs_value}"
            )
        elif outcome.error:
            status, detail = "unavailable", outcome.error
        else:
            status, detail = "no counterexample", f"{outcome.instances_tested} instances tested"
        # Random-phase draws that were new instances, of all draws made: a
        # low ratio means the random regime mostly re-drew known instances.
        random_phase = f"{outcome.random_distinct}/{outcome.random_attempts}"
        rows.append(
            (goal.name, status, outcome.instances_tested, random_phase,
             f"{outcome.seconds * 1000:.2f}", detail)
        )
    print(format_table(("goal", "status", "tested", "random new/drawn", "ms", "detail"), rows))
    print(
        f"\ndisproved {disproved}/{len(selection)} goal(s) "
        f"(depth {config.depth}, ≤{config.exhaustive_limit} exhaustive + "
        f"{config.random_samples} random instances, seed {config.seed})"
    )
    if errors:
        return 2
    return 0 if disproved == len(selection) else 1


# ---------------------------------------------------------------------------
# report / check / store
# ---------------------------------------------------------------------------


def _open_store(path: str, command: str, lock: bool = True):
    """Load a result store, or print a friendly one-line error and return ``None``.

    A missing path, a directory, unreadable bytes, or any other I/O problem
    must exit with a clear message and a nonzero code — never a traceback.
    ``lock=False`` is for read-only consumers (report, check): they must keep
    working while a serve daemon holds the store's advisory write lock.
    """
    from .engine.store import ResultStore

    if not os.path.exists(path):
        print(f"{command}: store {path} does not exist", file=sys.stderr)
        return None
    try:
        return ResultStore(path, lock=lock)
    except (OSError, UnicodeDecodeError) as error:
        detail = getattr(error, "strerror", None) or str(error)
        print(f"{command}: cannot read store {path}: {detail}", file=sys.stderr)
        return None


def _records_from_store(store, suite: Optional[str]) -> Dict[str, List[SolveRecord]]:
    """Reconstruct per-suite records from store entries (latest per key)."""
    by_suite: Dict[str, Dict[str, SolveRecord]] = {}
    for entry in store.entries():
        goal_key = str(entry.get("goal", ""))
        suite_name, _, name = goal_key.partition("/")
        if suite and suite_name != suite:
            continue
        record = SolveRecord.from_wire(name or goal_key, suite_name, entry, cached=True)
        goals = by_suite.setdefault(suite_name, {})
        # Several configs may have attempted the goal; keep the best outcome
        # (a decisive verdict — proof or refutation — beats a failure, then
        # the faster decisive outcome wins).
        existing = goals.get(record.name)
        decisive = record.proved or record.disproved
        existing_decisive = existing is not None and (existing.proved or existing.disproved)
        if (
            existing is None
            or (decisive and not existing_decisive)
            or (decisive and existing_decisive and record.seconds < existing.seconds)
        ):
            goals[record.name] = record
    return {suite_name: list(goals.values()) for suite_name, goals in by_suite.items()}


def _report_command(args) -> int:
    store = _open_store(args.store, "report", lock=False)
    if store is None:
        return 2
    if len(store) == 0:
        print(f"report: store {args.store} holds no readable entries", file=sys.stderr)
        return 2
    per_suite = _records_from_store(store, args.suite)
    if not per_suite:
        print(f"report: no entries for suite {args.suite!r} in {args.store}", file=sys.stderr)
        return 2
    print(f"store: {store.path} ({len(store)} entries)")
    for suite_name in sorted(per_suite):
        result = SuiteResult(suite=suite_name, records=per_suite[suite_name])
        print(f"\n== {suite_name} ==")
        rows = [(key, value) for key, value in result.summary().items()]
        print(format_table(("metric", "value"), rows))
        winners = portfolio_winner_table(result)
        if "no proofs" not in winners:
            print("\nwinning variants:")
            print(winners)
        if any(r.certificate for r in result.records):
            print("\nproof certificates:")
            print(proof_size_table(result))
        if any(r.disproved for r in result.records):
            print("\ncounterexamples:")
            print(counterexample_table(result))
        if any(r.phase_seconds for r in result.records):
            print("\nphase profile (exclusive time):")
            print(phase_profile_table(result))
        if args.plot:
            print(ascii_cumulative_plot(result))
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _suite_program_source(suite_name: str) -> Optional[str]:
    """The surface source of a built-in suite's program, or ``None``.

    Raw text, no elaboration: the checker will elaborate it itself, into its
    own bank — building the program here too would double the work and leak
    its terms into the CLI's ambient bank.
    """
    from .benchmarks_data.registry import SUITE_PROGRAM_SOURCES

    return SUITE_PROGRAM_SOURCES.get(suite_name)


def _split_stored_equation(text: str):
    """Split a store equation field into (hint sources, goal equation source)."""
    hints_text, separator, equation = text.partition("⊢")
    if not separator:
        return (), text.strip()
    hints = tuple(h.strip() for h in hints_text.split(";") if h.strip())
    return hints, equation.strip()


def _check_store(args) -> int:
    from .proofs.checker import CertificateChecker

    store = _open_store(args.store, "check", lock=False)
    if store is None:
        return 2
    override_checker: Optional[CertificateChecker] = None
    if args.file:
        # Fail fast: an unreadable or unparseable program override is a usage
        # error, not a verdict about anybody's proofs.
        override_source = _read_program_file(args.file)
        if override_source is None:
            return 2
        override_checker = _build_checker(override_source, args.file)
        if override_checker is None:
            return 2
    checkers: Dict[str, Optional[CertificateChecker]] = {}
    checker_errors: Dict[str, str] = {}
    rows: List[dict] = []
    rendered: List[str] = []
    proved = rejected = missing = stale = 0
    examined = 0
    for entry in sorted(store.entries(), key=lambda e: str(e.get("goal", ""))):
        goal_key = str(entry.get("goal", ""))
        suite_name, _, _name = goal_key.partition("/")
        if args.suite and suite_name != args.suite:
            continue
        examined += 1
        if entry.get("status") != "proved":
            continue
        proved += 1
        certificate = entry.get("certificate")
        if certificate is None:
            missing += 1
            rows.append({"goal": goal_key, "status": "no certificate",
                         "detail": "entry was persisted without emit_proofs"})
            continue
        if suite_name not in checkers:
            if override_checker is not None:
                checkers[suite_name] = override_checker
            else:
                source = _suite_program_source(suite_name)
                if source is None:
                    checkers[suite_name] = None
                    checker_errors[suite_name] = (
                        f"no program source for suite {suite_name!r} (use --file)"
                    )
                else:
                    checkers[suite_name] = _build_checker(source, suite_name)
                    if checkers[suite_name] is None:
                        checker_errors[suite_name] = (
                            f"program for suite {suite_name!r} failed to elaborate (see stderr)"
                        )
        checker = checkers[suite_name]
        if checker is None:
            rejected += 1
            rows.append({"goal": goal_key, "status": "REJECTED",
                         "detail": checker_errors[suite_name]})
            continue
        entry_fp = str(entry.get("program", ""))
        if entry_fp and entry_fp != checker.program.fingerprint():
            # The entry was persisted for a different program version; the
            # source at hand cannot vouch for (or against) its proof.
            # Skipped, not rejected — otherwise one edit to a benchmark
            # definition would turn every old-but-valid line into a permanent
            # failure that `store compact` cannot purge.
            stale += 1
            detail = (
                "program fingerprint does not match the --file program"
                if override_checker is not None
                else "stale program fingerprint (entry predates the current program)"
            )
            rows.append({"goal": goal_key, "status": "skipped", "detail": detail})
            continue
        hints, equation = _split_stored_equation(str(entry.get("equation", "")))
        granted = hints if args.allow_hypotheses else ()
        report = checker.check(certificate, hypotheses=granted, goal_equation=equation or None)
        rows.append(_check_row(goal_key, report, certificate))
        if not report.ok:
            rejected += 1
        elif args.render:
            rendered.append(_render_checked(goal_key, certificate))
    if args.suite and examined == 0:
        # A filter that matches nothing is a usage error (typo'd suite name),
        # not a clean bill of health.
        print(f"check: no entries for suite {args.suite!r} in {args.store}", file=sys.stderr)
        return 2
    if override_checker is not None and stale and len(rows) == missing + stale:
        # The named program vouched for nothing: every certified entry was
        # persisted under a different fingerprint.  A wrong --file must not
        # read as a clean bill of health.
        print(
            f"check: no entries in {args.store} match the program from {args.file}",
            file=sys.stderr,
        )
        return 2
    print(check_time_table(rows))
    skipped = f", {stale} skipped (stale program)" if stale else ""
    checked = len(rows) - missing - stale
    print(
        f"\nchecked {checked} certificate(s) over {proved} proved entr(ies): "
        f"{checked - rejected} verified, {rejected} rejected, "
        f"{missing} without certificate{skipped}"
    )
    for block in rendered:
        print("\n" + block)
    # Strict mode: a proved entry that was not actually verified — no
    # certificate, or skipped for a stale program — is a failure.  Without the
    # flag, skips are informational so that editing a program does not turn
    # every pre-existing (valid) line into a permanent red.
    if rejected or (args.require_certificates and (missing or stale)):
        return 1
    return 0


def _build_checker(source: str, name: str):
    """Elaborate a checker program, or print a friendly error and return ``None``.

    The source may be untrusted (embedded in a certificate file) or simply
    wrong (a mistyped ``--file``); either way a parse/elaboration failure is a
    one-line diagnostic, never a traceback.
    """
    from .core.exceptions import CycleQError
    from .proofs.checker import CertificateChecker

    try:
        return CertificateChecker(source, name=name)
    except CycleQError as error:
        print(f"check: program for {name} does not elaborate: {error}", file=sys.stderr)
        return None


def _read_program_file(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        print(f"check: cannot read program {path}: {error.strerror or error}", file=sys.stderr)
        return None


def _check_row(goal: str, report, certificate: dict) -> dict:
    from .proofs.certificate import canonical_json

    payload = canonical_json(certificate)
    status = "verified" if report.ok else "REJECTED"
    if report.ok and report.hypotheses:
        status = f"verified ({len(report.hypotheses)} hyp)"
    return {
        "goal": goal,
        "status": status,
        "nodes": report.nodes,
        "bytes": len(payload),
        "seconds": report.seconds,
        "detail": report.issues[0] if report.issues else "",
    }


def _render_checked(goal: str, certificate: dict) -> str:
    from .proofs.render import render_certificate

    return f"== {goal} ==\n{render_certificate(certificate)}"


def _check_files(args) -> int:
    from .proofs.checker import CertificateChecker

    rows: List[dict] = []
    rendered: List[str] = []
    checkers: Dict[str, Optional[CertificateChecker]] = {}
    rejected = 0
    errors = 0
    override_source: Optional[str] = None
    if args.file:
        override_source = _read_program_file(args.file)
        if override_source is None:
            return 2
    suite_source: Optional[str] = None
    if args.suite:
        suite_source = _suite_program_source(args.suite)
        if suite_source is None:
            # Fail loudly: silently falling back to the file's own embedded
            # source would verify against a program the user did not name.
            print(f"check: unknown suite {args.suite!r}", file=sys.stderr)
            return 2
    for path in args.certificates:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"check: cannot read certificate {path}: {error}", file=sys.stderr)
            errors += 1
            continue
        if isinstance(payload, dict) and "certificate" in payload:
            fmt = payload.get("format", CERTIFICATE_FILE_FORMAT)
            version = payload.get("version", 1)
            if fmt != CERTIFICATE_FILE_FORMAT or version != 1:
                print(
                    f"check: {path} has unsupported certificate-file format "
                    f"{fmt!r} version {version!r}",
                    file=sys.stderr,
                )
                errors += 1
                continue
            certificate = payload["certificate"]
            embedded_source = payload.get("program_source") or None
            # A file must not grant its own hypotheses: a hand-crafted wrapper
            # could otherwise "prove" anything with a single self-hinted Hyp
            # vertex.  The caller opts in with --allow-hypotheses.
            hints = tuple(payload.get("hints", ())) if args.allow_hypotheses else ()
        else:
            certificate = payload
            embedded_source = None
            hints = ()
        # Explicit references beat data from the (untrusted) file: --file,
        # then --suite, and only then the embedded source.  Verifying against
        # an embedded source attests the proof *for that embedded program
        # only* — its fingerprint is printed below so the caller can compare
        # it against a program they actually trust.
        source = override_source or suite_source or embedded_source
        if not source:
            print(
                f"check: {path} does not embed its program source; pass --file or --suite",
                file=sys.stderr,
            )
            errors += 1
            continue
        name = os.path.basename(path)
        # One elaboration per distinct program, not per file: a directory of
        # certificates from one solve run embeds the same source throughout.
        if source not in checkers:
            checkers[source] = _build_checker(source, name)
        checker = checkers[source]
        if checker is None:
            errors += 1
            continue
        if isinstance(certificate, str):
            # A wrapper may (adversarially) carry the certificate as JSON
            # text; normalise so the provenance binding below cannot be
            # sidestepped by the encoding.
            try:
                certificate = json.loads(certificate)
            except ValueError:
                certificate = None
        if not isinstance(certificate, dict):
            print(f"check: {path} does not contain a certificate object", file=sys.stderr)
            errors += 1
            continue
        # Bind the proof to the equation the certificate *claims* to prove:
        # the table's goal label comes from untrusted provenance, so a file
        # whose root proves something other than its stated equation — or
        # that states no equation at all — must be rejected, not labelled
        # verified under the claimed name.
        claimed = str(certificate.get("equation") or "")
        goal = str(certificate.get("goal") or "") or name
        if not claimed:
            rejected += 1
            rows.append({"goal": goal, "status": "REJECTED",
                         "detail": "certificate does not state the equation it proves"})
            continue
        report = checker.check(certificate, hypotheses=hints, goal_equation=claimed)
        row = _check_row(goal, report, certificate)
        if report.ok and report.equation:
            row["detail"] = report.equation  # show what was actually attested
        rows.append(row)
        if not report.ok:
            rejected += 1
        elif args.render:
            rendered.append(_render_checked(goal, certificate))
    if rows:
        print(check_time_table(rows))
        print(
            f"\nchecked {len(rows)} certificate file(s): "
            f"{len(rows) - rejected} verified, {rejected} rejected"
        )
        for checker in checkers.values():
            if checker is not None:
                print(
                    f"program {checker.program.name}: "
                    f"fingerprint {checker.program.fingerprint()}"
                )
    for block in rendered:
        print("\n" + block)
    if errors:
        return 2
    return 1 if rejected else 0


def _check_command(args) -> int:
    if not args.store and not args.certificates:
        print("check: pass --store PATH and/or certificate files", file=sys.stderr)
        return 2
    codes = []
    if args.store:
        codes.append(_check_store(args))
    if args.certificates:
        codes.append(_check_files(args))
    return max(codes)


# ---------------------------------------------------------------------------
# store
# ---------------------------------------------------------------------------


def _store_command(args) -> int:
    store = _open_store(args.store, "store compact")
    if store is None:
        return 2
    with open(args.store, "r", encoding="utf-8") as handle:
        lines_before = sum(1 for line in handle if line.strip())
    store.compact()
    with open(args.store, "r", encoding="utf-8") as handle:
        lines_after = sum(1 for line in handle if line.strip())
    dropped = lines_before - lines_after
    print(
        f"store: compacted {args.store}: {lines_before} -> {lines_after} line(s) "
        f"({dropped} superseded/stale dropped, {store.schema_skipped} of those schema mismatches)"
    )
    return 0


# ---------------------------------------------------------------------------
# serve / submit
# ---------------------------------------------------------------------------


def _serve_command(args) -> int:
    from .service.server import ServiceConfig, serve_forever

    return serve_forever(
        ServiceConfig(
            socket_path=args.socket,
            store_path=args.store,
            library_path=args.library,
            warm_cache_size=args.warm_cache_size,
            jobs=args.jobs,
            timeout=args.timeout,
            hint_limit=args.hint_limit,
            explore=args.explore,
            shutdown_grace=args.shutdown_grace,
            prewarm=args.prewarm,
            client_max_inflight=args.client_max_inflight,
            client_cpu_budget=args.client_cpu_budget,
            trace_path=args.trace,
            trace_max_bytes=args.trace_max_bytes,
        )
    )


def _submit_command(args) -> int:
    from .harness.report import service_summary_table
    from .service.client import ServiceClient, ServiceProtocolError

    conjectures = []
    for spec in args.conjecture:
        name, separator, equation = spec.partition("=")
        if not separator or not name.strip() or not equation.strip():
            print(f"submit: --conjecture wants NAME=EQUATION, got {spec!r}", file=sys.stderr)
            return 2
        conjectures.append((name.strip(), equation.strip()))

    source = None
    if args.file:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            print(f"submit: cannot read {args.file}: {error.strerror or error}", file=sys.stderr)
            return 2

    submitting = bool(source or args.suite or conjectures)
    if not submitting and not args.metrics and not args.shutdown:
        print("submit: nothing to do (pass --suite/--file/--conjecture, --metrics or --shutdown)",
              file=sys.stderr)
        return 2
    if conjectures and source is None and args.suite is None:
        print("submit: --conjecture needs a theory (--suite or --file)", file=sys.stderr)
        return 2

    client = ServiceClient(args.socket, timeout=args.wait, client=args.client)
    code = 0
    try:
        if submitting:
            def on_verdict(verdict: dict) -> None:
                detail = f" [{float(verdict.get('seconds') or 0.0) * 1000:.1f} ms"
                if verdict.get("cached"):
                    detail += ", replayed"
                if verdict.get("hint_steps"):
                    detail += f", {verdict['hint_steps']} hint step(s)"
                print(f"{verdict.get('goal')}: {verdict.get('status')}{detail}]")

            outcome = client.submit(
                suite=args.suite,
                source=source,
                goals=args.goal,
                conjectures=conjectures,
                timeout=args.timeout,
                use_hints=not args.no_hints,
                falsify=args.falsify,
                on_verdict=on_verdict,
            )
            done = outcome.done
            if done.get("rejected"):
                print(f"{done['rejected']} goal(s) rejected by the daemon's client budget")
            summary = (
                f"\n{done.get('proved', 0)}/{done.get('total', 0)} proved, "
                f"{done.get('disproved', 0)} disproved, "
                f"{done.get('store_hits', 0)} replayed from store, "
                f"{done.get('worker_spawns', 0)} worker(s) spawned, "
                f"{done.get('library_hints_used', 0)} library hint step(s) used "
                f"in {float(done.get('seconds') or 0.0):.3f} s"
            )
            if done.get("trace"):
                summary += f" [trace {done['trace']}]"
            print(summary)
            decisive = outcome.proved + outcome.disproved
            code = 0 if decisive == outcome.total else 1
        if args.metrics:
            print(service_summary_table(client.metrics()))
        if args.shutdown:
            client.shutdown()
            print(f"submit: daemon on {args.socket} is shutting down")
    except ServiceProtocolError as error:
        print(f"submit: {error}", file=sys.stderr)
        return 2
    return code


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------


def _trace_command(args) -> int:
    import json as json_module

    from .harness.report import format_table
    from .obs.export import chrome_trace, read_trace, slow_goals, summarise

    try:
        records = read_trace(args.path)
    except FileNotFoundError:
        print(f"trace: no trace file at {args.path}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"trace: cannot read {args.path}: {error.strerror or error}", file=sys.stderr)
        return 2
    if not records:
        print(f"trace: {args.path} holds no spans", file=sys.stderr)
        return 1

    if args.trace_command == "export":
        payload = json_module.dumps(chrome_trace(records), sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"trace: wrote Chrome trace JSON to {args.out} "
                  "(open at https://ui.perfetto.dev)")
        else:
            print(payload)
        return 0

    if args.trace_command == "slow":
        rows = slow_goals(records, threshold=args.threshold, limit=args.limit)
        if not rows:
            print(f"(no goals above {args.threshold:.3f} s queue+solve)")
            return 0
        print(format_table(
            ("goal", "trace", "queued ms", "solve ms", "total ms", "status"),
            [
                (
                    row["goal"],
                    row["trace"],
                    f"{row['queued_seconds'] * 1000.0:.1f}",
                    f"{row['solve_seconds'] * 1000.0:.1f}",
                    f"{row['total_seconds'] * 1000.0:.1f}",
                    row["status"] or "-",
                )
                for row in rows
            ],
        ))
        return 0

    # summary
    summary = summarise(records)
    print(
        f"trace: {args.path} — {summary['spans']} span(s), "
        f"{summary['events']} event(s), {summary['traces']} trace(s)"
    )
    for op_class, stats in sorted(summary["op_classes"].items()):
        # One greppable line per op class (the CI trace-smoke step matches
        # on "op class <name>: <n> span(s)").
        print(
            f"op class {op_class}: {stats['count']} span(s), "
            f"p50 {stats['p50'] * 1000.0:.2f} ms, p95 {stats['p95'] * 1000.0:.2f} ms, "
            f"p99 {stats['p99'] * 1000.0:.2f} ms, max {stats['max'] * 1000.0:.2f} ms"
        )
    print()
    print(format_table(
        ("span", "count", "total s", "p50 ms", "p95 ms", "max ms"),
        [
            (
                name,
                stats["count"],
                f"{stats['total']:.3f}",
                f"{stats['p50'] * 1000.0:.2f}",
                f"{stats['p95'] * 1000.0:.2f}",
                f"{stats['max'] * 1000.0:.2f}",
            )
            for name, stats in sorted(summary["names"].items())
        ],
    ))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .engine.store import StoreLockError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _solve_command(args)
        if args.command == "bench":
            return _bench_command(args)
        if args.command == "profile":
            return _profile_command(args)
        if args.command == "disprove":
            return _disprove_command(args)
        if args.command == "check":
            return _check_command(args)
        if args.command == "store":
            return _store_command(args)
        if args.command == "serve":
            return _serve_command(args)
        if args.command == "submit":
            return _submit_command(args)
        if args.command == "trace":
            return _trace_command(args)
        return _report_command(args)
    except StoreLockError as error:
        # Advisory-lock contention: another process (usually a daemon) owns
        # the file.  One line, no traceback.
        print(f"{args.command}: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into e.g. `head`; exit quietly like other CLI tools.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
