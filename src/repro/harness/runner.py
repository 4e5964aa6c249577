"""The benchmark harness: run problem suites and collect timing data.

The harness mirrors the paper's evaluation protocol: each problem is attempted
with a fixed configuration and wall-clock budget, conditional problems are
recorded as out of scope, and the results are aggregated into the statistics
reported in Section 6 (number solved, number solved within 100 ms, average time
over solved problems) and into the cumulative solved-vs-time series plotted in
Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..benchmarks_data.registry import BenchmarkProblem
from ..core.equations import Equation
from ..search.config import ProverConfig
from ..search.prover import Prover
from ..search.result import ProofResult

__all__ = [
    "SolveRecord", "SuiteResult", "attempt_status", "run_suite", "run_suite_parallel",
    "cumulative_curve",
]


@dataclass
class SolveRecord:
    """The outcome of one benchmark problem."""

    name: str
    suite: str
    status: str
    """``proved``, ``disproved`` (ground counterexample found), ``failed``,
    ``timeout``, or ``out-of-scope`` (conditional goal)."""

    seconds: float = 0.0
    nodes: int = 0
    subst_attempts: int = 0
    soundness_violations: int = 0
    normalizer_hits: int = 0
    normalizer_misses: int = 0
    reason: str = ""

    strategy: str = ""
    """The search strategy that drove the attempt ("" for out-of-scope goals)."""

    max_agenda_size: int = 0
    """High-water mark of the prover's frame agenda (old call-stack depth)."""

    choice_points: int = 0
    """Choice points expanded by the agenda core during the attempt."""

    worker: int = -1
    """The parallel-engine worker slot that produced the record (-1: serial)."""

    variant: str = ""
    """The portfolio variant that produced the record ("" for the serial path)."""

    cached: bool = False
    """Was the outcome replayed from a persistent result store?"""

    certificate: Optional[dict] = None
    """Portable proof certificate in primitive-dict form, when the run was
    configured with ``emit_proofs`` and the goal was proved.  Decode with
    :func:`repro.proofs.certificate.decode`; independently re-check with
    :func:`repro.proofs.checker.check_certificate` or ``python -m repro check``."""

    certificate_seconds: float = 0.0
    """Wall-clock cost of encoding the certificate (0 when none was emitted)."""

    counterexample: Optional[dict] = None
    """Replayable refutation in primitive-dict form, when the goal was
    ``disproved``.  Decode with
    :meth:`repro.semantics.falsify.Counterexample.from_dict`; re-check
    independently with :meth:`~repro.semantics.falsify.Counterexample.replay`."""

    falsify_seconds: float = 0.0
    """Wall-clock cost of ground testing (0 when ``falsify_first`` was off)."""

    compile_seconds: float = 0.0
    """Wall-clock cost of compiling per-symbol match trees observed by the
    attempt's normaliser (0 when ``compile_rules`` was off or everything was
    already compiled)."""

    compiled_steps: int = 0
    """Root rewrite steps dispatched through compiled match trees."""

    fallback_steps: int = 0
    """Root rewrite steps that fell back to generic matching (declined heads)."""

    hot_symbols: Dict[str, int] = field(default_factory=dict)
    """Rewrite steps per head symbol under compiled dispatch — the attempt's
    hottest functions (trimmed to the top few when crossing the wire)."""

    hints_offered: int = 0
    """Lemma hypotheses supplied to the attempt (library lemmas, human hints)."""

    hint_steps: int = 0
    """(Subst) steps of the final proof that instantiated a supplied hint
    (0 for failures and for proofs that never touched their hints)."""

    queued_seconds: float = 0.0
    """Wall-clock the goal waited between entering the engine's queue and
    dispatch to a worker — the scheduling share of client-observed latency
    (0 for store replays, the serial runner, and records predating the field).
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    """Exclusive wall-clock seconds per pipeline phase (``soundness`` /
    ``normalise`` / ``match`` / … — see :mod:`repro.search.phases`), feeding
    ``phase_profile_table`` and ``python -m repro profile``.  Empty on records
    replayed from store lines that predate the field."""

    phase_counts: Dict[str, int] = field(default_factory=dict)
    """Hot-callsite counters: entries per phase, alongside
    :attr:`phase_seconds`."""

    @property
    def proved(self) -> bool:
        return self.status == "proved"

    @property
    def disproved(self) -> bool:
        return self.status == "disproved"

    @property
    def timed_out(self) -> bool:
        return self.status == "timeout"

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1000.0


@dataclass
class SuiteResult:
    """Aggregated results of a suite run."""

    suite: str
    records: List[SolveRecord] = field(default_factory=list)

    # -- aggregate views ----------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def solved(self) -> List[SolveRecord]:
        return [r for r in self.records if r.proved]

    @property
    def disproved(self) -> List[SolveRecord]:
        return [r for r in self.records if r.disproved]

    @property
    def out_of_scope(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status == "out-of-scope"]

    @property
    def failed(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status in ("failed", "timeout")]

    @property
    def timed_out(self) -> List[SolveRecord]:
        return [r for r in self.records if r.status == "timeout"]

    def solved_within(self, milliseconds: float) -> List[SolveRecord]:
        """Solved problems whose solve time is within the given bound."""
        return [r for r in self.solved if r.milliseconds <= milliseconds]

    def average_solved_ms(self) -> float:
        """Average solve time over the solved problems (ms), 0 when none solved."""
        solved = self.solved
        if not solved:
            return 0.0
        return sum(r.milliseconds for r in solved) / len(solved)

    def record(self, name: str) -> SolveRecord:
        """Look up the record of one problem (amortised O(1))."""
        index = getattr(self, "_record_index", None)
        if index is None or getattr(self, "_record_index_size", -1) != len(self.records):
            index = {r.name: r for r in self.records}
            object.__setattr__(self, "_record_index", index)
            object.__setattr__(self, "_record_index_size", len(self.records))
        try:
            return index[name]
        except KeyError:
            raise KeyError(name) from None

    def summary(self) -> Dict[str, object]:
        """The headline numbers of the suite run."""
        return {
            "suite": self.suite,
            "total": self.total,
            "solved": len(self.solved),
            "disproved": len(self.disproved),
            "out_of_scope": len(self.out_of_scope),
            "failed": len(self.failed),
            "timeout": len(self.timed_out),
            "solved_under_100ms": len(self.solved_within(100.0)),
            "average_solved_ms": round(self.average_solved_ms(), 2),
        }


def attempt_status(outcome: ProofResult, conditional: bool) -> str:
    """The record status of one finished attempt (shared by every runner).

    A conditional goal reaches the prover only for the falsifier, so short of
    a refutation it stays ``out-of-scope``.
    """
    if outcome.proved:
        return "proved"
    if outcome.disproved:
        return "disproved"
    if conditional:
        return "out-of-scope"
    if outcome.statistics.timed_out:
        return "timeout"
    return "failed"


def run_suite(
    problems: Sequence[BenchmarkProblem],
    config: Optional[ProverConfig] = None,
    suite_name: Optional[str] = None,
    hypotheses: Optional[Dict[str, Sequence[Equation]]] = None,
    progress: Optional[Callable[[SolveRecord], None]] = None,
) -> SuiteResult:
    """Run the prover over a sequence of benchmark problems.

    ``hypotheses`` optionally maps problem names to hint lemmas (used by the
    hinted-properties experiment).  ``progress`` is an optional callback
    invoked after each problem (used by the example scripts to print progress).
    """
    config = config or ProverConfig()
    name = suite_name or (problems[0].suite if problems else "suite")
    result = SuiteResult(suite=name)
    # The prover cache is keyed by the program's *stable* fingerprint, not by
    # ``id()``: two structurally identical programs (e.g. rebuilt by different
    # callers, or resurrected by a different process) share one prover.
    provers: Dict[str, Prover] = {}
    for problem in problems:
        fingerprint = problem.program.fingerprint()
        prover = provers.get(fingerprint)
        if prover is None:
            prover = provers[fingerprint] = Prover(problem.program, config)
        if problem.goal.is_conditional and not config.falsify_first:
            record = SolveRecord(
                name=problem.name,
                suite=problem.suite,
                status="out-of-scope",
                reason="conditional goal",
            )
        else:
            hints = tuple(hypotheses.get(problem.name, ())) if hypotheses else ()
            started = time.perf_counter()
            if problem.goal.is_conditional:
                # Conditional goals reach the prover only for the falsifier:
                # ``prove_goal`` tests the premised goal and otherwise reports
                # it out of scope exactly as before.
                outcome: ProofResult = prover.prove_goal(problem.goal)
            else:
                outcome = prover.prove(
                    problem.goal.equation, goal_name=problem.name, hypotheses=hints
                )
            elapsed = time.perf_counter() - started
            record = SolveRecord(
                name=problem.name,
                suite=problem.suite,
                status=attempt_status(outcome, problem.goal.is_conditional),
                seconds=elapsed,
                nodes=outcome.statistics.nodes_created,
                subst_attempts=outcome.statistics.subst_attempts,
                soundness_violations=outcome.statistics.soundness_violations,
                normalizer_hits=outcome.statistics.normalizer_hits,
                normalizer_misses=outcome.statistics.normalizer_misses,
                reason=outcome.reason,
                strategy=outcome.statistics.strategy,
                max_agenda_size=outcome.statistics.max_agenda_size,
                choice_points=outcome.statistics.choice_points_expanded,
                certificate=(
                    outcome.certificate.to_dict() if outcome.certificate is not None else None
                ),
                certificate_seconds=outcome.statistics.certificate_seconds,
                counterexample=(
                    outcome.counterexample.to_dict()
                    if outcome.counterexample is not None
                    else None
                ),
                falsify_seconds=outcome.statistics.falsification_seconds,
                compile_seconds=outcome.statistics.compile_seconds,
                compiled_steps=outcome.statistics.compiled_steps,
                fallback_steps=outcome.statistics.fallback_steps,
                hot_symbols=dict(outcome.statistics.rewrite_head_counts),
                hints_offered=outcome.statistics.hints_offered,
                hint_steps=outcome.statistics.hint_steps,
                phase_seconds=dict(outcome.statistics.phase_seconds),
                phase_counts=dict(outcome.statistics.phase_counts),
            )
        result.records.append(record)
        if progress is not None:
            progress(record)
    return result


def run_suite_parallel(
    problems: Sequence[BenchmarkProblem],
    config: Optional[ProverConfig] = None,
    suite_name: Optional[str] = None,
    hypotheses: Optional[Dict[str, Sequence[Equation]]] = None,
    progress: Optional[Callable[[SolveRecord], None]] = None,
    *,
    jobs: Optional[int] = None,
    variants=None,
    store=None,
    resolver=None,
    worker_hook=None,
    hard_kill_grace: float = 5.0,
) -> SuiteResult:
    """Run a suite on the multiprocess proof engine (see :mod:`repro.engine`).

    The returned :class:`SuiteResult` carries records in *input order* and the
    per-problem statuses of the serial :func:`run_suite` — only timing (and the
    ``worker``/``variant``/``cached`` provenance fields) differ.

    ``jobs`` is the worker-pool size (default: the CPU count).  ``variants`` is
    an optional sequence of :class:`repro.engine.PortfolioVariant` raced per
    goal (first proof wins).  ``store`` is a path or
    :class:`repro.engine.ResultStore` memoising outcomes across runs.
    ``resolver`` and ``worker_hook`` are advanced hooks documented on
    :func:`repro.engine.suite.solve_suite`.
    """
    from ..engine.suite import solve_suite  # local import: engine builds on the harness

    return solve_suite(
        problems,
        config=config,
        suite_name=suite_name,
        hypotheses=hypotheses,
        progress=progress,
        jobs=jobs,
        variants=variants,
        store=store,
        resolver=resolver,
        worker_hook=worker_hook,
        hard_kill_grace=hard_kill_grace,
    )


def cumulative_curve(result: SuiteResult) -> List[Tuple[float, int]]:
    """The Fig. 7 series: (time in ms, number of problems solved within that time).

    The series contains one point per solved problem, sorted by solve time, so
    plotting it directly reproduces the cumulative staircase of the paper.
    """
    times = sorted(r.milliseconds for r in result.solved)
    return [(t, i + 1) for i, t in enumerate(times)]
