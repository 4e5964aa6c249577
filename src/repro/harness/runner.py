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
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..benchmarks_data.registry import BenchmarkProblem
from ..core.equations import Equation
from ..search.config import ProverConfig
from ..search.prover import Prover
from ..search.result import ProofResult

__all__ = ["SolveRecord", "SuiteResult", "attempt", "run_suite", "cumulative_curve"]


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

    # -- the wire codec: worker pipe and store line -------------------------------

    def to_wire(self) -> dict:
        """The record's outcome as primitive data, for the pipe and the store.

        ``name`` and ``suite`` stay out (they are key material), so do fields
        holding their default (every reader defaults them), and ``status`` is
        always in.  Only the hottest 8 ``hot_symbols`` cross the wire (a table
        ranks a handful of heads, not the signature), and phase totals are
        rounded to the microsecond to keep store lines compact.
        """
        wire: Dict[str, object] = {"status": self.status}
        for name, default, _ in _WIRE_FIELDS:
            value = getattr(self, name)
            if value != default:
                wire[name] = value
        if self.hot_symbols:
            hottest = sorted(self.hot_symbols.items(), key=lambda item: -item[1])[:8]
            wire["hot_symbols"] = dict(hottest)
        if self.phase_seconds:
            wire["phase_seconds"] = {
                phase: round(total, 6) for phase, total in self.phase_seconds.items()
            }
        return wire

    @classmethod
    def from_wire(cls, name: str, suite: str, data: dict, **provenance) -> "SolveRecord":
        """Decode a :meth:`to_wire` payload or a store line into a record.

        Absent or ``None`` fields take their default, so lines written before
        a field existed replay benignly; keys that are not record fields (the
        store's key material, ``spans``) are ignored.  ``provenance``
        (``variant``, ``cached``, …) overrides what the payload says.
        """
        values = {"status": str(data.get("status") or "failed")}
        for field_name, default, coerce in _WIRE_FIELDS:
            value = data.get(field_name)
            values[field_name] = value if coerce is None else coerce(
                default if value is None else value
            )
        values.update(provenance)
        return cls(name=name, suite=suite, **values)


def _wire_field_table() -> Tuple[Tuple[str, object, Optional[type]], ...]:
    """``(field, default, coercion)`` for every record field but the key
    material (``name``, ``suite``) and ``status``; ``None`` coercion leaves
    primitive payloads (certificates, counterexamples) as they are."""
    table = []
    for spec in fields(SolveRecord):
        if spec.name in ("name", "suite", "status"):
            continue
        default = spec.default_factory() if spec.default is MISSING else spec.default
        table.append((spec.name, default, None if default is None else type(default)))
    return tuple(table)


_WIRE_FIELDS = _wire_field_table()

OUT_OF_SCOPE = {"status": "out-of-scope", "reason": "conditional goal"}
"""The wire of a conditional goal no prover attempts (the falsifier is off)."""


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


def attempt(
    prover: Prover, problem: BenchmarkProblem, hints: Sequence[Equation] = ()
) -> SolveRecord:
    """Attempt one problem with ``prover`` and record the outcome.

    This is every runner's one attempt: the serial :func:`run_suite` calls it
    in-process and :func:`repro.engine.scheduler.solve_task` in a worker.  A
    conditional goal reaches the prover only for the falsifier: it can be
    refuted (premises included) but never proved, so short of a refutation it
    stays ``out-of-scope``.
    """
    goal = problem.goal
    if goal.is_conditional and not prover.config.falsify_first:
        return SolveRecord.from_wire(problem.name, problem.suite, OUT_OF_SCOPE)
    started = time.perf_counter()
    if goal.is_conditional:
        outcome: ProofResult = prover.prove_goal(goal)
    else:
        outcome = prover.prove(goal.equation, goal_name=problem.name, hypotheses=tuple(hints))
    elapsed = time.perf_counter() - started
    stats = outcome.statistics
    if outcome.proved:
        status = "proved"
    elif outcome.disproved:
        status = "disproved"
    elif goal.is_conditional:
        status = "out-of-scope"
    elif stats.timed_out:
        status = "timeout"
    else:
        status = "failed"
    return SolveRecord(
        name=problem.name,
        suite=problem.suite,
        status=status,
        seconds=elapsed,
        nodes=stats.nodes_created,
        subst_attempts=stats.subst_attempts,
        soundness_violations=stats.soundness_violations,
        normalizer_hits=stats.normalizer_hits,
        normalizer_misses=stats.normalizer_misses,
        reason=outcome.reason,
        strategy=stats.strategy,
        max_agenda_size=stats.max_agenda_size,
        choice_points=stats.choice_points_expanded,
        # Certificates and counterexamples are primitive data by construction,
        # so they are the one form of a verdict that may cross a process
        # boundary; the terms themselves stay in the attempt's bank.
        certificate=outcome.certificate.to_dict() if outcome.certificate is not None else None,
        certificate_seconds=stats.certificate_seconds,
        counterexample=(
            outcome.counterexample.to_dict() if outcome.counterexample is not None else None
        ),
        falsify_seconds=stats.falsification_seconds,
        compile_seconds=stats.compile_seconds,
        compiled_steps=stats.compiled_steps,
        fallback_steps=stats.fallback_steps,
        hot_symbols=dict(stats.rewrite_head_counts),
        hints_offered=stats.hints_offered,
        hint_steps=stats.hint_steps,
        phase_seconds=dict(stats.phase_seconds),
        phase_counts=dict(stats.phase_counts),
    )


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
    For the multiprocess engine see :func:`repro.engine.solve_suite`.
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
        hints = hypotheses.get(problem.name, ()) if hypotheses else ()
        record = attempt(prover, problem, hints)
        result.records.append(record)
        if progress is not None:
            progress(record)
    return result


def cumulative_curve(result: SuiteResult) -> List[Tuple[float, int]]:
    """The Fig. 7 series: (time in ms, number of problems solved within that time).

    The series contains one point per solved problem, sorted by solve time, so
    plotting it directly reproduces the cumulative staircase of the paper.
    """
    times = sorted(r.milliseconds for r in result.solved)
    return [(t, i + 1) for i, t in enumerate(times)]
