"""Results and statistics of proof search."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.equations import Equation
from ..proofs.preproof import Preproof

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..proofs.certificate import ProofCertificate
    from ..semantics.falsify import Counterexample

__all__ = ["SearchStatistics", "ProofResult"]


@dataclass
class SearchStatistics:
    """Counters collected during one proof attempt."""

    nodes_created: int = 0
    """Proof vertices created (including vertices later rolled back)."""

    subst_attempts: int = 0
    """Candidate (Subst) instances explored."""

    case_splits: int = 0
    """(Case) applications explored."""

    congruence_steps: int = 0
    """(Cong) decompositions applied."""

    funext_steps: int = 0
    """(FunExt) applications applied."""

    soundness_checks: int = 0
    """Global-condition checks performed."""

    soundness_violations: int = 0
    """Checks that detected an unsound cycle (branch pruned)."""

    closure_compositions: int = 0
    """Size-change graph compositions performed by the closure."""

    max_depth_reached: int = 0
    """Deepest branch explored."""

    strategy: str = ""
    """Name of the search strategy that drove the agenda core."""

    max_agenda_size: int = 0
    """High-water mark of the explicit frame agenda (the old call-stack depth)."""

    choice_points_expanded: int = 0
    """Goals whose backtracking alternatives were opened on the agenda."""

    iterations: int = 0
    """Search rounds run (iterative deepening restarts; 1 for single-pass strategies)."""

    timeout_aborts: int = 0
    """Attempts aborted because the monotonic wall-clock deadline passed."""

    node_budget_aborts: int = 0
    """Attempts aborted because the vertex budget was exhausted."""

    elapsed_seconds: float = 0.0
    """Wall-clock duration of the attempt."""

    normalizer_hits: int = 0
    """Normal-form cache hits during the attempt (sharing paying off)."""

    normalizer_misses: int = 0
    """Normal-form cache misses during the attempt."""

    certificate_seconds: float = 0.0
    """Wall-clock cost of encoding the proof certificate (0 when not emitted)."""

    falsification_seconds: float = 0.0
    """Wall-clock cost of the ``falsify_first`` ground testing (0 when off)."""

    falsification_instances: int = 0
    """Ground instances tested by ``falsify_first`` (0 when off)."""

    rewrite_head_counts: dict = field(default_factory=dict)
    """Rewrite steps per head symbol, one per root reduction: the hot
    functions of the attempt, feeding ``hot_symbol_table``."""

    hints_offered: int = 0
    """Hypotheses supplied to the attempt (library lemmas, human hints) after
    :attr:`~repro.search.config.ProverConfig.max_hints` truncation."""

    hint_steps: int = 0
    """(Subst) steps of the *final* proof whose lemma is a supplied hypothesis
    — how much of the proof actually leaned on the hints (0 when the attempt
    failed, or proved the goal without touching them)."""

    phase_seconds: dict = field(default_factory=dict)
    """Exclusive wall-clock seconds per pipeline phase, from the attempt's
    :class:`~repro.search.phases.PhaseClock` (``soundness`` / ``normalise`` /
    ``match`` / ``lemma_prefilter`` / ``substitute`` / ``case_split`` /
    ``expand`` / ``agenda`` / ``falsify``; suite runners add ``store``).
    Feeds ``phase_profile_table`` and ``python -m repro profile``."""

    phase_counts: dict = field(default_factory=dict)
    """Hot-callsite counters: how often each phase was entered (one count per
    ``PhaseClock.push``), alongside :attr:`phase_seconds`."""

    @property
    def timed_out(self) -> bool:
        """Was the attempt aborted by the wall-clock deadline?"""
        return self.timeout_aborts > 0

    def summary(self) -> str:
        """A compact single-line rendering of the statistics."""
        aborted = ""
        if self.timeout_aborts:
            aborted = " aborted=timeout"
        elif self.node_budget_aborts:
            aborted = " aborted=node-budget"
        strategy = f" strategy={self.strategy}" if self.strategy else ""
        rounds = f"×{self.iterations}" if self.iterations > 1 else ""
        if self.falsification_instances:
            strategy += f" falsify={self.falsification_instances}"
        if self.hints_offered:
            strategy += f" hints={self.hint_steps}/{self.hints_offered}"
        return (
            f"nodes={self.nodes_created} subst={self.subst_attempts} "
            f"case={self.case_splits} soundness={self.soundness_checks} "
            f"violations={self.soundness_violations} "
            f"compositions={self.closure_compositions} "
            f"nf-cache={self.normalizer_hits}/{self.normalizer_hits + self.normalizer_misses} "
            f"agenda≤{self.max_agenda_size} choice-points={self.choice_points_expanded}"
            f"{strategy}{rounds} "
            f"time={self.elapsed_seconds * 1000:.1f}ms{aborted}"
        )


@dataclass
class ProofResult:
    """The outcome of one proof attempt."""

    proved: bool
    """Did the prover find a globally correct cyclic proof?"""

    equation: Equation
    """The goal equation."""

    disproved: bool = False
    """Did ground testing refute the goal?  (Mutually exclusive with
    :attr:`proved`; when set, :attr:`counterexample` carries the witness.)"""

    counterexample: Optional["Counterexample"] = None
    """The refuting instance found by ``falsify_first``
    (:class:`repro.semantics.falsify.Counterexample`; JSON-serialisable via
    ``to_dict`` and independently replayable via ``replay``)."""

    proof: Optional[Preproof] = None
    """The proof found (``None`` when the attempt failed)."""

    certificate: Optional["ProofCertificate"] = None
    """Portable encoding of :attr:`proof`, when the configuration asked for one
    (:attr:`repro.search.config.ProverConfig.emit_proofs`)."""

    statistics: SearchStatistics = field(default_factory=SearchStatistics)
    """Search counters."""

    reason: str = ""
    """Why the attempt failed (budget exhausted, no rule applicable, ...)."""

    goal_name: str = ""
    """The name of the goal, when proved from a :class:`repro.program.Goal`."""

    def __bool__(self) -> bool:
        return self.proved

    def __str__(self) -> str:
        if self.proved:
            status = "proved"
        elif self.disproved:
            status = "disproved"
            if self.counterexample is not None:
                status = f"disproved ({self.counterexample})"
        else:
            status = f"failed ({self.reason})" if self.reason else "failed"
        name = f"{self.goal_name}: " if self.goal_name else ""
        return f"{name}{self.equation} — {status} [{self.statistics.summary()}]"
