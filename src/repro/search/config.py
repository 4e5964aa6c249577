"""Configuration of the CycleQ proof-search algorithm.

The defaults correspond to the strategy described in Section 6 of the paper:
bounded depth-first search, lemmas restricted to (Case)-justified nodes
(Section 5.1), and incremental size-change soundness checking (Section 5.2).
The remaining knobs exist for the ablation experiments in ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ProverConfig", "LEMMAS_CASE_ONLY", "LEMMAS_ALL", "LEMMAS_NONE", "STRATEGY_DFS"]

STRATEGY_DFS = "dfs"
"""The default search strategy: the paper's bounded depth-first search."""

LEMMAS_CASE_ONLY = "case-only"
"""Only (Case)-justified nodes may serve as lemmas — the paper's restriction."""

LEMMAS_ALL = "all"
"""Every justified node may serve as a lemma (ablation; much larger search space)."""

LEMMAS_NONE = "none"
"""Disable the (Subst) rule entirely (ablation; no cycles can be formed)."""


@dataclass(frozen=True)
class ProverConfig:
    """Tunable parameters of the proof search."""

    max_depth: int = 14
    """Maximum number of (Subst)/(Case) applications along a single branch."""

    max_case_splits: int = 5
    """Maximum number of (Case) applications along a single branch."""

    max_nodes: int = 4000
    """Total vertex budget for one proof attempt."""

    max_subst_applications_per_goal: int = 24
    """How many candidate (Subst) instances are tried for a single subgoal."""

    max_goal_size: int = 300
    """Maximum size (in term nodes) of a subgoal created by (Subst).

    Rewriting with a lemma can grow the goal; continuations larger than this
    bound are not explored, which keeps the failing branches of the search from
    chasing ever larger terms."""

    lemma_restriction: str = LEMMAS_CASE_ONLY
    """Which nodes are eligible lemmas: ``case-only`` (paper), ``all``, or ``none``."""

    strategy: str = STRATEGY_DFS
    """Which search strategy drives the agenda core (:mod:`repro.search.agenda`).

    ``dfs`` (the paper's depth-first search, byte-for-byte the historical
    expansion order), ``iddfs`` (iterative deepening on case depth), or
    ``best-first`` (priority-queue ordering by normalised goal size).  New
    strategies register themselves in ``repro.search.agenda.STRATEGIES``."""

    incremental_soundness: bool = True
    """Maintain the size-change closure incrementally (Section 5.2).

    When ``False`` the global condition is recomputed from scratch every time a
    potentially cycle-forming edge is added — the strategy the paper identifies
    as a bottleneck in Cyclist-style provers."""

    use_congruence: bool = True
    """Apply constructor decomposition eagerly (Section 6)."""

    use_funext: bool = True
    """Apply function extensionality to goals of arrow type (Section 6)."""

    timeout: Optional[float] = 5.0
    """Wall-clock budget in seconds for one proof attempt (``None`` = unlimited)."""

    falsify_first: bool = False
    """Test the goal on ground instances before searching for a proof.

    When set, every attempt first runs the compiled-evaluator falsifier
    (:mod:`repro.semantics.falsify`); a refuted goal returns a ``disproved``
    :class:`~repro.search.result.ProofResult` carrying a replayable
    :class:`~repro.semantics.falsify.Counterexample` and never enters proof
    search.  Conditional goals — out of scope for the proof system — can still
    be *disproved* this way.  Part of the configuration fingerprint, like
    every other field."""

    emit_proofs: bool = False
    """Attach a portable :class:`~repro.proofs.certificate.ProofCertificate`
    to every successful result (:attr:`repro.search.result.ProofResult.certificate`).

    Certificates are bank-independent primitive data, so they survive process
    boundaries and result-store round trips; re-check them with
    :func:`repro.proofs.checker.check_certificate` or ``python -m repro check``.
    Part of the configuration fingerprint: an outcome persisted without a
    certificate is never replayed for a run that expects one."""

    max_hints: Optional[int] = None
    """Cap on externally supplied hypotheses per attempt (``None`` = no cap).

    Hints beyond the cap are dropped *in order* (earlier hints win — callers
    such as the proof service rank their library lemmas before offering them).
    Every hypothesis becomes an unjustified (Hyp) vertex that the (Subst) rule
    may instantiate, so an unbounded hint list inflates the branching factor
    of every subgoal; services offering a whole lemma library set this.  Part
    of the configuration fingerprint like every other field."""

    def with_(self, **changes) -> "ProverConfig":
        """A copy of the configuration with the given fields replaced."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.lemma_restriction not in (LEMMAS_CASE_ONLY, LEMMAS_ALL, LEMMAS_NONE):
            raise ValueError(f"unknown lemma restriction {self.lemma_restriction!r}")
        if self.max_depth < 1 or self.max_nodes < 1:
            raise ValueError("search bounds must be positive")
        if self.max_hints is not None and self.max_hints < 0:
            raise ValueError("max_hints must be non-negative (or None for no cap)")
        # Deferred import: agenda holds the strategy registry and must stay
        # importable without the configuration module (and vice versa).
        from .agenda import get_strategy

        get_strategy(self.strategy)
