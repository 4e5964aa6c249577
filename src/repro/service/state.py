"""Warm per-theory state: everything worth keeping resident between requests.

One :class:`WarmState` bundles what a cold request must otherwise rebuild —
the elaborated :class:`~repro.program.Program` in its own private
:class:`~repro.core.interning.TermBank`, the compiled ground
:class:`~repro.semantics.evaluator.Evaluator`, a
:class:`~repro.proofs.checker.CertificateChecker` bound to the program, and
the per-goal :class:`~repro.benchmarks_data.registry.BenchmarkProblem` views.
A :class:`WarmStateCache` keeps a bounded number of these alive, LRU-evicted,
keyed by the *source text* digest (two submissions of byte-identical source
share one entry; the content-addressed ``Program.fingerprint()`` is computed
once and exposed for store/library keying).

Invariant: the terms inside a warm state never leave it.  Requests receive
verdicts, certificates, and counterexamples — primitive data — and workers
re-elaborate from source in their own banks.  The bank here exists so the
*parent* side (store-key rendering, hint parsing, certificate verification,
ground falsification) is warm, not so terms can be shared.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

__all__ = ["WarmState", "WarmStateCache"]


class WarmState:
    """The resident artifacts of one theory (one program source text)."""

    def __init__(self, source: str, suite: str):
        from ..benchmarks_data.registry import BenchmarkProblem
        from ..core.interning import TermBank, use_bank
        from ..lang.loader import load_program
        from ..proofs.checker import CertificateChecker
        from ..semantics.evaluator import CompilationError, Evaluator

        self.source = source
        self.suite = suite
        self.built_at = time.monotonic()
        #: Serialises bank-touching parent-side work (parsing conjectures or
        #: hints into the warm bank, certificate checks through the warm
        #: checker) across concurrent request threads.  The bank's intern
        #: tables are plain dicts — two threads racing a miss on the same
        #: node would each create one, breaking identity-equality.
        self.guard = threading.RLock()
        #: Private bank: the warm program's terms never mix with the ambient
        #: bank of whoever drives the service (or with another theory's).
        self.bank = TermBank()
        with use_bank(self.bank):
            self.program = load_program(source, name=suite)
            self.fingerprint = self.program.fingerprint()
            #: Compiled ground evaluator (cached *on the program*, so any
            #: falsification against this warm program reuses it); ``None``
            #: when the program is outside the compilable fragment.
            try:
                self.evaluator: Optional[Evaluator] = Evaluator.for_program(self.program)
            except CompilationError:
                self.evaluator = None
        #: Checker bound to the warm program: library lemmas are verified
        #: against it without re-elaborating the source per lemma.  (It
        #: decodes certificates into throwaway banks of its own.)
        self.checker = CertificateChecker(self.program, name=suite)
        self.problems: Dict[str, BenchmarkProblem] = {
            name: BenchmarkProblem(name=name, suite=suite, goal=goal, program=self.program)
            for name, goal in self.program.goals.items()
        }
        #: Goals submitted with requests (name -> problem), parsed lazily into
        #: the warm bank; kept so a repeat submission of the same conjecture
        #: reuses the parsed form.
        self.extra_problems: Dict[str, Tuple[str, object]] = {}

    def problem_for(self, name: str, equation_source: Optional[str] = None):
        """The problem view of a goal, adding ``equation_source`` if unknown.

        Raises ``KeyError`` for an unknown name without an equation, and
        ``repro.core.exceptions.CycleQError`` (or subclasses) for an equation
        that does not parse against this theory.
        """
        from ..benchmarks_data.registry import BenchmarkProblem
        from ..core.interning import use_bank
        from ..program import Goal

        if equation_source is None:
            return self.problems[name]
        with self.guard:
            cached = self.extra_problems.get(name)
            if cached is not None and cached[0] == equation_source:
                return cached[1]
            with use_bank(self.bank):
                equation = self.program.parse_equation(equation_source)
            problem = BenchmarkProblem(
                name=name, suite=self.suite, goal=Goal(name=name, equation=equation),
                program=self.program,
            )
            self.extra_problems[name] = (equation_source, problem)
            return problem

    def goal_names(self) -> List[str]:
        return list(self.problems)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmState({self.suite!r}, fingerprint {self.fingerprint[:12]}…, "
            f"{len(self.problems)} goal(s), evaluator={'yes' if self.evaluator else 'no'})"
        )


class WarmStateCache:
    """Bounded LRU cache of :class:`WarmState`, keyed by source-text digest."""

    def __init__(self, capacity: int = 8):
        self.capacity = max(1, int(capacity))
        self._states: "OrderedDict[str, WarmState]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        #: Per-source build locks: two concurrent requests for the same new
        #: theory build it once (the loser waits, then hits), while requests
        #: for *different* theories build in parallel.
        self._building: Dict[str, threading.Lock] = {}

    @staticmethod
    def source_key(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def get(self, source: str, suite: str) -> Tuple[WarmState, bool]:
        """The warm state for ``source``, building it on a miss.

        Returns ``(state, was_warm)``; a build error (source that does not
        elaborate) propagates to the caller and caches nothing.  Thread-safe:
        concurrent misses on one source serialise on a per-source build lock,
        so the expensive elaboration happens exactly once.
        """
        key = self.source_key(source)
        with self._lock:
            state = self._states.get(key)
            if state is not None:
                self.hits += 1
                self._states.move_to_end(key)
                return state, True
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                state = self._states.get(key)
                if state is not None:
                    # Lost the build race: the winner's state counts as warm.
                    self.hits += 1
                    self._states.move_to_end(key)
                    return state, True
            state = WarmState(source, suite)
            with self._lock:
                self.misses += 1
                self._states[key] = state
                self._building.pop(key, None)
                while len(self._states) > self.capacity:
                    self._states.popitem(last=False)
                    self.evictions += 1
        return state, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._states)

    def __contains__(self, source: str) -> bool:
        with self._lock:
            return self.source_key(source) in self._states

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._states),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
