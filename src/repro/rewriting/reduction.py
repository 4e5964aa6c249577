"""Reduction: one-step rewriting and normalisation.

The one-step relation is the contextual closure of the rules: ``C[M theta] ->_R
C[N theta]`` whenever ``M -> N`` is a rule.  Normalisation uses the
leftmost-outermost strategy, which is normalising for the orthogonal systems
produced by functional programs, and is what the paper's (Reduce) rule and the
semantics of equations (``M alpha ↓_R``) rely on.

Rule lookup goes through the discrimination-tree index of the
:class:`~repro.rewriting.trs.RewriteSystem`, so each candidate position only
pays for the rules that could plausibly match there.

A :class:`Normalizer` caches normal forms — proof search normalises the same
subgoals repeatedly, and the cache is shared across a whole proof attempt.
With hash-consed terms the cache is keyed by the node's bank id, so a lookup
is a single integer-keyed dict probe (equality within a bank is identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from ..core.exceptions import RewriteError
from ..core.interning import TermBank, current_bank
from ..core.matching import match_or_none
from ..core.substitution import Substitution
from ..core.terms import App, Position, Term, positions, replace_at
from .rules import RewriteRule
from .trs import RewriteSystem

__all__ = [
    "Redex",
    "find_redex",
    "one_step",
    "reducts",
    "is_normal_form",
    "normalize",
    "Normalizer",
]

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class Redex:
    """A redex: the position, the rule that applies there, and the matcher."""

    position: Position
    rule: RewriteRule
    subst: Substitution


def _match_rules(system: RewriteSystem, sub: Term) -> Optional[Tuple[RewriteRule, Substitution]]:
    """Find the first rule whose left-hand side matches ``sub``."""
    if sub._head is None:
        return None  # variable-headed spine: no rule can match
    for rule in system.matching_candidates(sub):
        theta = match_or_none(rule.lhs, sub)
        if theta is not None:
            return rule, theta
    return None


def find_redex(system: RewriteSystem, term: Term) -> Optional[Redex]:
    """The leftmost-outermost redex of ``term``, if any."""
    for position, sub in positions(term):
        found = _match_rules(system, sub)
        if found is not None:
            rule, theta = found
            return Redex(position, rule, theta)
    return None


def one_step(system: RewriteSystem, term: Term) -> Optional[Term]:
    """Perform one leftmost-outermost reduction step, or ``None`` if in normal form."""
    redex = find_redex(system, term)
    if redex is None:
        return None
    return replace_at(term, redex.position, redex.subst.apply(redex.rule.rhs))


def reducts(system: RewriteSystem, term: Term) -> Iterator[Term]:
    """All one-step reducts of ``term`` (every redex, every applicable rule)."""
    for position, sub in positions(term):
        if sub._head is None:
            continue
        for rule in system.matching_candidates(sub):
            theta = match_or_none(rule.lhs, sub)
            if theta is not None:
                yield replace_at(term, position, theta.apply(rule.rhs))


def is_normal_form(system: RewriteSystem, term: Term) -> bool:
    """Is ``term`` in normal form with respect to the system?"""
    return find_redex(system, term) is None


def normalize(system: RewriteSystem, term: Term, max_steps: int = DEFAULT_MAX_STEPS) -> Term:
    """The normal form of ``term`` under a **per-root** step budget.

    The budget semantics are those of :class:`Normalizer` (this function is a
    thin wrapper over a fresh instance): every cache-missed subterm root gets
    ``max_steps`` root reductions of its own, rather than one global count
    across the whole term.  Per-root is the right unit for a
    divergence guard — it bounds the only loop that can actually run away
    (reducing one position forever) without making the effective budget of a
    subterm depend on how large the surrounding term happened to be.
    Historically this wrapper counted globally while :class:`Normalizer`
    counted per root, so the same term could normalise on one path and raise
    on the other; the two paths now share one implementation and one
    documented meaning.

    Raises :class:`RewriteError` when the step budget is exhausted, which in
    practice signals a non-terminating definition (outside the paper's
    standing assumptions).
    """
    return Normalizer(system, max_steps=max_steps).normalize(term)


class Normalizer:
    """A normalisation engine with an identity-keyed normal-form cache.

    The cache maps subterms already seen to their normal forms, which makes the
    repeated normalisation performed by proof search cheap.  Terms are interned
    into the normaliser's bank on entry (a no-op for terms already built
    through it, which is the common case), so the cache key is the node's
    stable integer id and a hit costs one dict probe.

    Root reduction is one path for every client — proof search, proof
    checking, counterexample replay: the index's candidate lookup followed by
    first-order matching, first matching rule in declaration order wins.
    Every root step bumps :attr:`head_steps` for the redex's head symbol.

    The normal-form cache is only sound for a fixed rule set, so the
    normaliser watches the system's
    :attr:`~repro.rewriting.trs.RewriteSystem.epoch` and clears the cache when
    rules are added mid-run (Knuth-Bendix completion, rewriting induction).

    The step budget is **per root**: every cache-missed subterm gets
    ``max_steps`` root reductions of its own (see the module-level
    :func:`normalize`, which shares these semantics).  ``max_total_steps``
    optionally caps :attr:`steps_taken` as well, across every root and every
    :meth:`normalize` call: a per-root budget alone never stops a runaway
    that nests a fresh root per step (``f x = S (f x)``).
    """

    def __init__(
        self,
        system: RewriteSystem,
        max_steps: int = DEFAULT_MAX_STEPS,
        bank: Optional[TermBank] = None,
        max_total_steps: Optional[int] = None,
    ):
        self.system = system
        self.max_steps = max_steps
        self.max_total_steps = max_total_steps
        # `is not None`, not truthiness: an empty TermBank is falsy (len 0).
        self._bank = bank if bank is not None else current_bank()
        self._cache: Dict[int, Term] = {}
        self.steps_taken = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.head_steps: Dict[str, int] = {}
        self._epoch = system.epoch

    def normalize(self, term: Term) -> Term:
        """The cached normal form of ``term``."""
        if self.system.epoch != self._epoch:
            self._cache.clear()
            self._epoch = self.system.epoch
        if term._bank is not self._bank:
            term = self._bank.intern(term)
        cached = self._cache.get(term._id)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        return self._normalize_iterative(term)

    def __call__(self, term: Term) -> Term:
        return self.normalize(term)

    # Work-stack opcodes of the iterative normaliser.
    _NORM = 0     # payload: a term — probe the cache, or open a frame
    _ENTER = 1    # payload: a frame — schedule the children, then _FINISH
    _FINISH = 2   # payload: a frame — rebuild from child NFs, reduce the root

    def _normalize_iterative(self, root: Term) -> Term:
        """Normalise without recursing per term level.

        Same discipline as before the agenda refactor — arguments first
        through the cache, then reduce at the root until stuck, which agrees
        with the leftmost-outermost normal form on confluent systems — but on
        explicit work/value stacks: proof search on the iterative agenda core
        can build terms deeper than ``sys.getrecursionlimit()``, and their
        normalisation must not be the code path that overflows.

        Frames are ``[orig, current, root_steps, children_pending]``; one
        frame is one cache-missed term being normalised.

        Everything the loop touches per node is bound to a local: at a few
        hundred thousand opcodes per proof attempt, attribute probes on
        ``self`` are a measurable fraction of normalisation.
        """
        tasks = [(self._ENTER, [root, root, 0, False])]
        values = []  # resolved normal forms, consumed by _FINISH
        push = tasks.append
        pop = tasks.pop
        emit = values.append
        cache = self._cache
        bank = self._bank
        bank_app = bank.app
        system = self.system
        max_steps = self.max_steps
        max_total_steps = self.max_total_steps
        if max_total_steps is None:
            max_total_steps = float("inf")
        head_steps = self.head_steps
        while tasks:
            op, payload = pop()
            if op == 0:  # _NORM
                term = payload
                if term._bank is not bank:
                    term = bank.intern(term)
                cached = cache.get(term._id)
                if cached is not None:
                    self.cache_hits += 1
                    emit(cached)
                    continue
                self.cache_misses += 1
                push((1, [term, term, 0, False]))
            elif op == 1:  # _ENTER
                frame = payload
                current = frame[1]
                if isinstance(current, App):
                    # fun is pushed last so it resolves first, as the
                    # recursive normaliser did.
                    frame[3] = True
                    push((2, frame))
                    push((0, current.arg))
                    push((0, current.fun))
                else:
                    frame[3] = False
                    push((2, frame))
            else:  # _FINISH
                frame = payload
                orig, current, steps, children_pending = frame
                if children_pending:
                    arg_nf = values.pop()
                    fun_nf = values.pop()
                    if fun_nf is not current.fun or arg_nf is not current.arg:
                        current = bank_app(fun_nf, arg_nf)
                found = _match_rules(system, current)
                if found is None:
                    cache[orig._id] = current
                    emit(current)
                    continue
                rule, theta = found
                head = current._head
                head_steps[head] = head_steps.get(head, 0) + 1
                current = theta.apply(rule.rhs)
                if current._bank is not bank:
                    # A ground right-hand side comes back as the rule's own
                    # node, which lives in the bank the rules were built in.
                    current = bank.intern(current)
                taken = self.steps_taken + 1
                self.steps_taken = taken
                steps += 1
                if taken >= max_total_steps:
                    # No term in the message: the runaway's terms can be
                    # too deep for the recursive printer.
                    raise RewriteError(
                        f"normalisation exceeded {max_total_steps} steps in total"
                    )
                if steps >= max_steps:
                    raise RewriteError(
                        f"normalisation of {orig} exceeded {max_steps} steps"
                    )
                frame[1] = current
                frame[2] = steps
                push((1, frame))
        assert len(values) == 1
        return values[0]

    def cache_size(self) -> int:
        """The number of cached normal forms."""
        return len(self._cache)

    def cache_stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (see :mod:`repro.harness.report`)."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "steps": self.steps_taken,
        }

    def clear(self) -> None:
        """Empty the cache (the hit/miss counters are kept)."""
        self._cache.clear()
