"""Compiled rewrite dispatch: per-symbol match trees over hash-consed terms.

Normalisation is the inner loop of everything the prover does, and until this
module it ran fully generic code at every cache-missed node: a discrimination
tree candidate lookup followed by first-order matching
(:func:`repro.core.matching.match_or_none`) per candidate, a fresh
:class:`~repro.core.substitution.Substitution` per match, and a memoised term
traversal to instantiate the right-hand side.  The ground evaluator
(:mod:`repro.semantics.evaluator`) demonstrated that compiling each defined
symbol's rules into one Maranget-style decision tree beats that machinery by
an order of magnitude; this module transfers the technique to *open* terms.

A :class:`CompiledRewriteSystem` takes, per defined head symbol, the match
tree that :mod:`repro.rewriting.matchtree` builds from that symbol's rules and
emits it as a walk over the hash-consed term DAG:

* **switches** test constructor tags positionally — one probe of the target
  subterm's cached spine head (``_head``) plus one integer comparison on its
  cached spine length (``_nargs``), the spine length the tree records per
  case;
* **leaves** bind the matched variables through fixed attribute chains into
  the rule's right-hand side, rebuilt through the owning
  :class:`~repro.core.interning.TermBank` with ground subterms folded to
  interned constants at compile time.

The tree is then *emitted as Python source* — one generated function per head
symbol, ``exec``-compiled once and cached — so a root reduction at runtime is
a single call frame of attribute loads, tag comparisons and ``bank.app``
calls: no candidate iteration, no matcher, no substitution object, no
per-node closure frames.

Matching open terms differs from evaluating ground ones in exactly one place:
a scrutinee need not be a fully applied constructor.  Stuck applications,
variables and partial constructor applications can only match rule rows whose
pattern at that position is a variable, so they take the switch's *default*
branch (and fail the match when there is none) — which is precisely the
generic matcher's behaviour, since a symbol-headed pattern spine only matches
a target spine with the same head and length.

**Fallback.**  A head whose rules :func:`~repro.rewriting.matchtree.compile_head`
declines (the fragment is listed there; declined shapes can enter through
``add_rule(validate=False)`` during completion) is marked *generic* as a
whole: :meth:`CompiledRewriteSystem.matcher_for` returns ``None`` and the
normaliser runs the candidate+match loop for that symbol.  Per-head
granularity keeps first-match declaration-order semantics exact; the match
trees themselves preserve it too, so compiled and generic dispatch agree
rule-for-rule even on overlapping, non-orthogonal systems.

**Invalidation.**  Compiled trees are only sound for a fixed rule set.  Every
tree records the :attr:`~repro.rewriting.trs.RewriteSystem.epoch` it was
built at, and :meth:`CompiledRewriteSystem.for_system` memoises one compiled
system per ``(rewrite system, epoch, bank)`` on the system object itself (the
same single-slot pattern as ``Evaluator.for_program``), so completion and
rewriting induction that extend rules mid-run get a fresh compile on the next
probe while suite runs share one compile across thousands of goals.
Compilation is lazy per head: only symbols actually reached during
normalisation pay compile time, and :attr:`CompiledRewriteSystem.compile_seconds`
accounts for it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..core.terms import Term, Var
from .matchtree import FAIL, LEAF, MatchCompilationDeclined, compile_head
from .rules import RewriteRule
from .trs import RewriteSystem

__all__ = ["CompiledRewriteSystem", "MatchCompilationDeclined"]


def _never_matches(term: Term) -> Optional[Term]:
    """The matcher of a head with no rules (constructors, stuck symbols)."""
    return None


class CompiledRewriteSystem:
    """Per-head compiled match trees over one rewrite system and one bank.

    Use :meth:`for_system` (memoised per epoch) rather than the constructor;
    :class:`~repro.rewriting.reduction.Normalizer` does, and is the intended
    consumer.  All emitted closures build reducts through ``bank``, so the
    results land in the owning normaliser's bank exactly like the terms it
    interns itself.
    """

    def __init__(self, system: RewriteSystem, bank):
        self.system = system
        self.bank = bank
        self.epoch = system.epoch
        """The rule epoch the trees were compiled at (staleness check)."""

        # head -> matcher closure, or None when the head's rules were declined
        # (the normaliser then runs the generic loop for that head).
        self._matchers: Dict[str, Optional[Callable[[Term], Optional[Term]]]] = {}
        self.compile_seconds = 0.0
        """Wall-clock time spent compiling match trees (lazily, per head)."""

        self.compiled_heads = 0
        """Heads compiled to a match tree (includes rule-less heads)."""

        self.declined_heads = 0
        """Heads declined to the generic matcher (fragment violations)."""

    @classmethod
    def for_system(cls, system: RewriteSystem, bank) -> "CompiledRewriteSystem":
        """The (cached) compiled form of ``system`` for ``bank``.

        One slot per system object, keyed by ``(epoch, bank)``: a rule added
        through the system invalidates the slot, a different bank replaces it.
        """
        cached = getattr(system, "_compiled_cache", None)
        if cached is not None and cached[0] == system.epoch and cached[1] is bank:
            return cached[2]
        compiled = cls(system, bank)
        system._compiled_cache = (system.epoch, bank, compiled)
        return compiled

    # -- dispatch --------------------------------------------------------------

    def matcher_for(self, head: str) -> Optional[Callable[[Term], Optional[Term]]]:
        """The compiled matcher of one head symbol, or ``None`` for fallback.

        A matcher maps a spine-headed term to its root reduct by the first
        matching rule (declaration order), or to ``None`` when no rule
        matches.  ``None`` *as the matcher itself* means the head was declined
        and the caller must run the generic candidate+match loop.
        """
        matcher = self._matchers.get(head, _UNSEEN)
        if matcher is _UNSEEN:
            matcher = self._build_head(head)
        return matcher

    def _build_head(self, head: str) -> Optional[Callable]:
        started = time.perf_counter()
        rules = self.system.rules_for(head)
        matcher: Optional[Callable]
        try:
            matcher = _never_matches if not rules else self._compile_rules(head, rules)
            self.compiled_heads += 1
        except MatchCompilationDeclined:
            matcher = None
            self.declined_heads += 1
        self._matchers[head] = matcher
        self.compile_seconds += time.perf_counter() - started
        return matcher

    # -- compilation ---------------------------------------------------------

    def _compile_rules(self, head: str, rules: Tuple[RewriteRule, ...]) -> Callable:
        arity, tree = compile_head(head, rules, self.system.signature)
        return self._emit_matcher(head, arity, tree)

    # -- emission --------------------------------------------------------------

    def _emit_matcher(self, head: str, arity: int, tree: tuple) -> Callable:
        """Emit one head's match tree as Python source and compile it.

        The generated function takes the spine-headed term and returns its
        root reduct by the first matching rule, or ``None``.  Occurrences
        become fixed attribute chains bound to locals on first use (and only
        within the branch that established the constructor making the chain
        valid): child ``j`` of an ``m``-ary spine is ``m - 1 - j`` steps into
        ``.fun`` and one into ``.arg``, where ``m`` is the spine length the
        enclosing switch case records (the head's arity at the root).
        Switches become ``if``/``elif`` chains over ``_head`` tags and
        ``_nargs`` lengths; leaves return the right-hand side rebuilt through
        ``bank.app``, with ground subterms pre-interned into the namespace as
        constants.  ``exec`` runs once per (head, epoch) — every later root
        reduction is one plain function call.
        """
        if tree[0] == FAIL:
            return _never_matches
        bank = self.bank
        namespace: Dict[str, object] = {"_app": bank.app}
        lines: List[str] = [
            "def _matcher(term):",
            f"    if term._nargs != {arity}:",
            "        return None",
        ]
        counter = [0]
        # Spine length at each switched occurrence.  Each case rebinds its
        # own, which is sound because emission is depth-first and a subtree
        # only reads lengths bound on its own path.
        spine_length: Dict[tuple, int] = {(): arity}

        def fresh(prefix: str) -> str:
            counter[0] += 1
            return f"{prefix}{counter[0]}"

        def ensure(occurrence: tuple, bound: Dict[tuple, str], indent: int) -> str:
            name = bound.get(occurrence)
            if name is not None:
                return name
            parent = "term" if len(occurrence) == 1 else ensure(occurrence[:-1], bound, indent)
            steps = spine_length[occurrence[:-1]] - 1 - occurrence[-1]
            name = fresh("v")
            lines.append(f"{' ' * indent}{name} = {parent}{'.fun' * steps}.arg")
            bound[occurrence] = name
            return name

        def constant(term: Term) -> str:
            name = f"_k{len(namespace)}"
            namespace[name] = bank.intern(term)
            return name

        def rhs_expr(term: Term, slots: Dict[str, str]) -> str:
            if not term._fvs:
                return constant(term)
            if isinstance(term, Var):
                return slots[term.name]
            return f"_app({rhs_expr(term.fun, slots)}, {rhs_expr(term.arg, slots)})"

        def emit(node: tuple, bound: Dict[tuple, str], indent: int) -> None:
            pad = " " * indent
            if node[0] == LEAF:
                _, bindings, rhs = node
                slots = {
                    var: ensure(occurrence, bound, indent)
                    for var, occurrence in bindings.items()
                }
                lines.append(f"{pad}return {rhs_expr(rhs, slots)}")
                return
            if node[0] == FAIL:  # pragma: no cover - matrices prune empty cases
                lines.append(f"{pad}return None")
                return
            _, occurrence, cases, default = node
            scrutinee = ensure(occurrence, bound, indent)
            tag = fresh("h")
            lines.append(f"{pad}{tag} = {scrutinee}._head")
            branch = "if"
            for con, (nargs, subtree) in cases.items():
                lines.append(
                    f"{pad}{branch} {tag} == {con!r} and {scrutinee}._nargs == {nargs}:"
                )
                spine_length[occurrence] = nargs
                emit(subtree, dict(bound), indent + 4)
                branch = "elif"
            lines.append(f"{pad}else:")
            if default is None:
                lines.append(f"{pad}    return None")
            else:
                emit(default, dict(bound), indent + 4)

        emit(tree, {}, 4)
        code = compile("\n".join(lines), f"<compiled rules: {head}>", "exec")
        exec(code, namespace)
        return namespace["_matcher"]


_UNSEEN = object()
