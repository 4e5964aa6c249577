"""The CycleQ prover: goal-directed cyclic proof search (Section 6).

The prover searches with the rule priority of the paper: reduction,
reflexivity, congruence (constructor decomposition), function extensionality,
substitution, case analysis.  The first four always simplify the goal and are
applied eagerly without backtracking; (Subst) and (Case) are backtracking
choice points.

The search itself runs on the explicit-agenda core of
:mod:`repro.search.agenda`: every goal is a :class:`~repro.search.agenda.Frame`
on an explicit stack, rule instances are streamed as alternatives, and a
:class:`~repro.search.agenda.SearchStrategy` (``ProverConfig.strategy``)
decides the order in which alternatives and AND-subgoals are pursued.  The
default ``dfs`` strategy expands nodes in exactly the order of the original
recursive implementation — but no code path recurses per proof node, so deep
case splits and congruence chains cannot hit Python's recursion limit.

Cycle formation is mediated by (Subst) used as a matching function: the lemma
of every (Subst) instance is an *existing node of the proof under
construction*, restricted by default to (Case)-justified nodes (the redundancy
eliminations of Section 5.1).  Global correctness is enforced during the search
by annotating every edge with its size-change graph and maintaining the closure
incrementally (Section 5.2): the moment a newly formed cycle admits no
infinitely progressing variable trace, the branch is pruned.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.equations import Equation
from ..core.matching import match_or_none
from ..core.substitution import Substitution
from ..core.terms import (
    App,
    FreshNameSupply,
    Position,
    Sym,
    Term,
    Var,
    apply_term,
    free_vars,
    positions,
    replace_at,
    spine,
    term_size,
)
from ..core.types import DataTy, FunTy
from ..program import Goal, Program
from ..proofs.preproof import (
    RULE_CASE,
    RULE_CONG,
    RULE_FUNEXT,
    RULE_HYP,
    RULE_REDUCE,
    RULE_REFL,
    RULE_SUBST,
    Preproof,
    ProofNode,
)
from ..proofs.soundness import edge_size_change_graph, proof_size_change_graphs
from ..rewriting.narrowing import case_candidates
from ..rewriting.reduction import Normalizer
from ..sizechange.closure import IncrementalClosure, check_global_condition
from .agenda import (
    Alternative,
    BudgetExhausted,
    Frame,
    SearchBudget,
    get_strategy,
    run_choice_points,
)
from .config import LEMMAS_ALL, LEMMAS_CASE_ONLY, LEMMAS_NONE, ProverConfig
from .phases import PhaseClock
from .result import ProofResult, SearchStatistics

__all__ = ["Prover", "prove", "prove_goal"]


class Prover:
    """A reusable prover bound to one program and one configuration."""

    def __init__(self, program: Program, config: Optional[ProverConfig] = None):
        self.program = program
        self.config = config or ProverConfig()
        self.config.validate()

    # -- public API ----------------------------------------------------------

    def prove(
        self,
        equation: Equation,
        goal_name: str = "",
        hypotheses: Sequence[Equation] = (),
        budget: Optional[SearchBudget] = None,
    ) -> ProofResult:
        """Attempt to prove a single (unconditional) equation.

        ``hypotheses`` are externally supplied lemmas (e.g. produced by a theory
        exploration tool, a human hint, or the rewriting-induction translation
        of Section 4).  They become unjustified hypothesis vertices of the
        preproof — the result is then a *partial* proof in the sense of
        Definition 4.3 — and are eligible as (Subst) lemmas.

        ``budget`` is an optional outer :class:`SearchBudget` (e.g. the theory
        explorer's whole-phase budget); the attempt aborts when either it or
        the configuration's own timeout expires.

        With :attr:`~repro.search.config.ProverConfig.falsify_first` the goal
        is first tested on ground instances through the compiled evaluator; a
        refuted goal returns a ``disproved`` result (with its counterexample)
        without entering search, and the falsification cost is charged to the
        result's statistics either way.
        """
        falsify_seconds = 0.0
        falsify_instances = 0
        if self.config.falsify_first:
            from ..semantics.falsify import FalsificationConfig, falsify_equation

            # The pre-pass honours the attempt's own wall-clock budget: a
            # slow falsification must degrade to "fewer instances tested",
            # never to an attempt that overruns its configured timeout.
            falsified = falsify_equation(
                self.program,
                equation,
                config=FalsificationConfig(timeout=self.config.timeout),
                goal_name=goal_name,
            )
            falsify_seconds = falsified.seconds
            falsify_instances = falsified.instances_tested
            if falsified.counterexample is not None:
                statistics = SearchStatistics(
                    strategy=self.config.strategy,
                    elapsed_seconds=falsified.seconds,
                    falsification_seconds=falsify_seconds,
                    falsification_instances=falsify_instances,
                    phase_seconds={"falsify": falsify_seconds},
                )
                return ProofResult(
                    proved=False,
                    disproved=True,
                    equation=equation,
                    counterexample=falsified.counterexample,
                    statistics=statistics,
                    reason="counterexample found by ground testing",
                    goal_name=goal_name,
                )
        limit = self.config.max_hints
        if limit is not None and len(hypotheses) > limit:
            # Earlier hints win: callers rank their lemmas before offering.
            hypotheses = tuple(hypotheses)[:limit]
        attempt = _ProofAttempt(self.program, self.config)
        result = attempt.run(equation, goal_name, hypotheses=hypotheses, budget=budget)
        result.statistics.falsification_seconds = falsify_seconds
        result.statistics.falsification_instances = falsify_instances
        if falsify_seconds:
            result.statistics.phase_seconds["falsify"] = falsify_seconds
        return result

    def prove_goal(self, goal: Goal, hypotheses: Sequence[Equation] = ()) -> ProofResult:
        """Attempt to prove a named goal; conditional goals fail as out of scope.

        A conditional goal cannot be *proved* by the unconditional proof
        system, but with ``falsify_first`` it can still be **disproved**: the
        falsifier tests instances on which every premise holds, so a
        counterexample genuinely refutes the implication.
        """
        if goal.is_conditional:
            if self.config.falsify_first:
                from ..semantics.falsify import FalsificationConfig, falsify_goal

                falsified = falsify_goal(
                    self.program,
                    goal,
                    FalsificationConfig(timeout=self.config.timeout),
                )
                if falsified.counterexample is not None:
                    statistics = SearchStatistics(
                        strategy=self.config.strategy,
                        elapsed_seconds=falsified.seconds,
                        falsification_seconds=falsified.seconds,
                        falsification_instances=falsified.instances_tested,
                        phase_seconds={"falsify": falsified.seconds},
                    )
                    return ProofResult(
                        proved=False,
                        disproved=True,
                        equation=goal.equation,
                        counterexample=falsified.counterexample,
                        statistics=statistics,
                        reason="counterexample found by ground testing",
                        goal_name=goal.name,
                    )
            return ProofResult(
                proved=False,
                equation=goal.equation,
                reason="conditional goal: out of scope for the unconditional proof system",
                goal_name=goal.name,
            )
        return self.prove(goal.equation, goal_name=goal.name, hypotheses=hypotheses)


def prove(program: Program, equation: Equation, config: Optional[ProverConfig] = None) -> ProofResult:
    """Convenience wrapper: prove one equation over ``program``."""
    return Prover(program, config).prove(equation)


def prove_goal(program: Program, goal: Goal, config: Optional[ProverConfig] = None) -> ProofResult:
    """Convenience wrapper: prove one named goal over ``program``."""
    return Prover(program, config).prove_goal(goal)


class _ProofAttempt:
    """The mutable state of a single proof attempt.

    Implements the *calculus* protocol of
    :func:`repro.search.agenda.run_choice_points`: :meth:`expand` applies the
    eager rules and streams the backtracking alternatives of a goal,
    :meth:`apply_alternative` tries one (Subst)/(Case)/(Cong)/(FunExt)
    instance, and :meth:`mark`/:meth:`rollback` expose the chronological
    trail the engine unwinds failed alternatives with.
    """

    def __init__(self, program: Program, config: ProverConfig):
        self.program = program
        self.config = config
        self.proof = Preproof()
        self.closure = IncrementalClosure()
        self.normalizer = Normalizer(program.rules, compile_rules=config.compile_rules)
        self.fresh = FreshNameSupply()
        self.stats = SearchStatistics()
        self.clock = PhaseClock()
        self.trail: List[Tuple] = []
        self.budget = SearchBudget()
        self.external_budget: Optional[SearchBudget] = None
        self.case_bound = config.max_case_splits

    # -- entry point -----------------------------------------------------------

    def run(
        self,
        equation: Equation,
        goal_name: str = "",
        hypotheses: Sequence[Equation] = (),
        budget: Optional[SearchBudget] = None,
    ) -> ProofResult:
        start = time.perf_counter()
        strategy = get_strategy(self.config.strategy)
        self.stats.strategy = strategy.name
        # The deadline lives on the monotonic clock (via SearchBudget): it must
        # never jump, and it is what the engine's scheduler compares its hard
        # kills against.
        self.budget = SearchBudget(timeout=self.config.timeout)
        self.external_budget = budget
        self.fresh.reserve(equation.variable_names())
        reason = ""
        proved = False
        # "agenda" is the attempt's base phase: whatever the engine's frame
        # loop and the eager rules do between the specifically instrumented
        # phases is charged here (the phase accounting is exclusive).
        self.clock.push("agenda")
        try:
            bounds = strategy.case_bounds(self.config) or (self.config.max_case_splits,)
            for iteration, bound in enumerate(bounds):
                self.case_bound = bound
                self.stats.iterations += 1
                base_mark = self.mark()
                for hypothesis in hypotheses:
                    node = self._add_node(hypothesis)
                    self._assign(node, RULE_HYP)
                premise, work = self._add_goal(equation)
                self.proof.root = premise
                proved = run_choice_points(
                    self, Frame(work, 0, 0, frozenset()), strategy, self.stats
                )
                if proved:
                    break
                if iteration + 1 < len(bounds):
                    # Iterative deepening: restart from a clean proof.  Every
                    # mutation is on the trail, so one rollback resets the
                    # preproof, the closure, and the root.
                    self.rollback(base_mark)
                    self.proof.root = None
        except BudgetExhausted as budget_error:
            proved = False
            reason = str(budget_error) or "search budget exhausted"
        finally:
            self.clock.pop()
        self.stats.elapsed_seconds = time.perf_counter() - start
        self.stats.phase_seconds = self.clock.snapshot()
        self.stats.phase_counts = dict(self.clock.counts)
        self.stats.closure_compositions = self.closure.compositions_performed
        self.stats.normalizer_hits = self.normalizer.cache_hits
        self.stats.normalizer_misses = self.normalizer.cache_misses
        self.stats.compile_seconds = self.normalizer.compile_seconds
        self.stats.compiled_steps = self.normalizer.compiled_steps
        self.stats.fallback_steps = self.normalizer.fallback_steps
        self.stats.rewrite_head_counts = dict(self.normalizer.head_steps)
        self.stats.hints_offered = len(hypotheses)
        if proved and hypotheses:
            # How much did the final proof lean on the supplied hypotheses?  A
            # (Subst) vertex records its lemma as the first premise; count the
            # ones whose lemma is a Hyp vertex.
            rules = {node.ident: node.rule for node in self.proof.nodes}
            self.stats.hint_steps = sum(
                1
                for node in self.proof.nodes
                if node.rule == RULE_SUBST
                and node.premises
                and rules.get(node.premises[0]) == RULE_HYP
            )
        if proved:
            certificate = None
            if self.config.emit_proofs:
                from ..proofs.certificate import encode  # deferred: success path only

                encode_started = time.perf_counter()
                certificate = encode(
                    self.proof,
                    program_fingerprint=self.program.fingerprint(),
                    goal_name=goal_name,
                    equation=str(equation),
                )
                self.stats.certificate_seconds = time.perf_counter() - encode_started
            return ProofResult(
                proved=True,
                equation=equation,
                proof=self.proof,
                certificate=certificate,
                statistics=self.stats,
                goal_name=goal_name,
            )
        return ProofResult(
            proved=False,
            equation=equation,
            proof=None,
            statistics=self.stats,
            reason=reason or "no proof found within the search bounds",
            goal_name=goal_name,
        )

    # -- budget ------------------------------------------------------------------

    def _check_budget(self) -> None:
        if self.stats.nodes_created > self.config.max_nodes:
            self.stats.node_budget_aborts += 1
            raise BudgetExhausted(f"node budget of {self.config.max_nodes} exhausted")
        try:
            self.budget.check()
            if self.external_budget is not None:
                self.external_budget.check()
        except BudgetExhausted:
            self.stats.timeout_aborts += 1
            raise

    # -- trail (chronological backtracking) -----------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def rollback(self, mark: int) -> None:
        clock = self.clock
        while len(self.trail) > mark:
            kind, payload = self.trail.pop()
            if kind == "node":
                self.proof.remove_node(payload)
            elif kind == "closure":
                clock.push("soundness")
                self.closure.remove(payload)
                clock.pop()
            elif kind == "assign":
                node = self.proof.node(payload)
                node.rule = None
                node.premises = []
                node.case_var = None
                node.case_constructors = ()
                node.subst = None
                node.position = None
                node.side = None
                node.lemma_flipped = False

    # -- node and edge management -----------------------------------------------------

    def _normalize_equation(self, equation: Equation) -> Equation:
        self.clock.push("normalise")
        try:
            return Equation(
                self.normalizer.normalize(equation.lhs),
                self.normalizer.normalize(equation.rhs),
            )
        finally:
            self.clock.pop()

    def _add_node(self, equation: Equation) -> ProofNode:
        self._check_budget()
        node = self.proof.add_node(equation)
        self.stats.nodes_created += 1
        self.trail.append(("node", node.ident))
        self.fresh.reserve(equation.variable_names())
        return node

    def _add_goal(self, equation: Equation) -> Tuple[int, int]:
        """Create nodes for a new subgoal.

        Returns ``(premise_id, work_id)``: the vertex the parent should use as
        its premise, and the vertex carrying the normalised equation the search
        should continue on.  When normalisation changes the equation an
        explicit (Reduce) vertex is interposed, exactly as in the formal system
        (the paper merely omits such vertices when *displaying* proofs).
        """
        node = self._add_node(equation)
        normalized = self._normalize_equation(equation)
        if normalized == equation:
            return node.ident, node.ident
        child = self._add_node(normalized)
        self._assign(node, RULE_REDUCE, premises=[child.ident])
        if not self._add_edges(node):
            # Identity edges cannot invalidate the proof; defensive only.
            raise BudgetExhausted("soundness violation on a reduction edge")
        return node.ident, child.ident

    def _assign(self, node: ProofNode, rule: str, premises: Sequence[int] = (), **data) -> None:
        node.rule = rule
        node.premises = list(premises)
        for key, value in data.items():
            setattr(node, key, value)
        self.trail.append(("assign", node.ident))

    def _add_edges(self, node: ProofNode) -> bool:
        """Register the size-change graphs of all edges out of ``node``.

        Returns ``False`` (after recording nothing further) when a newly closed
        cycle violates the global condition; the caller is expected to roll the
        whole alternative back.
        """
        self.stats.soundness_checks += 1
        self.clock.push("soundness")
        try:
            if self.config.incremental_soundness:
                for index in range(len(node.premises)):
                    graph = edge_size_change_graph(self.proof, node.ident, index)
                    result = self.closure.add(graph)
                    self.trail.append(("closure", result.added))
                    if result.violation is not None:
                        self.stats.soundness_violations += 1
                        return False
                return True
            # Naive mode (ablation): rebuild all edge graphs and recheck from scratch.
            graphs = proof_size_change_graphs(self.proof)
            if not check_global_condition(graphs):
                self.stats.soundness_violations += 1
                return False
            return True
        finally:
            self.clock.pop()

    def _child(self, work_id: int, depth: int, case_depth: int, path_goals: frozenset) -> Frame:
        equation = self.proof.node(work_id).equation
        return Frame(
            work_id, depth, case_depth, path_goals,
            score=term_size(equation.lhs) + term_size(equation.rhs),
        )

    # -- the calculus protocol (driven by agenda.run_choice_points) ---------------------

    def expand(self, frame: Frame) -> Optional[bool]:
        """Eager rules and hopeless-goal pruning; streams the alternatives.

        Mirrors the prologue of the old recursive ``_solve``: (Refl),
        constructor clash, (Cong) and (FunExt) — which never backtrack and
        therefore resolve to a single mandatory alternative — then the depth
        and loop checks guarding the (Subst)/(Case) choice points.
        """
        self._check_budget()
        self.clock.push("expand")
        try:
            return self._expand(frame)
        finally:
            self.clock.pop()

    def _expand(self, frame: Frame) -> Optional[bool]:
        if frame.depth > self.stats.max_depth_reached:
            self.stats.max_depth_reached = frame.depth
        node = self.proof.node(frame.node_id)
        equation = node.equation

        # (Refl)
        if equation.is_trivial():
            self._assign(node, RULE_REFL)
            return True

        lhs_head, lhs_args = spine(equation.lhs)
        rhs_head, rhs_args = spine(equation.rhs)
        lhs_is_con = isinstance(lhs_head, Sym) and self.program.signature.is_constructor(lhs_head.name)
        rhs_is_con = isinstance(rhs_head, Sym) and self.program.signature.is_constructor(rhs_head.name)

        # Distinct constructors can never be equal: the branch is hopeless.
        if lhs_is_con and rhs_is_con and lhs_head.name != rhs_head.name:
            return False

        # (Cong) — constructor decomposition, applied eagerly without backtracking.
        if (
            self.config.use_congruence
            and lhs_is_con
            and rhs_is_con
            and lhs_head.name == rhs_head.name
            and len(lhs_args) == len(rhs_args)
            and lhs_args
        ):
            frame.alts = iter((Alternative("cong", (lhs_args, rhs_args), 0),))
            return None

        # (FunExt) — goals of arrow type are applied to a fresh variable.
        if self.config.use_funext:
            goal_type = self.program.signature.arrow_type(equation.lhs)
            if goal_type is not None:
                frame.alts = iter((Alternative("funext", goal_type, 0),))
                return None

        if frame.depth >= self.config.max_depth:
            return False
        if equation in frame.path_goals:
            return False

        frame.alts = self._clocked(self._rule_alternatives(node, frame), "lemma_prefilter")
        return None

    def _clocked(self, iterator: Iterator, phase: str) -> Iterator:
        """Charge the time each ``next()`` of ``iterator`` takes to ``phase``.

        The alternative stream is lazy — the agenda pulls it one instance at a
        time between child solves — so its cost cannot be measured around the
        call site; this wrapper clocks every resumption of the generator
        instead.  (The inner ``match`` phase of ``_subst_candidates`` nests
        inside and is subtracted by the clock's exclusive accounting.)
        """
        push = self.clock.push
        pop = self.clock.pop
        while True:
            push(phase)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                pop()
            yield item

    def _rule_alternatives(self, node: ProofNode, frame: Frame) -> Iterator[Alternative]:
        """The backtracking alternatives of a goal, lazily, in calculus order.

        (Subst) instances first — cycle formation through existing proof nodes
        — then (Case) splits, exactly the priority of the recursive search.
        The stream is lazy so that under ``dfs`` candidate matching interleaves
        with child solving precisely as it used to; ordering strategies may
        materialise it.
        """
        seq = 0
        if self.config.lemma_restriction != LEMMAS_NONE:
            for data in self._subst_candidates(node):
                yield Alternative("subst", data, seq)
                seq += 1
        # The *iteration's* case bound, not the configuration's: iterative
        # deepening tightens it round by round.
        if frame.case_depth < self.case_bound:
            equation = node.equation
            for variable in case_candidates(self.program.rules, equation.lhs, equation.rhs):
                yield Alternative("case", variable, seq)
                seq += 1

    def apply_alternative(self, frame: Frame, alt: Alternative) -> Optional[Sequence[Frame]]:
        """Try one rule instance; returns its AND-children or ``None``.

        ``None`` means the alternative did not apply (size bound, no progress,
        or an unsound cycle) and any partial state was rolled back to
        ``frame.alt_mark``; otherwise the goal's node has been justified and
        the returned subgoal frames must all be solved for it to stand.
        """
        if alt.kind == "subst":
            return self._apply_subst_alternative(frame, alt.data)
        if alt.kind == "case":
            return self._apply_case_alternative(frame, alt.data)
        if alt.kind == "cong":
            return self._apply_cong_alternative(frame, alt.data)
        if alt.kind == "funext":
            return self._apply_funext_alternative(frame, alt.data)
        raise ValueError(f"unknown alternative kind {alt.kind!r}")  # pragma: no cover

    def score_alternative(self, frame: Frame, alt: Alternative) -> int:
        """A heuristic cost for ordering strategies (smaller = more promising).

        (Subst) alternatives score the size of the *normalised* continuation
        goal — how close the rewrite brings the goal to a normal form; (Case)
        alternatives score the goal size plus a constant split penalty, so a
        simplifying rewrite always outranks a case split of the same goal.
        The eager rules are mandatory and score 0.
        """
        if alt.kind == "subst":
            node = self.proof.node(frame.node_id)
            continuation = self._subst_continuation(node.equation, alt.data)
            normalized = self._normalize_equation(continuation)
            return term_size(normalized.lhs) + term_size(normalized.rhs)
        if alt.kind == "case":
            equation = self.proof.node(frame.node_id).equation
            return term_size(equation.lhs) + term_size(equation.rhs) + 2
        return 0

    # -- eager rules -------------------------------------------------------------------------

    def _apply_cong_alternative(
        self, frame: Frame, data: Tuple[Tuple[Term, ...], Tuple[Term, ...]]
    ) -> Optional[Sequence[Frame]]:
        lhs_args, rhs_args = data
        node = self.proof.node(frame.node_id)
        self.stats.congruence_steps += 1
        premise_ids: List[int] = []
        work_ids: List[int] = []
        for left, right in zip(lhs_args, rhs_args):
            premise, work = self._add_goal(Equation(left, right))
            premise_ids.append(premise)
            work_ids.append(work)
        self._assign(node, RULE_CONG, premises=premise_ids)
        if not self._add_edges(node):
            self.rollback(frame.alt_mark)
            return None
        return [
            self._child(work, frame.depth, frame.case_depth, frame.path_goals)
            for work in work_ids
        ]

    def _apply_funext_alternative(self, frame: Frame, goal_type: FunTy) -> Optional[Sequence[Frame]]:
        node = self.proof.node(frame.node_id)
        self.stats.funext_steps += 1
        fresh_var = Var(self.fresh.fresh("v"), goal_type.arg)
        extended = Equation(App(node.equation.lhs, fresh_var), App(node.equation.rhs, fresh_var))
        premise, work = self._add_goal(extended)
        self._assign(node, RULE_FUNEXT, premises=[premise])
        if not self._add_edges(node):
            self.rollback(frame.alt_mark)
            return None
        return [self._child(work, frame.depth, frame.case_depth, frame.path_goals)]

    # -- (Subst) ---------------------------------------------------------------------------------

    def _lemma_candidates(self, current: int) -> List[ProofNode]:
        restriction = self.config.lemma_restriction
        candidates: List[ProofNode] = []
        for candidate in self.proof.nodes:
            if candidate.ident == current or candidate.is_open:
                continue
            if candidate.rule == RULE_HYP:
                # Externally supplied lemmas are always eligible.
                candidates.append(candidate)
                continue
            if restriction == LEMMAS_CASE_ONLY and candidate.rule != RULE_CASE:
                continue
            if restriction == LEMMAS_ALL and candidate.rule in (RULE_REFL,):
                continue
            if candidate.equation.is_trivial():
                continue
            candidates.append(candidate)
        # Most recent first: the nearest enclosing case split is the most
        # likely induction hypothesis.
        candidates.sort(key=lambda n: n.ident, reverse=True)
        return candidates

    def _subst_candidates(self, node: ProofNode) -> Iterator[Tuple]:
        """Stream the (Subst) instances of a goal in search order.

        Yields ``(lemma_node, theta, position, side, flipped, lemma_to)``
        payloads.  The candidate count is capped by
        ``max_subst_applications_per_goal``; hitting the cap ends the stream
        (the goal falls through to case analysis, as in the recursive search).
        """
        equation = node.equation
        attempts = 0
        for lemma_node in self._lemma_candidates(node.ident):
            self._check_budget()
            lemma = lemma_node.equation
            orientations = (
                (lemma.lhs, lemma.rhs, False),
                (lemma.rhs, lemma.lhs, True),
            )
            for lemma_from, lemma_to, flipped in orientations:
                if isinstance(lemma_from, Var):
                    continue
                missing = {
                    v.name for v in free_vars(lemma_to)
                } - {v.name for v in free_vars(lemma_from)}
                if missing:
                    continue
                # A symbol-headed lemma side can only match subterms with the
                # same head symbol and spine length; both are cached on the
                # interned nodes, so the position scan prunes in O(1) per
                # subterm without invoking the matcher.
                lemma_head = lemma_from._head
                lemma_nargs = lemma_from._nargs
                clock_push = self.clock.push
                clock_pop = self.clock.pop
                for side_name in ("lhs", "rhs"):
                    self._check_budget()
                    goal_side = getattr(equation, side_name)
                    for position, sub in positions(goal_side):
                        if isinstance(sub, Var):
                            continue
                        if lemma_head is not None and (
                            sub._head != lemma_head or sub._nargs != lemma_nargs
                        ):
                            continue
                        clock_push("match")
                        theta = match_or_none(lemma_from, sub)
                        clock_pop()
                        if theta is None:
                            continue
                        attempts += 1
                        if attempts > self.config.max_subst_applications_per_goal:
                            return
                        yield lemma_node, theta, position, side_name, flipped, lemma_to

    @staticmethod
    def _subst_continuation(equation: Equation, data: Tuple) -> Equation:
        """The goal remaining after rewriting with one (Subst) instance."""
        _lemma_node, theta, position, side_name, _flipped, lemma_to = data
        goal_side = getattr(equation, side_name)
        other_side = equation.rhs if side_name == "lhs" else equation.lhs
        rewritten = replace_at(goal_side, position, theta.apply(lemma_to))
        if side_name == "lhs":
            return Equation(rewritten, other_side)
        return Equation(other_side, rewritten)

    def _apply_subst_alternative(self, frame: Frame, data: Tuple) -> Optional[Sequence[Frame]]:
        self.clock.push("substitute")
        try:
            return self._apply_subst(frame, data)
        finally:
            self.clock.pop()

    def _apply_subst(self, frame: Frame, data: Tuple) -> Optional[Sequence[Frame]]:
        self.stats.subst_attempts += 1
        node = self.proof.node(frame.node_id)
        equation = node.equation
        lemma_node, theta, position, side_name, flipped, _lemma_to = data
        continuation = self._subst_continuation(equation, data)
        if term_size(continuation.lhs) + term_size(continuation.rhs) > self.config.max_goal_size:
            return None  # rewriting grew the goal beyond the configured bound
        if self._normalize_equation(continuation) == equation:
            return None  # no progress: the rewrite did not change the goal
        premise, work = self._add_goal(continuation)
        self._assign(
            node,
            RULE_SUBST,
            premises=[lemma_node.ident, premise],
            subst=theta.restrict(lemma_node.equation.variable_names()),
            position=position,
            side=side_name,
            lemma_flipped=flipped,
        )
        if not self._add_edges(node):
            self.rollback(frame.alt_mark)
            return None
        return [
            self._child(work, frame.depth + 1, frame.case_depth, frame.path_goals | {equation})
        ]

    # -- (Case) --------------------------------------------------------------------------------------

    def _apply_case_alternative(self, frame: Frame, variable: Var) -> Optional[Sequence[Frame]]:
        self.clock.push("case_split")
        try:
            return self._apply_case(frame, variable)
        finally:
            self.clock.pop()

    def _apply_case(self, frame: Frame, variable: Var) -> Optional[Sequence[Frame]]:
        if not isinstance(variable.ty, DataTy):
            return None
        try:
            constructors = self.program.signature.instantiate_constructors(variable.ty)
        except Exception:
            return None
        node = self.proof.node(frame.node_id)
        self.stats.case_splits += 1
        premise_ids: List[int] = []
        work_ids: List[int] = []
        constructor_names: List[str] = []
        for con_name, arg_types in constructors:
            fresh_vars = [
                Var(self.fresh.fresh(variable.name), arg_type) for arg_type in arg_types
            ]
            pattern = apply_term(Sym(con_name), *fresh_vars)
            instantiated = node.equation.apply(Substitution({variable.name: pattern}))
            premise, work = self._add_goal(instantiated)
            premise_ids.append(premise)
            work_ids.append(work)
            constructor_names.append(con_name)
        self._assign(
            node,
            RULE_CASE,
            premises=premise_ids,
            case_var=variable,
            case_constructors=tuple(constructor_names),
        )
        if not self._add_edges(node):
            self.rollback(frame.alt_mark)
            return None
        extended = frame.path_goals | {node.equation}
        return [
            self._child(work, frame.depth + 1, frame.case_depth + 1, extended)
            for work in work_ids
        ]
