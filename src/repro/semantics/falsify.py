"""Falsification: test conjectures on ground instances, produce counterexamples.

The falsifier is the refutation half of a HipSpec/QuickSpec-style pipeline:
compile an equation's sides (and any conditional premises) **once** against
the program's :class:`~repro.semantics.evaluator.Evaluator`, bundle them into
one batched :class:`~repro.semantics.evaluator.EvaluationSession`, then
stream a mixed exhaustive+random instance stream
(:func:`~repro.semantics.generators.instance_stream`) through it.  No terms
are substituted or rewritten per instance, and no per-comparison set-up is
repeated either — each instance is a single session call deciding premises
and sides together under one call budget — which is what makes refutation
cheap enough to run *before* proof search (``ProverConfig.falsify_first``)
and inside the theory explorer's candidate filter.

A successful refutation is a :class:`Counterexample`: the variable bindings
(as parseable surface syntax), the evaluated values of both sides, and enough
provenance to replay the refutation *independently* of the compiled evaluator
— :meth:`Counterexample.replay` re-checks it through the generic
:class:`~repro.rewriting.reduction.Normalizer`, the same trust relationship
``python -m repro check`` has to proof search.  Counterexamples are primitive
JSON data, so they cross process boundaries and live in result-store lines
exactly like proof certificates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.equations import Equation
from .evaluator import (
    TEST_AGREE,
    TEST_PREMISE_SKIP,
    TEST_STUCK,
    CompilationError,
    EvaluationError,
    Evaluator,
    render_value,
)
from .generators import DEFAULT_SEED, RandomPhaseStats, instance_stream

__all__ = [
    "FalsificationConfig",
    "Counterexample",
    "FalsificationOutcome",
    "falsify_equation",
    "falsify_goal",
    "COUNTEREXAMPLE_FORMAT",
]

COUNTEREXAMPLE_FORMAT = "cycleq.counterexample"
"""Format tag of serialised counterexamples (versioned like certificates)."""


@dataclass(frozen=True)
class FalsificationConfig:
    """Budgets of one falsification attempt."""

    depth: int = 4
    """Depth bound of the exhaustive enumeration."""

    exhaustive_limit: int = 400
    """Maximum number of exhaustive instances tested (fair-shell order)."""

    random_samples: int = 200
    """Random instances tested after the exhaustive prefix."""

    random_depth: int = 7
    """Depth bound of the random regime (larger values than exhaustion affords)."""

    seed: int = DEFAULT_SEED
    """Seed of the random regime; fixed by default so runs are reproducible."""

    timeout: Optional[float] = None
    """Optional wall-clock budget in seconds (checked between instances)."""


@dataclass
class Counterexample:
    """A refutation of a conjecture: bindings on which the sides disagree.

    All fields are primitive (strings and numbers); bindings and values are
    surface-language source, parseable with ``program.parse_term``, so a
    counterexample can be replayed by any process holding the program.
    """

    equation: str
    """The refuted equation, rendered."""

    bindings: Dict[str, str]
    """Variable name → ground constructor term (surface syntax)."""

    lhs_value: str
    """Evaluated left-hand side under the bindings (surface syntax)."""

    rhs_value: str
    """Evaluated right-hand side under the bindings (surface syntax)."""

    premises: Tuple[str, ...] = ()
    """Conditional premises, all of which the bindings satisfy."""

    goal_name: str = ""
    """Name of the refuted goal, when known."""

    instances_tested: int = 0
    """Instances examined before this one (0 = first instance already failed)."""

    seconds: float = 0.0
    """Wall-clock time of the falsification run."""

    def to_dict(self) -> dict:
        """Primitive-dict encoding (stable keys; safe for JSON and stores)."""
        return {
            "format": COUNTEREXAMPLE_FORMAT,
            "version": 1,
            "equation": self.equation,
            "bindings": dict(sorted(self.bindings.items())),
            "lhs_value": self.lhs_value,
            "rhs_value": self.rhs_value,
            "premises": list(self.premises),
            "goal_name": self.goal_name,
            "instances_tested": self.instances_tested,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Counterexample":
        """Decode :meth:`to_dict` output (raises ``ValueError`` on junk)."""
        if not isinstance(payload, dict) or payload.get("format") != COUNTEREXAMPLE_FORMAT:
            raise ValueError("not a serialised counterexample")
        return cls(
            equation=str(payload.get("equation", "")),
            bindings={str(k): str(v) for k, v in dict(payload.get("bindings", {})).items()},
            lhs_value=str(payload.get("lhs_value", "")),
            rhs_value=str(payload.get("rhs_value", "")),
            premises=tuple(str(p) for p in payload.get("premises", ())),
            goal_name=str(payload.get("goal_name", "")),
            instances_tested=int(payload.get("instances_tested", 0)),
            seconds=float(payload.get("seconds", 0.0)),
        )

    def substitution(self, program):
        """The bindings as a :class:`~repro.core.substitution.Substitution`."""
        from ..core.substitution import Substitution

        return Substitution(
            {name: program.parse_term(source) for name, source in self.bindings.items()}
        )

    def replay(self, program, equation: Optional[Equation] = None) -> bool:
        """Re-check the refutation through the generic normaliser.

        Parses the bindings, substitutes them into ``equation`` (by default the
        named goal's equation, else the parsed :attr:`equation` text) and every
        premise, and compares normal forms: returns ``True`` when the premises
        all hold and the sides indeed disagree.  This is the *independent*
        check — it shares no code with the compiled evaluator that produced
        the counterexample.
        """
        from ..rewriting.reduction import Normalizer

        if equation is None:
            goal = program.goals.get(self.goal_name) if self.goal_name else None
            equation = goal.equation if goal is not None else program.parse_equation(self.equation)
        theta = self.substitution(program)
        # Generic dispatch on purpose: replay must stay independent of every
        # compiled execution path (evaluator *and* compiled rewrite dispatch).
        normalizer = Normalizer(program.rules, compile_rules=False)
        for premise_source in self.premises:
            premise = program.parse_equation(premise_source).apply(theta)
            if normalizer.normalize(premise.lhs) != normalizer.normalize(premise.rhs):
                return False
        closed = equation.apply(theta)
        return normalizer.normalize(closed.lhs) != normalizer.normalize(closed.rhs)

    def __str__(self) -> str:
        bindings = ", ".join(f"{name} = {value}" for name, value in sorted(self.bindings.items()))
        return (
            f"counterexample [{bindings}]: "
            f"lhs = {self.lhs_value}, rhs = {self.rhs_value}"
        )


@dataclass
class FalsificationOutcome:
    """The result of one falsification run."""

    counterexample: Optional[Counterexample] = None
    """The refutation, or ``None`` when no tested instance disagreed."""

    instances_tested: int = 0
    """Ground instances on which both sides were evaluated."""

    premise_skips: int = 0
    """Instances skipped because a conditional premise did not hold."""

    random_attempts: int = 0
    """Draws the random phase made (it stops at ``8 * random_samples``)."""

    random_distinct: int = 0
    """Random draws that were new instances; the rest were duplicates."""

    seconds: float = 0.0
    """Wall-clock time of the run."""

    error: str = ""
    """Why the compiled path was unavailable ("" when it ran normally)."""

    def __bool__(self) -> bool:
        return self.counterexample is not None


def falsify_goal(program, goal, config: Optional[FalsificationConfig] = None) -> FalsificationOutcome:
    """Falsify a named :class:`~repro.program.Goal`, premises included."""
    return falsify_equation(
        program,
        goal.equation,
        conditions=tuple(goal.conditions),
        config=config,
        goal_name=goal.name,
    )


def falsify_equation(
    program,
    equation: Equation,
    conditions: Sequence[Equation] = (),
    config: Optional[FalsificationConfig] = None,
    goal_name: str = "",
) -> FalsificationOutcome:
    """Search for a ground instance refuting ``conditions ==> equation``.

    Instances are drawn from the mixed exhaustive+random stream; an instance
    counts against the conjecture only when every premise holds on it.  The
    first disagreeing instance is returned as a :class:`Counterexample`.
    Programs outside the compilable fragment (or evaluations that get stuck /
    blow the call budget on *every* path) degrade to an outcome with
    :attr:`~FalsificationOutcome.error` set — falsification is then simply
    unavailable, never wrong.
    """
    config = config or FalsificationConfig()
    started = time.perf_counter()
    outcome = FalsificationOutcome()
    variables: List = list(equation.variables())
    names = {v.name for v in variables}
    for condition in conditions:
        for var in condition.variables():
            if var.name not in names:
                names.add(var.name)
                variables.append(var)
    try:
        evaluator = Evaluator.for_program(program)
        slots = {var.name: index for index, var in enumerate(variables)}
        lhs_expr = evaluator.compile(equation.lhs, slots)
        rhs_expr = evaluator.compile(equation.rhs, slots)
        premise_exprs = [
            (evaluator.compile(c.lhs, slots), evaluator.compile(c.rhs, slots))
            for c in conditions
        ]
        session = evaluator.session(lhs_expr, rhs_expr, premise_exprs)
    except CompilationError as error:
        outcome.error = str(error)
        outcome.seconds = time.perf_counter() - started
        return outcome

    deadline = None if config.timeout is None else started + config.timeout
    random_phase = RandomPhaseStats()
    stream = instance_stream(
        program.signature,
        variables,
        depth=config.depth,
        limit=config.exhaustive_limit,
        random_samples=config.random_samples,
        random_depth=config.random_depth,
        seed=config.seed,
        evaluator=evaluator,
        stats=random_phase,
    )
    # One batched session decides each instance with a single call: premises
    # short-circuit, both sides compare by value identity, and the whole
    # instance runs under one shared call budget (see EvaluationSession).
    test = session.test
    for instance in stream:
        if deadline is not None and time.perf_counter() > deadline:
            break
        env = instance
        verdict = test(env)
        if verdict == TEST_AGREE:
            outcome.instances_tested += 1
            continue
        if verdict == TEST_PREMISE_SKIP:
            outcome.premise_skips += 1
            continue
        if verdict == TEST_STUCK:
            # Stuck or over budget on this instance (partial definition,
            # runaway recursion): the instance proves nothing either way.
            continue
        # TEST_DISAGREE: materialise the witness values — warm from the memo,
        # on the (at most one) disagreeing instance.
        try:
            lhs_value = evaluator.run(lhs_expr, env)
            rhs_value = evaluator.run(rhs_expr, env)
        except EvaluationError:  # pragma: no cover - the test just ran them
            continue
        outcome.counterexample = Counterexample(
            equation=str(equation),
            bindings={
                var.name: render_value(value)
                for var, value in zip(variables, instance)
            },
            lhs_value=render_value(lhs_value),
            rhs_value=render_value(rhs_value),
            premises=tuple(str(c) for c in conditions),
            goal_name=goal_name,
            instances_tested=outcome.instances_tested,
            seconds=time.perf_counter() - started,
        )
        outcome.instances_tested += 1
        break
    outcome.random_attempts = random_phase.attempts
    outcome.random_distinct = random_phase.distinct
    outcome.seconds = time.perf_counter() - started
    return outcome
