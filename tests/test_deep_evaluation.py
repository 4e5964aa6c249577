"""The evaluator's overflow path: data too deep for the Python stack.

Compiled expressions run as Python closures on the interpreter's stack.  When
that overflows, :meth:`~repro.semantics.evaluator.Evaluator._deep` finishes the
evaluation on the iterative :class:`~repro.rewriting.reduction.Normalizer` and
reads the normal form back as a canonical value.  Two kinds of evidence:

* a **differential**: on the first instances of every goal's stream in the
  three suites, the overflow path and the closures return the identical
  value, or both are stuck;
* **sessions on a 5000-element list**, deep enough that every instance
  overflows: the verdicts — agree, disagree, failed premise — are the ones
  the equations call for;
* **runaway definitions** that overflow the stack end on the call budget, on
  the normaliser too: an :class:`EvaluationError` from ``evaluate`` and
  :data:`TEST_STUCK` from a session.
"""

from __future__ import annotations

import itertools
import sys

import pytest

from repro import load_program
from repro.benchmarks_data import (
    false_conjectures_problems,
    isaplanner_problems,
    isaplanner_program,
    mutual_problems,
)
from repro.semantics.evaluator import (
    TEST_AGREE,
    TEST_DISAGREE,
    TEST_PREMISE_SKIP,
    TEST_STUCK,
    EvaluationError,
    Evaluator,
    StuckEvaluation,
)
from repro.semantics.falsify import FalsificationConfig
from repro.semantics.generators import instance_stream

SUITES = {
    "isaplanner": isaplanner_problems,
    "mutual": mutual_problems,
    "false_conjectures": false_conjectures_problems,
}

INSTANCES = 50
DEEP_LENGTH = 5000

_STUCK = object()


def _outcome(evaluate):
    try:
        return evaluate()
    except StuckEvaluation:
        return _STUCK


def _goal_variables(goal):
    """The goal's variables in the falsifier's slot order."""
    variables = list(goal.equation.variables())
    names = {var.name for var in variables}
    for condition in goal.conditions:
        for var in condition.variables():
            if var.name not in names:
                names.add(var.name)
                variables.append(var)
    return variables


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_overflow_path_agrees_with_the_closures(suite):
    config = FalsificationConfig()
    compared = 0
    for problem in SUITES[suite]():
        program, goal = problem.program, problem.goal
        evaluator = Evaluator.for_program(program)
        variables = _goal_variables(goal)
        slots = {var.name: index for index, var in enumerate(variables)}
        sides = [goal.equation.lhs, goal.equation.rhs]
        for condition in goal.conditions:
            sides += [condition.lhs, condition.rhs]
        exprs = [evaluator.compile(side, slots) for side in sides]
        stream = instance_stream(
            program.signature,
            variables,
            depth=config.depth,
            limit=config.exhaustive_limit,
            random_samples=config.random_samples,
            random_depth=config.random_depth,
            seed=config.seed,
            evaluator=evaluator,
        )
        for env in itertools.islice(stream, INSTANCES):
            for expr in exprs:
                fast = _outcome(lambda: evaluator.run(expr, env))
                evaluator._remaining = evaluator.max_calls
                deep = _outcome(lambda: evaluator._deep(expr, env))
                assert deep is fast, (problem.name, env)
                compared += 1
    assert compared > 0


@pytest.fixture(scope="module")
def deep_list():
    program = isaplanner_program()
    evaluator = Evaluator.for_program(program)
    xs = evaluator.make_constructor("Nil", ())
    zero = evaluator.make_constructor("Z", ())
    for _ in range(DEEP_LENGTH):
        xs = evaluator.make_constructor("Cons", (zero, xs))
    assert DEEP_LENGTH > sys.getrecursionlimit()
    return program, evaluator, xs


def _session(program, evaluator, source, premises=()):
    equation = program.parse_equation(source)
    conditions = [program.parse_equation(premise) for premise in premises]
    slots = {"xs": 0}
    return evaluator.session(
        evaluator.compile(equation.lhs, slots),
        evaluator.compile(equation.rhs, slots),
        [
            (evaluator.compile(c.lhs, slots), evaluator.compile(c.rhs, slots))
            for c in conditions
        ],
    )


def test_session_on_deep_data_agrees_on_a_true_equation(deep_list):
    program, evaluator, xs = deep_list
    session = _session(program, evaluator, "len (rev xs) === len xs")
    assert session.test([xs]) == TEST_AGREE


def test_session_on_deep_data_disagrees_on_a_false_equation(deep_list):
    program, evaluator, xs = deep_list
    session = _session(program, evaluator, "len (rev xs) === S (len xs)")
    assert session.test([xs]) == TEST_DISAGREE


def test_session_on_deep_data_skips_a_failed_premise(deep_list):
    program, evaluator, xs = deep_list
    session = _session(
        program, evaluator, "len (rev xs) === S (len xs)", premises=["len xs === Z"]
    )
    assert session.test([xs]) == TEST_PREMISE_SKIP


# ``grow`` is not tail-recursive: each call's result holds the next call, so
# the normaliser opens a fresh root per step and only a budget counted across
# roots stops it.
GROW = """
data Nat = Z | S Nat
grow :: Nat -> Nat
grow x = S (grow x)
"""


@pytest.fixture(scope="module")
def grow_program():
    return load_program(GROW)


def test_nested_runaway_exhausts_the_default_budget(grow_program):
    evaluator = Evaluator(grow_program.signature, grow_program.rules.rules)
    with pytest.raises(EvaluationError):
        evaluator.evaluate(grow_program.parse_term("grow Z"))


def test_session_on_a_nested_runaway_is_stuck(grow_program):
    evaluator = Evaluator(grow_program.signature, grow_program.rules.rules)
    slots = {"x": 0}
    session = evaluator.session(
        evaluator.compile(grow_program.parse_term("grow x"), slots),
        evaluator.compile(grow_program.parse_term("Z"), slots),
    )
    assert session.test([evaluator.make_constructor("Z", ())]) == TEST_STUCK


def test_runaway_on_deep_data_is_stuck():
    # Tail-recursive, on a list too deep for the recursive term printer: the
    # budget error must not try to render the term it gave up on.
    program = load_program(
        """
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
spin :: List Nat -> List Nat
spin xs = spin (Cons Z xs)
"""
    )
    evaluator = Evaluator(program.signature, program.rules.rules, max_calls=20_000)
    xs = evaluator.make_constructor("Nil", ())
    zero = evaluator.make_constructor("Z", ())
    for _ in range(DEEP_LENGTH):
        xs = evaluator.make_constructor("Cons", (zero, xs))
    slots = {"xs": 0}
    lhs = evaluator.compile(program.parse_term("spin xs"), slots)
    session = evaluator.session(lhs, evaluator.compile(program.parse_term("xs"), slots))
    assert session.test([xs]) == TEST_STUCK
    with pytest.raises(EvaluationError):
        evaluator.run(lhs, [xs])
