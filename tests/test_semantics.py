"""Tests for the ground-evaluation semantics subsystem (repro.semantics)."""

from __future__ import annotations

import json
import random

import pytest

from repro import load_program
from repro.benchmarks_data import (
    false_conjectures_problems,
    isaplanner_program,
    mutual_program,
)
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy
from repro.program import check_equation, ground_instances
from repro.rewriting.reduction import Normalizer
from repro.semantics.evaluator import (
    CompilationError,
    Evaluator,
    StuckEvaluation,
    render_value,
    value_to_term,
)
from repro.semantics.falsify import (
    Counterexample,
    FalsificationConfig,
    falsify_equation,
    falsify_goal,
)
from repro.semantics.generators import (
    enumerate_values,
    fair_product,
    instance_stream,
    sample_value,
)

NAT = DataTy("Nat")
LIST_NAT = DataTy("List", (NAT,))


@pytest.fixture(scope="module")
def prelude():
    return isaplanner_program()


@pytest.fixture(scope="module")
def evaluator(prelude):
    return Evaluator.for_program(prelude)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


class TestEvaluator:
    @pytest.mark.parametrize(
        "source",
        [
            "add (S Z) (S (S Z))",
            "minus (S (S (S Z))) (S Z)",
            "rev (Cons Z (Cons (S Z) Nil))",
            "app (Cons Z Nil) (Cons (S Z) Nil)",
            "sort (Cons (S (S Z)) (Cons Z (Cons (S Z) Nil)))",
            "insort (S Z) (Cons Z (Cons (S (S Z)) Nil))",
            "butlast (Cons Z (Cons (S Z) Nil))",
            "zip (Cons Z Nil) (Cons (S Z) (Cons Z Nil))",
            "mirror (Node (Node Leaf Z Leaf) (S Z) Leaf)",
            "ite True Z (S Z)",
            "ite False Z (S Z)",
            "and True False",
            "or False True",
            "count Z (Cons Z (Cons (S Z) (Cons Z Nil)))",
            "elem (S Z) (Cons Z (Cons (S Z) Nil))",
            "sorted (Cons Z (Cons (S Z) Nil))",
            "takeWhile (leq (S Z)) (Cons (S (S Z)) (Cons Z Nil))",
            "dropWhile (leq (S Z)) (Cons (S (S Z)) (Cons Z Nil))",
            "filter (leq (S Z)) (Cons Z (Cons (S (S Z)) Nil))",
            "map (add (S Z)) (Cons Z (Cons (S Z) Nil))",
            "lastOfTwo (Cons (S Z) Nil) Nil",
            "butlastConcat (Cons Z Nil) (Cons (S Z) Nil)",
            "zipConcat Z (Cons Z Nil) (Cons (S Z) Nil)",
            "height (Node Leaf Z (Node Leaf Z Leaf))",
        ],
    )
    def test_agrees_with_normalizer(self, prelude, evaluator, source):
        term = prelude.parse_term(source)
        expected = Normalizer(prelude.rules).normalize(term)
        assert value_to_term(evaluator.evaluate(term)) == expected

    def test_values_are_hash_consed(self, prelude, evaluator):
        one_way = evaluator.evaluate(prelude.parse_term("add (S Z) (S Z)"))
        another = evaluator.evaluate(prelude.parse_term("S (S Z)"))
        assert one_way is another

    def test_open_terms_evaluate_under_environment(self, prelude, evaluator):
        term = prelude.parse_term("add x y", env={"x": NAT, "y": NAT})
        two = evaluator.evaluate(prelude.parse_term("S (S Z)"))
        three = evaluator.evaluate(prelude.parse_term("S (S (S Z))"))
        result = evaluator.evaluate(term, env={"x": two, "y": three})
        assert render_value(result) == "S (S (S (S (S Z))))"

    def test_unbound_variable_is_a_compilation_error(self, prelude, evaluator):
        term = prelude.parse_term("add x y", env={"x": NAT, "y": NAT})
        with pytest.raises(CompilationError):
            evaluator.compile(term, {"x": 0})

    def test_higher_order_closures(self, prelude, evaluator):
        term = prelude.parse_term("map (add (S Z)) (Cons Z (Cons (S (S Z)) Nil))")
        assert render_value(evaluator.evaluate(term)) == "Cons (S Z) (Cons (S (S (S Z))) Nil)"

    def test_partial_application_of_a_function_declared_later(self):
        # `plus` is partially applied before its own rules are declared: its
        # arity must be known when `incs` compiles, not guessed from the call.
        program = load_program("""
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
map :: (a -> b) -> List a -> List b
map f Nil = Nil
map f (Cons x xs) = Cons (f x) (map f xs)
incs :: List Nat -> List Nat
incs xs = map (plus (S Z)) xs
plus :: Nat -> Nat -> Nat
plus Z y = y
plus (S x) y = S (plus x y)
""")
        evaluator = Evaluator(program.signature, program.rules.rules)
        term = program.parse_term("incs (Cons Z (Cons (S Z) Nil))")
        assert render_value(evaluator.evaluate(term)) == "Cons (S Z) (Cons (S (S Z)) Nil)"

    def test_deep_data_does_not_hit_the_recursion_limit(self, prelude, evaluator):
        xs = Sym("Nil")
        for _ in range(5000):
            xs = apply_term(Sym("Cons"), Sym("Z"), xs)
        value = evaluator.evaluate(apply_term(Sym("len"), xs))
        assert render_value(value).count("S") == 5000
        # and the length survives a rev round trip
        lhs = evaluator.compile(apply_term(Sym("len"), xs))
        rhs = evaluator.compile(apply_term(Sym("len"), apply_term(Sym("rev"), xs)))
        assert evaluator.equal(lhs, rhs, ())

    def test_partial_function_gets_stuck(self):
        program = load_program(
            """
data Nat = Z | S Nat
pred :: Nat -> Nat
pred (S x) = x
""",
            check_completeness=False,
        )
        evaluator = Evaluator.for_program(program)
        with pytest.raises(StuckEvaluation):
            evaluator.evaluate(program.parse_term("pred Z"))

    def test_nonterminating_definition_exhausts_the_call_budget(self):
        from repro.semantics.evaluator import EvaluationError

        program = load_program(
            """
data Nat = Z | S Nat
spin :: Nat -> Nat
spin x = spin (S x)
"""
        )
        evaluator = Evaluator(program.signature, program.rules.rules, max_calls=1000)
        with pytest.raises(EvaluationError):
            evaluator.evaluate(program.parse_term("spin Z"))

    def test_for_program_is_cached_and_invalidated_by_rule_changes(self, prelude):
        first = Evaluator.for_program(prelude)
        second = Evaluator.for_program(prelude)
        assert first is second

    def test_mutual_program_compiles(self):
        program = mutual_program()
        evaluator = Evaluator.for_program(program)
        assert evaluator is not None

    def test_selector_functions_evaluate_lazily(self, prelude, evaluator):
        # `ite True x y` must not evaluate y: with a strict ite the spin call
        # below would exhaust the budget.
        program = load_program(
            """
data Bool = True | False
data Nat = Z | S Nat
ite :: Bool -> a -> a -> a
ite True x y = x
ite False x y = y
spin :: Nat -> Nat
spin x = spin (S x)
"""
        )
        ev = Evaluator(program.signature, program.rules.rules, max_calls=1000)
        value = ev.evaluate(program.parse_term("ite True Z (spin Z)"))
        assert render_value(value) == "Z"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_enumerate_nat_values(self, prelude):
        values = list(enumerate_values(prelude.signature, NAT, 3))
        assert values == [("Z",), ("S", ("Z",)), ("S", ("S", ("Z",)))]

    def test_enumeration_matches_term_enumeration_count(self, prelude):
        from repro.program import ground_terms

        for depth in (1, 2, 3, 4):
            values = list(enumerate_values(prelude.signature, LIST_NAT, depth))
            terms = list(ground_terms(prelude.signature, LIST_NAT, depth))
            assert len(values) == len(terms)

    def test_function_types_have_no_values(self, prelude):
        from repro.core.types import FunTy

        assert list(enumerate_values(prelude.signature, FunTy(NAT, NAT), 4)) == []

    def test_sampling_is_deterministic_and_well_typed(self, prelude):
        rng_a, rng_b = random.Random(42), random.Random(42)
        for _ in range(50):
            a = sample_value(prelude.signature, LIST_NAT, 6, rng_a)
            b = sample_value(prelude.signature, LIST_NAT, 6, rng_b)
            assert a == b
            assert a[0] in ("Nil", "Cons")

    def test_fair_product_covers_everything_once(self):
        combos = list(fair_product([3, 4, 2]))
        assert len(combos) == 24
        assert len(set(combos)) == 24

    def test_fair_product_prefix_varies_every_coordinate(self):
        # The historical product order pinned coordinate 0 for the first
        # `4*2=8` tuples; fair shells reach index 1 in every coordinate
        # within the first 8 tuples.
        prefix = list(fair_product([3, 4, 2]))[:8]
        for coordinate in range(3):
            assert any(combo[coordinate] == 1 for combo in prefix)

    def test_instance_stream_mixes_exhaustive_and_random(self, prelude):
        variables = [Var("x", NAT), Var("y", NAT)]
        instances = list(
            instance_stream(prelude.signature, variables, depth=2, limit=4,
                            random_samples=5, random_depth=5, seed=7)
        )
        assert len(instances) > 4  # random regime added distinct instances
        assert len(set(instances)) == len(instances)  # no duplicates

    def test_instance_stream_is_deterministic(self, prelude):
        variables = [Var("xs", LIST_NAT)]
        first = list(instance_stream(prelude.signature, variables, depth=3,
                                     limit=10, random_samples=10, seed=3))
        second = list(instance_stream(prelude.signature, variables, depth=3,
                                      limit=10, random_samples=10, seed=3))
        assert first == second


# ---------------------------------------------------------------------------
# ground_instances fairness (the satellite regression)
# ---------------------------------------------------------------------------


class TestGroundInstanceFairness:
    def test_limited_enumeration_varies_the_first_variable(self, prelude):
        # Regression: with a limit, itertools.product pinned the first
        # variable to its smallest value for the entire budget, so an
        # equation false only in its first variable escaped the oracle.
        variables = [Var("x", NAT), Var("ys", LIST_NAT)]
        instances = list(ground_instances(prelude.signature, variables, 4, limit=12))
        assert len(instances) == 12
        x_values = {str(instance["x"]) for instance in instances}
        assert len(x_values) > 1, "first variable never varied under the limit"

    def test_unlimited_enumeration_is_the_full_product(self, prelude):
        variables = [Var("x", NAT), Var("y", NAT)]
        instances = list(ground_instances(prelude.signature, variables, 3))
        pairs = {(str(i["x"]), str(i["y"])) for i in instances}
        assert len(pairs) == 9  # 3 Nats x 3 Nats, no dupes, nothing missing

    def test_check_equation_catches_first_variable_bias(self, prelude):
        # False only when n > 0: minus n (add n m) === minus n n is Z === Z
        # for n = Z whatever m is, so a first-variable-pinned oracle with a
        # small budget would pass it.
        equation = prelude.parse_equation("leq n m === True")
        assert not check_equation(prelude, equation, depth=4, limit=8)


# ---------------------------------------------------------------------------
# Falsification
# ---------------------------------------------------------------------------


class TestFalsify:
    def test_refutes_a_false_equation(self, prelude):
        equation = prelude.parse_equation("rev (app xs ys) === app (rev xs) (rev ys)")
        outcome = falsify_equation(prelude, equation)
        assert outcome.counterexample is not None
        assert outcome.counterexample.replay(prelude, equation)

    def test_does_not_refute_a_true_equation(self, prelude):
        equation = prelude.parse_equation("rev (rev xs) === xs")
        outcome = falsify_equation(prelude, equation)
        assert outcome.counterexample is None
        assert outcome.instances_tested > 0

    def test_one_nat_variable_exhausts_the_random_phase_on_duplicates(self, prelude):
        # Exhaustion at depth 4 covers Z .. S^3 Z; depth-7 draws add only
        # S^4 Z .. S^6 Z, so every other draw up to the 8 x 200 cap repeats.
        equation = prelude.parse_equation("add x Z === x")
        outcome = falsify_equation(prelude, equation)
        assert outcome.counterexample is None
        assert outcome.random_attempts == 8 * FalsificationConfig().random_samples
        assert outcome.random_distinct == 3
        assert outcome.instances_tested == 4 + 3

    def test_falsifying_again_pins_no_new_compiled_code(self, prelude):
        # Each falsification compiles the goal's sides; the evaluator pins
        # compiled expressions for its lifetime, so a recompile must hit.
        goal = false_conjectures_problems()[0]
        evaluator = Evaluator.for_program(goal.program)
        falsify_goal(goal.program, goal.goal)
        pinned = len(evaluator._expr_pins), len(evaluator._literals)
        for _ in range(3):
            falsify_goal(goal.program, goal.goal)
        assert (len(evaluator._expr_pins), len(evaluator._literals)) == pinned

    def test_random_draw_counts_stay_out_of_the_counterexample(self, prelude):
        equation = prelude.parse_equation("rev (app xs ys) === app (rev xs) (rev ys)")
        outcome = falsify_equation(prelude, equation)
        assert outcome.random_attempts == outcome.random_distinct == 0
        assert "random" not in " ".join(outcome.counterexample.to_dict())

    def test_conditional_premises_are_respected(self, prelude):
        # n <= m ==> n <= S m is TRUE; an implementation ignoring premises
        # would "refute" it on instances where the premise fails.
        goal_equation = prelude.parse_equation("leq n (S m) === True")
        premise = prelude.parse_equation("leq n m === True")
        outcome = falsify_equation(prelude, goal_equation, conditions=[premise])
        assert outcome.counterexample is None
        assert outcome.premise_skips > 0

    def test_conditional_refutation_carries_premises(self, prelude):
        goal_equation = prelude.parse_equation("leq (S n) m === True")
        premise = prelude.parse_equation("leq n m === True")
        outcome = falsify_equation(prelude, goal_equation, conditions=[premise])
        counterexample = outcome.counterexample
        assert counterexample is not None
        assert counterexample.premises
        assert counterexample.replay(prelude, goal_equation)

    def test_counterexample_round_trips_through_json(self, prelude):
        equation = prelude.parse_equation("minus n m === minus m n")
        counterexample = falsify_equation(prelude, equation).counterexample
        payload = json.loads(json.dumps(counterexample.to_dict()))
        restored = Counterexample.from_dict(payload)
        assert restored == counterexample
        assert restored.replay(prelude, equation)

    def test_from_dict_rejects_junk(self):
        with pytest.raises(ValueError):
            Counterexample.from_dict({"bogus": True})
        with pytest.raises(ValueError):
            Counterexample.from_dict("not a dict")

    def test_uncompilable_program_degrades_gracefully(self):
        from repro.core.equations import Equation
        from repro.core.signature import Signature
        from repro.core.types import fun_ty
        from repro.program import Program
        from repro.rewriting.rules import RewriteRule
        from repro.rewriting.trs import RewriteSystem

        signature = Signature()
        signature.datatype("Nat", [], [("Z", []), ("S", [NAT])])
        # Non-left-linear rule: outside the compilable fragment.
        signature.declare_function("weird", fun_ty((NAT, NAT), NAT))
        x = Var("x", NAT)
        rules = RewriteSystem(signature)
        rules.add_rule(RewriteRule(apply_term(Sym("weird"), x, x), x))
        program = Program(signature, rules, name="weird")
        outcome = falsify_equation(program, Equation(apply_term(Sym("weird"), x, x), x))
        assert outcome.counterexample is None
        assert outcome.error

    def test_goal_falsification_uses_conditions(self, prelude):
        from repro.program import Goal

        goal = Goal(
            name="cond",
            equation=prelude.parse_equation("leq n (S m) === True"),
            conditions=(prelude.parse_equation("leq n m === True"),),
        )
        assert falsify_goal(prelude, goal).counterexample is None


# ---------------------------------------------------------------------------
# Suite-level guarantees
# ---------------------------------------------------------------------------


class TestSuiteLevel:
    def test_every_false_conjecture_is_disproved_with_a_replayable_witness(self):
        for problem in false_conjectures_problems():
            outcome = falsify_goal(problem.program, problem.goal)
            assert outcome.counterexample is not None, f"{problem.name} not refuted"
            assert outcome.counterexample.replay(problem.program), (
                f"{problem.name}: witness failed independent normaliser replay"
            )

    def test_no_true_goal_is_ever_disproved(self):
        # Zero false positives over every unconditional IsaPlanner and mutual
        # goal: the falsifier must never "refute" a true statement.
        from repro.benchmarks_data import isaplanner_problems, mutual_problems

        config = FalsificationConfig(exhaustive_limit=200, random_samples=60)
        for problem in isaplanner_problems() + mutual_problems():
            if problem.goal.is_conditional:
                continue
            outcome = falsify_goal(problem.program, problem.goal, config)
            assert outcome.counterexample is None, (
                f"{problem.name} falsely disproved: {outcome.counterexample}"
            )

    def test_check_equation_agrees_with_itself_on_fallback(self, prelude):
        # The compiled path and the Normalizer fallback must give one verdict.
        for source, expected in [
            ("rev (rev xs) === xs", True),
            ("rev (app xs ys) === app (rev xs) (rev ys)", False),
            ("add x y === add y x", True),
            ("minus n m === minus m n", False),
        ]:
            equation = prelude.parse_equation(source)
            assert check_equation(prelude, equation) is expected
