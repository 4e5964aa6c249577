"""Unit tests for reduction and normalisation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import RewriteError
from repro.core.interning import TermBank
from repro.core.substitution import Substitution
from repro.core.terms import App, Sym, Var, apply_term
from repro.core.types import DataTy, TypeVar
from repro.lang import load_program
from repro.rewriting.reduction import (
    Normalizer,
    find_redex,
    is_normal_form,
    normalize,
    one_step,
    reducts,
)
from repro.rewriting.rules import RewriteRule
from repro.rewriting.trs import RewriteSystem
from repro.search.config import ProverConfig
from repro.search.prover import Prover
from repro.semantics.evaluator import Evaluator, value_to_term

NAT = DataTy("Nat")
LIST = DataTy("List", (NAT,))
S = Sym("S")
Z = Sym("Z")


def num(n):
    term = Z
    for _ in range(n):
        term = apply_term(S, term)
    return term


def nat_list(values):
    term = Sym("Nil")
    for value in reversed(list(values)):
        term = apply_term(Sym("Cons"), num(value), term)
    return term


def leftmost_outermost(system, term, limit=10_000):
    """The normal form by iterated :func:`one_step`: uncached, one redex at a
    time, leftmost-outermost — the (Reduce) relation read off its definition."""
    for _ in range(limit):
        reduct = one_step(system, term)
        if reduct is None:
            return term
        term = reduct
    raise AssertionError(f"no normal form within {limit} steps")


class TestOneStep:
    def test_finds_leftmost_outermost_redex(self, nat_program):
        term = nat_program.parse_term("add (add Z Z) (add Z Z)")
        redex = find_redex(nat_program.rules, term)
        assert redex is not None
        # The outer add is stuck (its first argument is not a constructor), so
        # the leftmost-outermost redex is the inner add at position (0, 1).
        assert redex.position == (0, 1)
        assert redex.rule.head == "add"

    def test_one_step_reduces(self, nat_program):
        term = nat_program.parse_term("add Z (S Z)")
        assert one_step(nat_program.rules, term) == num(1)

    def test_normal_form_has_no_step(self, nat_program):
        assert one_step(nat_program.rules, num(2)) is None
        assert is_normal_form(nat_program.rules, num(2))

    def test_open_term_can_be_stuck(self, nat_program):
        x = Var("x", NAT)
        stuck = apply_term(Sym("add"), x, Z)
        assert is_normal_form(nat_program.rules, stuck)

    def test_reducts_enumerates_all_positions(self, nat_program):
        term = nat_program.parse_term("add (add Z Z) (add Z Z)")
        all_reducts = list(reducts(nat_program.rules, term))
        assert len(all_reducts) == 2


class TestNormalize:
    def test_normalize_computes_values(self, nat_program):
        term = nat_program.parse_term("add (S Z) (S Z)")
        assert normalize(nat_program.rules, term) == num(2)

    def test_normalize_mul(self, nat_program):
        term = nat_program.parse_term("mul (S (S Z)) (S (S (S Z)))")
        assert normalize(nat_program.rules, term) == num(6)

    def test_normalize_open_term(self, nat_program):
        x = Var("x", NAT)
        term = apply_term(Sym("add"), apply_term(Sym("S"), x), Z)
        assert normalize(nat_program.rules, term) == apply_term(
            Sym("S"), apply_term(Sym("add"), x, Z)
        )

    def test_step_budget_enforced(self):
        source = """
data Nat = Z | S Nat
loop :: Nat -> Nat
loop x = loop x
"""
        program = load_program(source)
        with pytest.raises(RewriteError):
            normalize(program.rules, program.parse_term("loop Z"), max_steps=50)


COUNTDOWN_SOURCE = """
data Nat = Z | S Nat

countdown :: Nat -> Nat
countdown Z = Z
countdown (S x) = countdown x

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
"""


class TestPerRootStepBudget:
    """The budget is per root (per cache-missed subterm), on every path.

    Historically the module-level :func:`normalize` counted steps *globally*
    across the whole term while :class:`Normalizer` counted them per root, so
    the same term could normalise on one path and raise on the other.  Both
    now share the per-root semantics; these tests pin the boundary exactly,
    for the wrapper and for the class.
    """

    @pytest.fixture(scope="class")
    def countdown_program(self):
        return load_program(COUNTDOWN_SOURCE, name="countdown")

    def _chain(self, program, n):
        """``countdown (S^n Z)``: exactly ``n + 1`` root reductions, all at
        one frame (each reduct is again countdown-headed)."""
        return program.parse_term("countdown (" + "S (" * n + "Z" + ")" * n + ")")

    def test_boundary_is_identical_on_every_path(self, countdown_program):
        # n + 1 = 11 root reductions: the budget must be strictly larger.
        term = self._chain(countdown_program, 10)
        rules = countdown_program.rules
        for attempt in (
            lambda ms: normalize(rules, term, max_steps=ms),
            lambda ms: Normalizer(rules, max_steps=ms).normalize(term),
        ):
            assert attempt(12) == Sym("Z")
            with pytest.raises(RewriteError):
                attempt(11)

    def test_budget_is_per_root_not_global(self, countdown_program):
        # Two independent chains of 11 and 9 root reductions.  Per root each
        # fits a budget of 12 on its own; a global count (the historical
        # module-normalize semantics) would need at least their sum and
        # would have raised here.
        term = countdown_program.parse_term(
            "add (countdown ("
            + "S (" * 10 + "Z" + ")" * 10
            + ")) (countdown ("
            + "S (" * 8 + "Z" + ")" * 8
            + "))"
        )
        rules = countdown_program.rules
        assert normalize(rules, term, max_steps=12) == Sym("Z")
        normalizer = Normalizer(rules, max_steps=12)
        assert normalizer.normalize(term) == Sym("Z")
        assert normalizer.steps_taken > 12  # total work exceeds any one budget

    def test_total_cap_counts_across_roots_and_calls(self, countdown_program):
        # The two chains above plus the final `add Z Z` take 21 steps in
        # all; as with the per-root budget, the cap must be strictly larger.
        term = countdown_program.parse_term(
            "add (countdown ("
            + "S (" * 10 + "Z" + ")" * 10
            + ")) (countdown ("
            + "S (" * 8 + "Z" + ")" * 8
            + "))"
        )
        rules = countdown_program.rules
        assert Normalizer(rules, max_steps=12, max_total_steps=22).normalize(term) == Sym("Z")
        with pytest.raises(RewriteError):
            Normalizer(rules, max_steps=12, max_total_steps=21).normalize(term)
        # One cap across calls: 11 steps fit 20, 10 more (on terms the first
        # call never saw) do not.
        capped = Normalizer(rules, max_total_steps=20)
        assert capped.normalize(self._chain(countdown_program, 10)) == Sym("Z")
        with pytest.raises(RewriteError):
            capped.normalize(
                countdown_program.parse_term("add (" + "S (" * 9 + "Z" + ")" * 9 + ") Z")
            )

    def test_wrapper_and_class_agree_on_abort(self, countdown_program):
        term = self._chain(countdown_program, 30)
        rules = countdown_program.rules
        with pytest.raises(RewriteError):
            normalize(rules, term, max_steps=20)
        with pytest.raises(RewriteError):
            Normalizer(rules, max_steps=20).normalize(term)


class TestNormalizer:
    def test_agrees_with_normalize(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        for source in ["add Z Z", "add (S Z) (S (S Z))", "mul (S (S Z)) (S (S Z))", "double (S Z)"]:
            term = nat_program.parse_term(source)
            assert normalizer.normalize(term) == normalize(nat_program.rules, term)

    def test_cache_is_used(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        term = nat_program.parse_term("mul (S (S Z)) (S (S Z))")
        normalizer.normalize(term)
        first = normalizer.cache_size()
        normalizer.normalize(term)
        assert normalizer.cache_size() == first
        assert first > 0

    def test_clear_empties_cache(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        normalizer.normalize(nat_program.parse_term("add Z Z"))
        normalizer.clear()
        assert normalizer.cache_size() == 0

    def test_idempotent(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        term = nat_program.parse_term("mul (S (S Z)) (double (S Z))")
        nf = normalizer.normalize(term)
        assert normalizer.normalize(nf) == nf
        assert is_normal_form(nat_program.rules, nf)

    def test_normalizer_on_list_program(self, list_program):
        normalizer = Normalizer(list_program.rules)
        term = list_program.parse_term("rev (Cons Z (Cons (S Z) Nil))")
        expected = list_program.parse_term("Cons (S Z) (Cons Z Nil)")
        assert normalizer.normalize(term) == expected

    def test_first_matching_rule_wins_on_overlap(self, nat_program):
        # Overlapping, non-orthogonal rules entered the way completion does
        # (validate=False): declaration order decides, not specificity.
        system = RewriteSystem(nat_program.rules.signature)
        x = Var("x", NAT)
        system.add_rule(RewriteRule(apply_term(Sym("g"), Z), num(1)), validate=False)
        system.add_rule(RewriteRule(apply_term(Sym("g"), x), x), validate=False)
        normalizer = Normalizer(system)
        assert normalizer.normalize(apply_term(Sym("g"), Z)) == num(1)
        assert normalizer.normalize(apply_term(Sym("g"), num(2))) == num(2)

    def test_partial_constructor_application_is_stuck(self, list_program):
        # `Cons Z` is a partially applied constructor: the `len` patterns
        # demand a 2-ary Cons spine, so no rule matches.
        partial = apply_term(Sym("len"), App(Sym("Cons"), Z))
        assert Normalizer(list_program.rules).normalize(partial) == partial

    def test_rules_added_mid_run_refresh_the_cache(self, nat_program):
        system = nat_program.rules.copy()
        normalizer = Normalizer(system)
        term = apply_term(Sym("mystery"), num(1))
        assert normalizer.normalize(term) == term  # no rules: stuck
        system.add_rule(
            RewriteRule(apply_term(Sym("mystery"), Var("x", NAT)), Var("x", NAT)),
            validate=False,
        )
        # The stale cached normal form must go.
        assert normalizer.normalize(term) == num(1)

    def test_a_copy_keeps_its_own_rules(self, nat_program):
        original = nat_program.rules.copy()
        clone = original.copy()
        on_original, on_clone = Normalizer(original), Normalizer(clone)
        term = apply_term(Sym("mystery"), num(1))
        assert on_original.normalize(term) == on_clone.normalize(term) == term
        clone.add_rule(
            RewriteRule(apply_term(Sym("mystery"), Var("x", NAT)), Var("x", NAT)),
            validate=False,
        )
        assert on_clone.normalize(term) == num(1)
        assert on_original.normalize(term) == term

    def test_open_terms_reach_the_leftmost_outermost_normal_form(self, nat_program):
        x = Var("x", NAT)
        normalizer = Normalizer(nat_program.rules)
        for term in [
            apply_term(Sym("add"), x, Z),  # stuck at the root
            apply_term(Sym("add"), apply_term(S, x), num(2)),
            apply_term(Sym("mul"), apply_term(Sym("add"), x, x), num(1)),
            apply_term(Sym("double"), apply_term(Sym("add"), Z, x)),
        ]:
            assert normalizer.normalize(term) == leftmost_outermost(nat_program.rules, term)

    def test_normal_forms_are_shared_through_the_bank(self, list_program):
        term = apply_term(Sym("rev"), apply_term(Sym("app"), nat_list([1, 2]), nat_list([3])))
        first = Normalizer(list_program.rules).normalize(term)
        # Same ambient bank: agreement is interning identity, not just equality.
        assert first is Normalizer(list_program.rules).normalize(term)
        assert first is nat_list([3, 2, 1])

    def test_rule_less_heads_are_stuck(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        unknown = apply_term(Sym("undefined_fn"), num(1))
        for term in (Z, num(2), unknown):
            assert normalizer.normalize(term) == term
        assert normalizer.head_steps == {} and normalizer.steps_taken == 0

    def test_normal_forms_stay_in_the_normalizers_bank(self, nat_program):
        # `mul Z y = Z` has a ground right-hand side: the reduct is the rule's
        # own node, built in the program's bank, and must be interned.
        bank = TermBank()
        normalizer = Normalizer(nat_program.rules, bank=bank)
        normal_form = normalizer.normalize(nat_program.parse_term("mul Z (S Z)"))
        assert normal_form == Z
        assert normal_form._bank is bank


class TestHeadSteps:
    def test_every_root_step_is_attributed_to_its_head(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        normalizer.normalize(nat_program.parse_term("mul (S Z) (S Z)"))
        assert normalizer.head_steps.get("mul", 0) >= 1
        assert normalizer.head_steps.get("add", 0) >= 1
        assert sum(normalizer.head_steps.values()) == normalizer.steps_taken

    def test_head_steps_reach_search_statistics(self, nat_program):
        equation = nat_program.parse_equation("add x Z === x")
        result = Prover(nat_program, ProverConfig(timeout=10.0)).prove(equation)
        assert result.proved
        assert result.statistics.rewrite_head_counts.get("add", 0) > 0

    def test_cache_hits_take_no_steps(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        term = nat_program.parse_term("mul (S (S Z)) (S Z)")
        normalizer.normalize(term)
        steps, heads = normalizer.steps_taken, dict(normalizer.head_steps)
        normalizer.normalize(term)
        assert (normalizer.steps_taken, normalizer.head_steps) == (steps, heads)

    def test_cache_stats_report_the_step_count(self, nat_program):
        normalizer = Normalizer(nat_program.rules)
        normalizer.normalize(nat_program.parse_term("add (S Z) (S Z)"))
        stats = normalizer.cache_stats()
        assert stats["steps"] == normalizer.steps_taken == 2
        assert stats["size"] == normalizer.cache_size() > 0
        assert (stats["hits"], stats["misses"]) == (
            normalizer.cache_hits, normalizer.cache_misses,
        )


def _system_with(program, *rules):
    system = program.rules.copy()
    for rule in rules:
        system.add_rule(rule, validate=False)
    return system


class TestOutsideTheMatchTreeFragment:
    """Rule shapes :func:`~repro.rewriting.matchtree.compile_head` declines
    (see ``tests/test_matchtree.py``) still reduce here: the normaliser
    matches rule by rule and needs no decision tree."""

    def test_non_left_linear_rule(self, nat_program):
        x = Var("x", NAT)
        system = _system_with(nat_program, RewriteRule(apply_term(Sym("eqq"), x, x), Z))
        normalizer = Normalizer(system)
        assert normalizer.normalize(apply_term(Sym("eqq"), num(2), num(2))) == Z
        unequal = apply_term(Sym("eqq"), num(1), num(2))
        assert normalizer.normalize(unequal) == unequal

    def test_defined_symbol_in_pattern(self, nat_program):
        x, y = Var("x", NAT), Var("y", NAT)
        lhs = apply_term(Sym("k"), apply_term(Sym("add"), x, y))
        normalizer = Normalizer(_system_with(nat_program, RewriteRule(lhs, x)))
        # `add x y` is stuck on the open `x`, so the pattern sees it intact.
        assert normalizer.normalize(lhs) == x

    def test_variable_headed_pattern(self, nat_program):
        pattern = apply_term(Sym("k2"), App(Var("f", TypeVar("a")), Var("y", NAT)))
        normalizer = Normalizer(_system_with(nat_program, RewriteRule(pattern, Z)))
        assert normalizer.normalize(apply_term(Sym("k2"), num(3))) == Z
        assert normalizer.normalize(apply_term(Sym("k2"), Z)) == apply_term(Sym("k2"), Z)

    def test_constructor_at_two_arities(self, list_program):
        x, xs = Var("x", NAT), Var("xs", LIST)
        system = _system_with(
            list_program,
            RewriteRule(apply_term(Sym("p"), App(Sym("Cons"), x)), Z),
            RewriteRule(apply_term(Sym("p"), apply_term(Sym("Cons"), x, xs)), num(1)),
        )
        normalizer = Normalizer(system)
        assert normalizer.normalize(apply_term(Sym("p"), App(Sym("Cons"), Z))) == Z
        assert normalizer.normalize(apply_term(Sym("p"), nat_list([0]))) == num(1)

    def test_such_a_head_reduces_alongside_the_others(self, nat_program):
        x = Var("x", NAT)
        system = _system_with(nat_program, RewriteRule(apply_term(Sym("eqq"), x, x), Z))
        normalizer = Normalizer(system)
        mixed = apply_term(Sym("eqq"), apply_term(Sym("add"), num(1), num(1)), num(2))
        assert normalizer.normalize(mixed) == Z
        assert normalizer.head_steps == {"add": 2, "eqq": 1}


# ---------------------------------------------------------------------------
# Differential: the normaliser against the ground evaluator on random
# well-typed instances.  The evaluator is the independent implementation of
# the same relation on closed terms (match trees, strict values).
# ---------------------------------------------------------------------------


def _drawn_kind(ty):
    """``"nat"`` or ``"list"`` (of Nat) for a type drawn as a ground value —
    a type variable is instantiated at Nat — or ``None``."""
    if isinstance(ty, TypeVar) or ty == NAT:
        return "nat"
    if isinstance(ty, DataTy) and ty.name == "List" and _drawn_kind(ty.args[0]) == "nat":
        return "list"
    return None


def _ground_for_type(ty, data):
    if _drawn_kind(ty) == "nat":
        return num(data.draw(st.integers(0, 6)))
    return nat_list(data.draw(st.lists(st.integers(0, 4), max_size=5)))


#: Random ground trees of the mutual theory's `Term Nat` / `Expr Nat` types.
_small_nats = st.integers(0, 3).map(num)
_term_trees = st.recursive(
    st.one_of(
        _small_nats.map(lambda n: apply_term(Sym("TVar"), n)),
        _small_nats.map(lambda n: apply_term(Sym("Cst"), n)),
    ),
    lambda children: st.builds(
        lambda t1, n1, t2, n2: apply_term(
            Sym("TApp"),
            apply_term(Sym("MkE"), t1, n1),
            apply_term(Sym("MkE"), t2, n2),
        ),
        children, _small_nats, children, _small_nats,
    ),
    max_leaves=8,
)
_expr_trees = st.builds(lambda t, n: apply_term(Sym("MkE"), t, n), _term_trees, _small_nats)


def _evaluated(program, term):
    return value_to_term(Evaluator.for_program(program).evaluate(term))


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_isaplanner_goal_instances(self, isaplanner, data):
        """Normal forms agree with evaluated values on random well-typed
        ground instances of the IsaPlanner goals."""
        names = sorted(
            name
            for name, goal in isaplanner.goals.items()
            if all(_drawn_kind(var.ty) for var in goal.equation.variables())
        )
        equation = isaplanner.goals[data.draw(st.sampled_from(names))].equation
        bindings = {
            var.name: _ground_for_type(var.ty, data) for var in equation.variables()
        }
        instance = equation.apply(Substitution(bindings))
        normalizer = Normalizer(isaplanner.rules)
        for side in (instance.lhs, instance.rhs):
            assert normalizer.normalize(side) == _evaluated(isaplanner, side)

    @settings(max_examples=40, deadline=None)
    @given(tree=_term_trees)
    def test_mutual_theory_instances(self, mutual, tree):
        """The mutually recursive mapT/mapE/sizeT/sizeE theory on random
        syntax trees."""
        normalizer = Normalizer(mutual.rules)
        for term in (
            apply_term(Sym("sizeT"), tree),
            apply_term(Sym("mapT"), Sym("id"), tree),
        ):
            assert normalizer.normalize(term) == _evaluated(mutual, term)

    @settings(max_examples=20, deadline=None)
    @given(expr=_expr_trees)
    def test_mutual_expressions_compose(self, mutual, expr):
        term = apply_term(
            Sym("mapE"),
            apply_term(Sym("comp"), Sym("id"), Sym("id")),
            apply_term(Sym("mapE"), Sym("id"), expr),
        )
        normal_form = Normalizer(mutual.rules).normalize(term)
        assert normal_form == _evaluated(mutual, term) == expr
