"""Tests for compiled rewrite dispatch (:mod:`repro.rewriting.compile`).

Three layers: unit agreement between the compiled and generic dispatchers
(including the decline/fallback boundary and first-match declaration-order
semantics), epoch-based invalidation when rules are added mid-run, and a
Hypothesis differential property over random well-typed instances of the
IsaPlanner and mutual-induction theories — identical normal forms *and*
identical step-budget abort behaviour.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import RewriteError
from repro.core.interning import current_bank
from repro.core.substitution import Substitution
from repro.core.terms import App, Sym, Var, apply_term
from repro.core.types import DataTy, TypeVar
from repro.rewriting.compile import CompiledRewriteSystem, _never_matches
from repro.rewriting.reduction import Normalizer, normalize
from repro.rewriting.rules import RewriteRule
from repro.rewriting.trs import RewriteSystem
from repro.search.config import ProverConfig
from repro.search.prover import Prover
from repro.semantics.evaluator import CompilationError, Evaluator

NAT = DataTy("Nat")
A = TypeVar("a")


def num(n):
    term = Sym("Z")
    for _ in range(n):
        term = apply_term(Sym("S"), term)
    return term


def nat_list(values):
    term = Sym("Nil")
    for value in reversed(list(values)):
        term = apply_term(Sym("Cons"), num(value), term)
    return term


def _pair(system, **kwargs):
    """A (compiled, generic) pair of fresh normalisers over one system."""
    return (
        Normalizer(system, compile_rules=True, **kwargs),
        Normalizer(system, compile_rules=False, **kwargs),
    )


# ---------------------------------------------------------------------------
# Agreement on the example programs
# ---------------------------------------------------------------------------


class TestAgreement:
    def test_ground_terms_agree(self, nat_program):
        compiled, generic = _pair(nat_program.rules)
        for source in [
            "add Z Z",
            "add (S Z) (S (S Z))",
            "mul (S (S Z)) (S (S (S Z)))",
            "double (double (S Z))",
            "mul (double (S Z)) (add (S Z) (S Z))",
        ]:
            term = nat_program.parse_term(source)
            assert compiled.normalize(term) == generic.normalize(term)
        assert compiled.compiled_steps > 0
        assert compiled.fallback_steps == 0
        # The generic baseline must not pay for compiled-mode bookkeeping.
        assert generic.compiled_steps == 0 and generic.head_steps == {}

    def test_open_terms_agree(self, nat_program):
        x = Var("x", NAT)
        compiled, generic = _pair(nat_program.rules)
        for term in [
            apply_term(Sym("add"), x, Sym("Z")),               # stuck at the root
            apply_term(Sym("add"), apply_term(Sym("S"), x), num(2)),
            apply_term(Sym("mul"), apply_term(Sym("add"), x, x), num(1)),
            apply_term(Sym("double"), apply_term(Sym("add"), Sym("Z"), x)),
        ]:
            assert compiled.normalize(term) == generic.normalize(term)

    def test_partial_constructor_application_is_stuck_in_both(self, list_program):
        # `Cons Z` is a partially applied constructor: the `len` patterns
        # demand a 2-ary Cons spine, so the switch must fall through to
        # "no rule" exactly like the generic matcher.
        partial = apply_term(Sym("len"), App(Sym("Cons"), Sym("Z")))
        compiled, generic = _pair(list_program.rules)
        assert compiled.normalize(partial) == generic.normalize(partial) == partial

    def test_list_program_agrees_and_shares_the_bank(self, list_program):
        compiled, generic = _pair(list_program.rules)
        term = apply_term(
            Sym("rev"), apply_term(Sym("app"), nat_list([1, 2]), nat_list([3]))
        )
        # Same ambient bank: agreement is interning identity, not just equality.
        assert compiled.normalize(term) is generic.normalize(term)

    def test_head_steps_attribute_reductions_per_symbol(self, nat_program):
        compiled, _ = _pair(nat_program.rules)
        compiled.normalize(nat_program.parse_term("mul (S Z) (S Z)"))
        assert compiled.head_steps.get("mul", 0) >= 1
        assert compiled.head_steps.get("add", 0) >= 1
        assert sum(compiled.head_steps.values()) == (
            compiled.compiled_steps + compiled.fallback_steps
        )

    def test_cache_stats_report_dispatch_counters(self, nat_program):
        compiled, _ = _pair(nat_program.rules)
        compiled.normalize(nat_program.parse_term("add (S Z) (S Z)"))
        stats = compiled.cache_stats()
        assert stats["compiled_steps"] == compiled.compiled_steps > 0
        assert stats["fallback_steps"] == 0

    def test_compile_seconds_observed_through_the_normalizer(self, nat_program):
        compiled, generic = _pair(nat_program.rules.copy())
        assert compiled.compile_seconds == 0.0  # lazy: nothing reached yet
        compiled.normalize(nat_program.parse_term("add Z Z"))
        assert compiled.compile_seconds > 0.0
        assert generic.compile_seconds == 0.0


class TestDeclarationOrder:
    def test_first_matching_rule_wins_on_overlap(self, nat_program):
        # Overlapping, non-orthogonal rules entered the way completion does
        # (validate=False): the compiled tree must preserve first-match
        # declaration order, not reorder by specificity.
        system = RewriteSystem(nat_program.rules.signature)
        x = Var("x", NAT)
        system.add_rule(
            RewriteRule(apply_term(Sym("g"), Sym("Z")), num(1)), validate=False
        )
        system.add_rule(RewriteRule(apply_term(Sym("g"), x), x), validate=False)
        compiled, generic = _pair(system)
        g_zero = apply_term(Sym("g"), Sym("Z"))
        g_two = apply_term(Sym("g"), num(2))
        assert compiled.normalize(g_zero) == generic.normalize(g_zero) == num(1)
        assert compiled.normalize(g_two) == generic.normalize(g_two) == num(2)
        assert compiled.fallback_steps == 0  # overlap alone is compilable


# ---------------------------------------------------------------------------
# The decline boundary (per-head generic fallback)
# ---------------------------------------------------------------------------


@pytest.fixture(params=["compiled", "evaluator"])
def declines(request):
    """Assert that one backend declines a head of a malformed rule set.

    The compiled normaliser marks the head generic (``matcher_for`` is
    ``None``); the ground evaluator refuses the whole system.
    """

    def check(system, head):
        if request.param == "compiled":
            compiled = CompiledRewriteSystem.for_system(system, current_bank())
            assert compiled.matcher_for(head) is None
            assert compiled.declined_heads == 1
        else:
            with pytest.raises(CompilationError):
                Evaluator(system.signature, system.rules)

    return check


class TestDeclines:
    def _compiled(self, system):
        return CompiledRewriteSystem.for_system(system, current_bank())

    def test_non_left_linear_rule_declines_head(self, nat_program, declines):
        system = RewriteSystem(nat_program.rules.signature)
        x = Var("x", NAT)
        system.add_rule(
            RewriteRule(apply_term(Sym("eqq"), x, x), Sym("Z")), validate=False
        )
        declines(system, "eqq")

    def test_declined_head_falls_back_to_the_generic_loop(self, nat_program):
        system = RewriteSystem(nat_program.rules.signature)
        x = Var("x", NAT)
        system.add_rule(
            RewriteRule(apply_term(Sym("eqq"), x, x), Sym("Z")), validate=False
        )
        normalizer = Normalizer(system, compile_rules=True)
        assert normalizer.normalize(apply_term(Sym("eqq"), num(2), num(2))) == Sym("Z")
        assert normalizer.fallback_steps == 1
        assert normalizer.compiled_steps == 0
        assert normalizer.head_steps == {"eqq": 1}

    def test_arity_disagreement_declines_head(self, nat_program, declines):
        system = RewriteSystem(nat_program.rules.signature)
        x, y = Var("x", NAT), Var("y", NAT)
        system.add_rule(RewriteRule(apply_term(Sym("h"), x), x), validate=False)
        system.add_rule(RewriteRule(apply_term(Sym("h"), x, y), x), validate=False)
        declines(system, "h")

    def test_defined_symbol_in_pattern_declines_head(self, nat_program, declines):
        system = RewriteSystem(nat_program.rules.signature)
        x, y = Var("x", NAT), Var("y", NAT)
        lhs = apply_term(Sym("k"), apply_term(Sym("add"), x, y))
        system.add_rule(RewriteRule(lhs, x), validate=False)
        declines(system, "k")

    def test_variable_headed_pattern_declines_head(self, nat_program, declines):
        system = RewriteSystem(nat_program.rules.signature)
        applied_var = App(Var("f", A), Var("y", NAT))
        system.add_rule(
            RewriteRule(apply_term(Sym("k2"), applied_var), Sym("Z")), validate=False
        )
        declines(system, "k2")

    def test_unbound_rhs_variable_declines_head(self, nat_program, declines):
        system = RewriteSystem(nat_program.rules.signature)
        system.add_rule(
            RewriteRule(apply_term(Sym("u"), Sym("Z")), Var("x", NAT)), validate=False
        )
        declines(system, "u")

    def test_constructor_at_two_arities_declines_head(self, list_program, declines):
        system = RewriteSystem(list_program.rules.signature)
        x = Var("x", NAT)
        xs = Var("xs", DataTy("List", (NAT,)))
        system.add_rule(
            RewriteRule(apply_term(Sym("p"), App(Sym("Cons"), x)), Sym("Z")),
            validate=False,
        )
        system.add_rule(
            RewriteRule(apply_term(Sym("p"), apply_term(Sym("Cons"), x, xs)), Sym("Z")),
            validate=False,
        )
        declines(system, "p")

    def test_rule_less_head_never_matches(self, nat_program):
        compiled = self._compiled(nat_program.rules)
        matcher = compiled.matcher_for("Z")
        assert matcher is _never_matches
        assert matcher(Sym("Z")) is None

    def test_declined_head_does_not_poison_others(self, nat_program):
        system = nat_program.rules.copy()
        x = Var("x", NAT)
        system.add_rule(
            RewriteRule(apply_term(Sym("eqq"), x, x), Sym("Z")), validate=False
        )
        normalizer = Normalizer(system, compile_rules=True)
        mixed = apply_term(Sym("eqq"), apply_term(Sym("add"), num(1), num(1)), num(2))
        assert normalizer.normalize(mixed) == Sym("Z")
        # `add` reduced through its compiled tree, `eqq` through the fallback.
        assert normalizer.compiled_steps > 0
        assert normalizer.fallback_steps == 1


# ---------------------------------------------------------------------------
# Invalidation: rules added mid-run (completion, rewriting induction)
# ---------------------------------------------------------------------------


class TestInvalidation:
    def test_for_system_memoises_per_epoch(self, nat_program):
        system = nat_program.rules.copy()
        bank = current_bank()
        first = CompiledRewriteSystem.for_system(system, bank)
        assert CompiledRewriteSystem.for_system(system, bank) is first
        system.add_rule(
            RewriteRule(apply_term(Sym("m"), Var("x", NAT)), Sym("Z")), validate=False
        )
        fresh = CompiledRewriteSystem.for_system(system, bank)
        assert fresh is not first
        assert fresh.epoch == system.epoch

    def test_copy_does_not_share_compiled_trees(self, nat_program):
        system = nat_program.rules.copy()
        bank = current_bank()
        original = CompiledRewriteSystem.for_system(system, bank)
        clone = system.copy()
        assert CompiledRewriteSystem.for_system(clone, bank) is not original

    def test_normalizer_picks_up_rules_added_mid_run(self, nat_program):
        system = nat_program.rules.copy()
        normalizer = Normalizer(system, compile_rules=True)
        term = apply_term(Sym("mystery"), num(1))
        assert normalizer.normalize(term) == term  # no rules: stuck
        system.add_rule(
            RewriteRule(apply_term(Sym("mystery"), Var("x", NAT)), Var("x", NAT)),
            validate=False,
        )
        # The stale cached normal form and the stale match tree must both go.
        assert normalizer.normalize(term) == num(1)

    def test_generic_normalizer_also_refreshes_its_cache(self, nat_program):
        system = nat_program.rules.copy()
        normalizer = Normalizer(system, compile_rules=False)
        term = apply_term(Sym("mystery"), num(1))
        assert normalizer.normalize(term) == term
        system.add_rule(
            RewriteRule(apply_term(Sym("mystery"), Var("x", NAT)), Var("x", NAT)),
            validate=False,
        )
        assert normalizer.normalize(term) == num(1)

    def test_compile_seconds_survive_a_refresh(self, nat_program):
        system = nat_program.rules.copy()
        normalizer = Normalizer(system, compile_rules=True)
        normalizer.normalize(nat_program.parse_term("add (S Z) (S Z)"))
        before = normalizer.compile_seconds
        assert before > 0.0
        system.add_rule(
            RewriteRule(apply_term(Sym("m2"), Var("x", NAT)), Sym("Z")), validate=False
        )
        normalizer.normalize(apply_term(Sym("m2"), num(1)))
        # Recompiling after the epoch bump adds to, never resets, the total.
        assert normalizer.compile_seconds >= before


# ---------------------------------------------------------------------------
# Prover-level plumbing: counters reach the search statistics
# ---------------------------------------------------------------------------


class TestStatisticsPlumbing:
    def test_compiled_counters_reach_search_statistics(self, nat_program):
        equation = nat_program.parse_equation("add x Z === x")
        # Pinned explicitly (not the default) so this test means the same
        # thing under the REPRO_NO_COMPILE_RULES parity run in CI.
        config = ProverConfig(timeout=10.0, compile_rules=True)
        result = Prover(nat_program, config).prove(equation)
        assert result.proved
        assert result.statistics.compiled_steps > 0
        assert result.statistics.fallback_steps == 0
        assert result.statistics.rewrite_head_counts.get("add", 0) > 0
        assert result.statistics.compile_seconds >= 0.0

    def test_no_compile_rules_keeps_counters_dark(self, nat_program):
        equation = nat_program.parse_equation("add x Z === x")
        config = ProverConfig(timeout=10.0, compile_rules=False)
        result = Prover(nat_program, config).prove(equation)
        assert result.proved
        assert result.statistics.compiled_steps == 0
        assert result.statistics.fallback_steps == 0
        assert result.statistics.rewrite_head_counts == {}


# ---------------------------------------------------------------------------
# Differential property: compiled == generic on random well-typed instances
# ---------------------------------------------------------------------------


def _ground_for_type(ty, data):
    """A random closed term of (a Nat instance of) ``ty``, or ``None``."""
    if isinstance(ty, TypeVar):
        return num(data.draw(st.integers(0, 6)))
    if isinstance(ty, DataTy):
        if ty.name == "Nat":
            return num(data.draw(st.integers(0, 6)))
        if ty.name == "List":
            return nat_list(data.draw(st.lists(st.integers(0, 4), max_size=5)))
    return None


def _outcome(normalizer, term):
    """``("nf", normal form)`` or ``("abort", None)`` on budget exhaustion."""
    try:
        return ("nf", normalizer.normalize(term))
    except RewriteError:
        return ("abort", None)


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
_expr_trees = st.builds(
    lambda t, n: apply_term(Sym("MkE"), t, n), _term_trees, _small_nats
)


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_isaplanner_goal_instances(self, isaplanner, data):
        """Compiled and generic dispatch agree — normal form or abort — on
        random well-typed ground instances of the IsaPlanner goals."""
        goals = sorted(isaplanner.goals)
        goal = isaplanner.goals[data.draw(st.sampled_from(goals))]
        equation = goal.equation
        bindings = {}
        for var in equation.variables():
            ground = _ground_for_type(var.ty, data)
            if ground is None:  # function/tree-typed: leave the variable open
                continue
            bindings[var.name] = ground
        instance = equation.apply(Substitution(bindings))
        max_steps = data.draw(st.sampled_from([40, 10_000]))
        for side in (instance.lhs, instance.rhs):
            compiled, generic = _pair(isaplanner.rules, max_steps=max_steps)
            assert _outcome(compiled, side) == _outcome(generic, side)

    @settings(max_examples=40, deadline=None)
    @given(tree=_term_trees, budget=st.sampled_from([40, 10_000]))
    def test_mutual_theory_instances(self, mutual, tree, budget):
        """The mutually recursive mapT/mapE/sizeT/sizeE theory: identical
        normal forms and abort behaviour on random syntax trees."""
        identity = Sym("id")
        for source_head in ("sizeT", "mapT"):
            term = (
                apply_term(Sym(source_head), tree)
                if source_head == "sizeT"
                else apply_term(Sym(source_head), identity, tree)
            )
            compiled, generic = _pair(mutual.rules, max_steps=budget)
            assert _outcome(compiled, term) == _outcome(generic, term)

    @settings(max_examples=20, deadline=None)
    @given(expr=_expr_trees)
    def test_mutual_expressions_compose(self, mutual, expr):
        term = apply_term(
            Sym("mapE"),
            apply_term(Sym("comp"), Sym("id"), Sym("id")),
            apply_term(Sym("mapE"), Sym("id"), expr),
        )
        compiled, generic = _pair(mutual.rules)
        assert compiled.normalize(term) == generic.normalize(term)
