"""Unit tests for reduction and normalisation."""

import pytest

from repro.core.exceptions import RewriteError
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy
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

NAT = DataTy("Nat")
S = Sym("S")
Z = Sym("Z")


def num(n):
    term = Z
    for _ in range(n):
        term = apply_term(S, term)
    return term


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
    for the wrapper and for both dispatch modes of the class.
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
            lambda ms: Normalizer(rules, max_steps=ms, compile_rules=True).normalize(term),
            lambda ms: Normalizer(rules, max_steps=ms, compile_rules=False).normalize(term),
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
        compiled = Normalizer(rules, max_steps=12, compile_rules=True)
        assert compiled.normalize(term) == Sym("Z")
        assert compiled.steps_taken > 12  # total work exceeds any one budget

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
        for compile_rules in (True, False):
            assert Normalizer(
                rules, max_steps=12, compile_rules=compile_rules, max_total_steps=22
            ).normalize(term) == Sym("Z")
            with pytest.raises(RewriteError):
                Normalizer(
                    rules, max_steps=12, compile_rules=compile_rules, max_total_steps=21
                ).normalize(term)
            # One cap across calls: 11 steps fit 20, 10 more (on terms the
            # first call never saw) do not.
            capped = Normalizer(rules, compile_rules=compile_rules, max_total_steps=20)
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
        for compile_rules in (True, False):
            with pytest.raises(RewriteError):
                Normalizer(rules, max_steps=20, compile_rules=compile_rules).normalize(term)


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
