"""First-match semantics of the shared match-tree compiler (:mod:`repro.rewriting.matchtree`).

Hypothesis draws overlapping, non-orthogonal rule rows of nested
``Z``/``S``/``Nil``/``Cons`` patterns with wildcards, then ground arguments.
The generic matcher (:func:`~repro.core.matching.match_or_none`, rule by rule
in declaration order) is the oracle; both backends of the one tree must
agree with it:

* the compiled open-term matcher returns the reduct of the first row that
  matches (or ``None`` when no row does);
* the ground evaluator's compiled function (``_fn_of_function``, the tree
  walk every evaluation takes) returns that same row's right-hand side, with
  the same bindings (or is stuck).

Case order and spine lengths are invisible to first-match semantics, so a
small golden tree pins them.

Every right-hand side names its row and returns all of the row's bindings,
so agreeing values mean the same row and the same bindings.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.interning import current_bank
from repro.core.matching import match_or_none
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy
from repro.rewriting.compile import CompiledRewriteSystem
from repro.rewriting.matchtree import LEAF, SWITCH, compile_head
from repro.rewriting.rules import RewriteRule
from repro.rewriting.trs import RewriteSystem
from repro.semantics.evaluator import Evaluator, StuckEvaluation

NAT = DataTy("Nat")
LIST = DataTy("List", (NAT,))


def num(n):
    term = Sym("Z")
    for _ in range(n):
        term = apply_term(Sym("S"), term)
    return term


def nat_list(values):
    term = Sym("Nil")
    for value in reversed(values):
        term = apply_term(Sym("Cons"), num(value), term)
    return term


def nat_shapes(depth):
    leaves = st.sampled_from([("var",), ("var",), ("Z",)])
    if depth == 0:
        return leaves
    return st.one_of(leaves, nat_shapes(depth - 1).map(lambda inner: ("S", inner)))


def list_shapes(depth):
    leaves = st.sampled_from([("var",), ("var",), ("Nil",)])
    if depth == 0:
        return leaves
    return st.one_of(
        leaves,
        st.tuples(st.just("Cons"), nat_shapes(1), list_shapes(depth - 1)),
    )


def build_pattern(shape, ty, fresh, bound):
    """The pattern term of a drawn shape; ``bound`` collects its variables."""
    kind = shape[0]
    if kind == "var":
        var = Var(next(fresh), ty)
        bound.append((var, ty))
        return var
    if kind in ("Z", "Nil"):
        return Sym(kind)
    if kind == "S":
        return apply_term(Sym("S"), build_pattern(shape[1], NAT, fresh, bound))
    return apply_term(
        Sym("Cons"),
        build_pattern(shape[1], NAT, fresh, bound),
        build_pattern(shape[2], LIST, fresh, bound),
    )


def build_rule(index, nat_shape, list_shape):
    """``f p q = [[index], [n1], .., xs1, ..]``: the row and all its bindings."""
    fresh = (f"v{index}_{k}" for k in itertools.count())
    bound = []
    lhs = apply_term(
        Sym("f"),
        build_pattern(nat_shape, NAT, fresh, bound),
        build_pattern(list_shape, LIST, fresh, bound),
    )
    elements = [(num(index), NAT)] + bound
    rhs = Sym("Nil")
    for element, ty in reversed(elements):
        cell = apply_term(Sym("Cons"), element, Sym("Nil")) if ty == NAT else element
        rhs = apply_term(Sym("Cons"), cell, rhs)
    return RewriteRule(lhs, rhs)


rows_strategy = st.lists(st.tuples(nat_shapes(2), list_shapes(2)), min_size=1, max_size=6)
args_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2), max_size=3)),
    min_size=1,
    max_size=8,
)


class TestFirstMatch:
    @settings(deadline=None, max_examples=150)
    @given(rows=rows_strategy, calls=args_strategy)
    def test_both_backends_select_the_first_matching_row(self, list_program, rows, calls):
        system = RewriteSystem(list_program.signature)
        rules = [build_rule(index, *row) for index, row in enumerate(rows)]
        for rule in rules:
            system.add_rule(rule, validate=False)
        matcher = CompiledRewriteSystem(system, current_bank()).matcher_for("f")
        assert matcher is not None
        evaluator = Evaluator(list_program.signature, system.rules)
        for n, xs in calls:
            target = apply_term(Sym("f"), num(n), nat_list(xs))
            expected = None
            for rule in rules:
                theta = match_or_none(rule.lhs, target)
                if theta is not None:
                    expected = theta.apply(rule.rhs)
                    break
            assert matcher(target) == expected
            args = (evaluator.evaluate(num(n)), evaluator.evaluate(nat_list(xs)))
            if expected is None:
                with pytest.raises(StuckEvaluation):
                    evaluator._fn_of_function("f")(args)
                continue
            assert evaluator._fn_of_function("f")(args) is evaluator.evaluate(expected)


class TestTreeShape:
    def test_cases_in_first_appearance_order_with_spine_lengths(self, list_program):
        x, y, z, w = (Var(name, NAT) for name in "xyzw")
        rules = [
            RewriteRule(apply_term(Sym("g"), apply_term(Sym("S"), x), Sym("Z")), x),
            RewriteRule(apply_term(Sym("g"), y, apply_term(Sym("S"), z)), y),
            RewriteRule(apply_term(Sym("g"), Sym("Z"), w), w),
        ]
        arity, tree = compile_head("g", rules, list_program.signature)
        first = (LEAF, {"x": (0, 0)}, x)
        second = (LEAF, {"y": (0,), "z": (1, 0)}, y)
        assert arity == 2
        assert tree == (
            SWITCH,
            (0,),
            {
                "S": (1, (SWITCH, (1,), {"Z": (0, first), "S": (1, second)}, None)),
                "Z": (0, (SWITCH, (1,), {"S": (1, second)}, (LEAF, {"w": (1,)}, w))),
            },
            (SWITCH, (1,), {"S": (1, second)}, None),
        )
        # Dict equality ignores order, but the emitted source tests cases in
        # it: first appearance down the rows, not declaration order.
        assert list(tree[2]) == ["S", "Z"]
        assert list(tree[2]["S"][1][2]) == ["Z", "S"]
