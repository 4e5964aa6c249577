"""Unit tests for size-change graphs, their closure, and SCT termination."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import load_program
from repro.sizechange.closure import (
    IncrementalClosure,
    check_global_condition,
    closure_of,
    find_violation,
)
from repro.sizechange.graph import DECREASE, NO_DECREASE, SizeChangeGraph, identity_graph
from repro.sizechange.termination import call_graphs_of, sct_terminates


def graph(source, target, edges):
    return SizeChangeGraph.make(source, target, edges)


class TestGraphBasics:
    def test_make_normalises_duplicate_edges(self):
        g = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "y", DECREASE)])
        assert len(g.edges) == 1
        assert g.has_decreasing_edge("x", "y")

    def test_identity_graph(self):
        g = identity_graph(0, 0, ["x", "y"])
        assert g.has_edge("x", "x") and g.has_edge("y", "y")
        assert not g.has_decreasing_self_edge()

    def test_sources_and_targets(self):
        g = graph(0, 1, [("x", "a", DECREASE), ("y", "b", NO_DECREASE)])
        assert g.sources() == ("x", "y")
        assert g.targets() == ("a", "b")


class TestComposition:
    def test_compose_follows_shared_variables(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(1, 2, [("y", "z", DECREASE)])
        composed = g1.compose(g2)
        assert composed.source == 0 and composed.target == 2
        assert composed.has_decreasing_edge("x", "z")

    def test_compose_drops_unconnected_edges(self):
        g1 = graph(0, 1, [("x", "y", DECREASE)])
        g2 = graph(1, 2, [("w", "z", DECREASE)])
        assert g1.compose(g2).edges == frozenset()

    def test_compose_requires_matching_endpoints(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(2, 3, [("y", "z", NO_DECREASE)])
        with pytest.raises(ValueError):
            g1.compose(g2)

    def test_composition_is_associative(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE), ("x", "w", DECREASE)])
        g2 = graph(1, 2, [("y", "z", DECREASE), ("w", "z", NO_DECREASE)])
        g3 = graph(2, 0, [("z", "x", NO_DECREASE)])
        assert g1.compose(g2).compose(g3) == g1.compose(g2.compose(g3))

    def test_identity_is_neutral(self):
        g = graph(0, 1, [("x", "y", DECREASE), ("z", "y", NO_DECREASE)])
        left_identity = identity_graph(0, 0, ["x", "z"])
        right_identity = identity_graph(1, 1, ["y"])
        assert left_identity.compose(g) == g
        assert g.compose(right_identity) == g

    def test_idempotence_detection(self):
        good = graph(0, 0, [("x", "x", DECREASE)])
        assert good.is_idempotent()
        not_idempotent = graph(0, 0, [("x", "y", NO_DECREASE)])
        assert not not_idempotent.is_idempotent()


class TestClosure:
    def test_closure_contains_compositions(self):
        g1 = graph(0, 1, [("x", "y", NO_DECREASE)])
        g2 = graph(1, 0, [("y", "x", DECREASE)])
        closure = closure_of([g1, g2])
        assert any(g.source == 0 and g.target == 0 and g.has_decreasing_self_edge() for g in closure)

    def test_sound_cycle_passes_global_condition(self):
        g1 = graph(0, 1, [("x", "x1", DECREASE), ("y", "y", NO_DECREASE)])
        g2 = graph(1, 0, [("x1", "x", NO_DECREASE), ("y", "y", NO_DECREASE)])
        assert check_global_condition([g1, g2])

    def test_unsound_cycle_detected(self):
        # A cycle whose only self graph has no decreasing self edge (Example 3.2).
        g = graph(0, 0, [("x", "x", NO_DECREASE)])
        assert not check_global_condition([g])
        assert find_violation(closure_of([g])) is not None

    def test_cycle_with_unrelated_decrease_is_unsound(self):
        # The decrease is on a variable that does not flow back to itself.
        g = graph(0, 0, [("x", "y", DECREASE), ("y", "x", NO_DECREASE), ("x", "x", NO_DECREASE)])
        # Composing g with itself yields x ≲ x eventually; check the machinery agrees
        # with a direct closure computation either way.
        assert check_global_condition([g]) == (find_violation(closure_of([g])) is None)


class TestIncrementalClosure:
    def test_incremental_matches_from_scratch(self):
        graphs = [
            graph(0, 1, [("x", "x1", DECREASE), ("y", "y", NO_DECREASE)]),
            graph(1, 2, [("x1", "x2", NO_DECREASE), ("y", "y", NO_DECREASE)]),
            graph(2, 0, [("x2", "x", NO_DECREASE), ("y", "y", NO_DECREASE)]),
        ]
        incremental = IncrementalClosure()
        for g in graphs:
            result = incremental.add(g)
            assert result.violation is None
        assert set(incremental.graphs()) == closure_of(graphs)

    def test_violation_reported_when_cycle_closes(self):
        incremental = IncrementalClosure()
        assert incremental.add(graph(0, 1, [("x", "y", NO_DECREASE)])).sound
        result = incremental.add(graph(1, 0, [("y", "x", NO_DECREASE)]))
        assert result.violation is not None
        assert not incremental.is_sound()

    def test_undo_restores_previous_state(self):
        incremental = IncrementalClosure()
        first = incremental.add(graph(0, 1, [("x", "y", DECREASE)]))
        before = set(incremental.graphs())
        second = incremental.add(graph(1, 0, [("y", "x", NO_DECREASE)]))
        incremental.remove(second.added)
        assert set(incremental.graphs()) == before
        assert incremental.is_sound()

    def test_duplicate_addition_is_noop(self):
        incremental = IncrementalClosure()
        g = graph(0, 1, [("x", "y", NO_DECREASE)])
        incremental.add(g)
        result = incremental.add(g)
        assert result.added == ()


def closure_by_definition(graphs):
    """Definition 5.4 read literally: compose every pair until nothing new appears."""
    closure = set(graphs)
    while True:
        new = {
            left.compose(right)
            for left in closure
            for right in closure
            if left.target == right.source
        } - closure
        if not new:
            return closure
        closure |= new


# Random graph sets over 1-4 vertices (self-loops included) and two
# variables, with both edge labels.
_graph_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda vertices: st.lists(
        st.builds(
            graph,
            st.integers(0, vertices - 1),
            st.integers(0, vertices - 1),
            st.lists(
                st.tuples(st.sampled_from("xy"), st.sampled_from("xy"), st.booleans()),
                max_size=4,
            ),
        ),
        max_size=6,
    )
)


class TestClosureAgainstDefinition:
    """``closure_of`` and ``IncrementalClosure`` against the definition-level fixpoint."""

    @settings(deadline=None, max_examples=150)
    @given(_graph_sets)
    def test_both_closures_match_the_fixpoint(self, graphs):
        expected = closure_by_definition(graphs)
        assert closure_of(graphs) == expected
        incremental = IncrementalClosure()
        for g in graphs:
            incremental.add(g)
        assert set(incremental.graphs()) == expected

    @settings(deadline=None, max_examples=150)
    @given(_graph_sets, st.integers(min_value=-3, max_value=3))
    def test_budget_error_iff_the_closure_exceeds_it(self, graphs, offset):
        # Budgets around the closure's size, where an off-by-one would show.
        size = len(closure_by_definition(graphs))
        max_graphs = max(0, size + offset)
        exceeds = size > max(max_graphs, len(set(graphs)))
        try:
            closure_of(graphs, max_graphs=max_graphs)
        except RuntimeError:
            assert exceeds
        else:
            assert not exceeds

    def test_budget_counts_new_graphs_not_inputs(self):
        unrelated = [graph(0, 1, []), graph(2, 3, []), graph(4, 5, [])]
        assert len(closure_of(unrelated, max_graphs=1)) == 3
        with pytest.raises(RuntimeError):
            closure_of(unrelated + [graph(1, 2, [])], max_graphs=3)

    def test_three_step_path_needs_the_worklist(self):
        # a∘b∘c exists only if a∘b (or b∘c) is itself extended further.
        a = graph(0, 1, [("x", "y", DECREASE)])
        b = graph(1, 2, [("y", "x", NO_DECREASE)])
        c = graph(2, 3, [("x", "x", NO_DECREASE)])
        assert a.compose(b).compose(c) in closure_of([c, b, a])
        assert closure_of([a, b, c]) == closure_by_definition([a, b, c])


TERMINATING_SOURCE = """
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)

add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)

ackermann :: Nat -> Nat -> Nat
ackermann Z y = S y
ackermann (S x) Z = ackermann x (S Z)
ackermann (S x) (S y) = ackermann x (ackermann (S x) y)

interleave :: List a -> List a -> List a
interleave Nil ys = ys
interleave (Cons x xs) ys = Cons x (interleave ys xs)
"""

LOOPING_SOURCE = """
data Nat = Z | S Nat
spin :: Nat -> Nat
spin x = spin x
grow :: Nat -> Nat
grow Z = Z
grow (S x) = grow (S (S x))
"""


class TestSizeChangeTermination:
    def test_structural_recursion_passes(self, nat_program, list_program):
        assert sct_terminates(nat_program.rules)
        assert sct_terminates(list_program.rules)

    def test_benchmark_prelude_passes(self, isaplanner):
        assert sct_terminates(isaplanner.rules)

    def test_ackermann_and_swapping_arguments_pass(self):
        program = load_program(TERMINATING_SOURCE)
        report = sct_terminates(program.rules)
        assert report.terminates

    def test_non_terminating_definitions_rejected(self):
        program = load_program(LOOPING_SOURCE)
        report = sct_terminates(program.rules)
        assert not report.terminates
        assert report.violation is not None

    def test_call_graphs_extracted(self, nat_program):
        edges = call_graphs_of(nat_program.rules)
        callers = {edge.caller for edge in edges}
        assert "add" in callers and "mul" in callers
