"""Differential tests guarding the profile-guided hot-path optimisations.

The optimisation pass (see ``docs/profiling.md``) rewrote the size-change
closure, the matcher, substitution application and the normaliser's reduct
handling — all behaviour-preserving by construction, all guarded here by
construction-independent evidence:

* **Hypothesis differentials**: the optimised implementations against the
  verbatim pre-optimisation copies (:mod:`repro.core.reference`,
  :mod:`repro.sizechange.reference`) on random inputs;
* **pinned full-suite parity**: the IsaPlanner + mutual suites under a
  deterministic node budget (``dfs``, wall clock off) must reproduce a
  hard-coded per-goal (status, node-count) signature — under compiled AND
  generic rewrite dispatch — so any fast path that changes search behaviour
  flips a pinned literal;
* a slice-level end-to-end check that the shipped prover and the
  reference-patched prover (:func:`repro.perf.reference_hot_paths`) agree
  goal by goal.  (The full-suite version of this comparison runs in
  ``benchmarks/bench_hot_loop.py``, where it gates the speedup claim.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks_data.registry import isaplanner_problems, mutual_problems
from repro.core.matching import match_or_none
from repro.core.reference import reference_apply, reference_match_or_none
from repro.core.substitution import Substitution
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy, FunTy, TypeVar, arg_types, free_type_vars, rename_type_vars
from repro.harness.runner import run_suite
from repro.perf import reference_hot_paths
from repro.search.config import ProverConfig
from repro.sizechange.closure import IncrementalClosure, closure_of, find_violation
from repro.sizechange.graph import SizeChangeGraph
from repro.sizechange.reference import (
    ReferenceIncrementalClosure,
    _reference_is_idempotent,
    reference_compose,
)

NAT = DataTy("Nat")

# ---------------------------------------------------------------------------
# Term strategies: the Nat signature {Z, S, add, mul} over variables x, y, z
# ---------------------------------------------------------------------------

_variables = st.sampled_from([Var("x", NAT), Var("y", NAT), Var("z", NAT)])
_constants = st.sampled_from([Sym("Z")])


def _apps(children):
    unary = st.builds(lambda a: apply_term(Sym("S"), a), children)
    binary = st.builds(
        lambda f, a, b: apply_term(Sym(f), a, b),
        st.sampled_from(["add", "mul"]),
        children,
        children,
    )
    return unary | binary


terms = st.recursive(_variables | _constants, _apps, max_leaves=12)
open_terms = terms.filter(lambda t: bool(t._fvs))
substitutions = st.fixed_dictionaries(
    {},
    optional={"x": terms, "y": terms, "z": terms},
).map(Substitution)
single_binding_substs = st.builds(
    lambda name, term: Substitution({name: term}),
    st.sampled_from(["x", "y", "z"]),
    terms,
)


class TestMatchingDifferential:
    @given(terms, terms)
    def test_match_agrees_with_reference_on_arbitrary_pairs(self, pattern, target):
        fast = match_or_none(pattern, target)
        slow = reference_match_or_none(pattern, target)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert dict(fast) == dict(slow)

    @given(terms, substitutions)
    def test_match_agrees_with_reference_on_instances(self, pattern, theta):
        # Guaranteed-match direction: the target IS an instance of the pattern.
        target = theta.apply(pattern)
        fast = match_or_none(pattern, target)
        slow = reference_match_or_none(pattern, target)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert dict(fast) == dict(slow)
            assert fast.apply(pattern) == target

    @given(terms, terms, substitutions)
    def test_match_agrees_with_reference_under_pre_bindings(self, pattern, target, pre):
        pre_bindings = dict(pre._mapping)
        fast = match_or_none(pattern, target, pre_bindings)
        slow = reference_match_or_none(pattern, target, pre_bindings)
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert dict(fast) == dict(slow)


class TestSubstitutionDifferential:
    @given(terms, substitutions)
    def test_apply_agrees_with_reference(self, term, theta):
        assert theta.apply(term) == reference_apply(theta, term)

    @given(terms, single_binding_substs)
    def test_single_binding_specialisation_agrees(self, term, theta):
        # The len(mapping) == 1 fast path (_apply_single).
        assert theta.apply(term) == reference_apply(theta, term)

    @given(terms)
    def test_empty_substitution_is_identity_object(self, term):
        assert Substitution().apply(term) is term

    @given(open_terms, single_binding_substs)
    def test_single_binding_identity_preservation(self, term, theta):
        # When the bound variable does not occur, the fast path must return
        # the original object (hash-consing relies on it), like the reference.
        (name,) = theta.domain()
        if all(v.name != name for v in term._fvs):
            assert theta.apply(term) is term

    def test_large_term_path_agrees_with_reference(self):
        # Drive the memoised >128-node traversal (the small-term fast paths
        # never see it): a deep S-spine over a shared open subterm.
        base = apply_term(Sym("add"), Var("x", NAT), Var("y", NAT))
        term = base
        for _ in range(140):
            term = apply_term(Sym("S"), term)
        wide = apply_term(Sym("mul"), term, base)
        for theta in (
            Substitution({"x": apply_term(Sym("S"), Sym("Z"))}),
            Substitution({"x": Sym("Z"), "y": apply_term(Sym("S"), Sym("Z"))}),
            Substitution({"w": Sym("Z")}),
        ):
            assert theta.apply(wide) == reference_apply(theta, wide)


# ---------------------------------------------------------------------------
# Size-change graphs and the incremental closure
# ---------------------------------------------------------------------------

# Small vertex/name spaces: closures over two vertices grow combinatorially
# in the number of edge labels, and the point here is agreement, not volume.
_names = st.sampled_from(["x", "y", "z"])
_edge_lists = st.lists(st.tuples(_names, _names, st.booleans()), max_size=5)


def _graph(source, target, edges):
    return SizeChangeGraph.make(source, target, edges)


graphs_0_1 = st.builds(lambda e: _graph(0, 1, e), _edge_lists)
graphs_1_0 = st.builds(lambda e: _graph(1, 0, e), _edge_lists)
graphs_0_0 = st.builds(lambda e: _graph(0, 0, e), _edge_lists)
mixed_graphs = st.lists(graphs_0_1 | graphs_1_0 | graphs_0_0, min_size=1, max_size=6)


class TestClosureDifferential:
    @given(graphs_0_1, graphs_1_0)
    def test_compose_agrees_with_reference(self, g1, g2):
        assert g1.compose(g2) == reference_compose(g1, g2)
        assert g2.compose(g1) == reference_compose(g2, g1)

    @given(graphs_0_0)
    def test_idempotency_check_agrees_with_reference(self, g):
        assert g.is_idempotent() == _reference_is_idempotent(g)

    @settings(deadline=None, max_examples=30)
    @given(mixed_graphs)
    def test_incremental_closure_agrees_with_reference(self, graphs):
        fast = IncrementalClosure()
        slow = ReferenceIncrementalClosure()
        for graph in graphs:
            fast_result = fast.add(graph)
            slow_result = slow.add(graph)
            assert (fast_result.violation is None) == (slow_result.violation is None)
            assert frozenset(fast_result.added) == frozenset(slow_result.added)
            assert frozenset(fast.graphs()) == frozenset(slow.graphs())
        assert fast.is_sound() == slow.is_sound()
        # The semi-naive closure extends new graphs by edge generators only,
        # so it never composes more than the reference does.
        assert fast.compositions_performed <= slow.compositions_performed

    @settings(deadline=None, max_examples=30)
    @given(mixed_graphs, graphs_0_0)
    def test_closure_undo_agrees_with_reference(self, prefix, probe):
        # The prover's chronological trail: add, record the consequences,
        # remove them again.  The memoised closure must land in the same
        # state as the reference.
        fast = IncrementalClosure()
        slow = ReferenceIncrementalClosure()
        for graph in prefix:
            fast.add(graph)
            slow.add(graph)
        fast_result = fast.add(probe)
        slow_result = slow.add(probe)
        fast.remove(fast_result.added)
        slow.remove(slow_result.added)
        assert frozenset(fast.graphs()) == frozenset(slow.graphs())
        # Re-adding after the undo must behave identically too (this is where
        # a stale memo or key-set entry would show).
        fast_again = fast.add(probe)
        slow_again = slow.add(probe)
        assert (fast_again.violation is None) == (slow_again.violation is None)
        assert frozenset(fast_again.added) == frozenset(slow_again.added)
        assert frozenset(fast.graphs()) == frozenset(slow.graphs())


# LIFO add/undo interleavings over 1-4 vertices, checked after every step
# against the from-scratch closure_of.  "derived" re-adds a graph the closure
# already holds as a new edge: the case where add() introduces nothing.
_vertex_counts = st.integers(min_value=1, max_value=4)
_small_edge_lists = st.lists(
    st.tuples(st.sampled_from(["x", "y"]), st.sampled_from(["x", "y"]), st.booleans()),
    max_size=3,
)
_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"), st.integers(0, 3), st.integers(0, 3), _small_edge_lists
        ),
        st.tuples(st.just("derived"), st.integers(0, 1000)),
        st.tuples(st.just("undo")),
    ),
    max_size=10,
)


class TestClosureAgainstFromScratch:
    @staticmethod
    def _check(closure, live, before, result):
        after = closure_of(live)
        assert set(closure.graphs()) == after
        assert set(result.added) == after - before
        # add() reports the violations it introduces; is_sound() all of them.
        assert (result.violation is None) == (find_violation(after - before) is None)
        if result.violation is not None:
            assert result.violation in after - before
        assert closure.is_sound() == (find_violation(after) is None)

    @settings(deadline=None, max_examples=60)
    @given(_vertex_counts, _operations)
    def test_lifo_interleavings_match_closure_of(self, vertices, operations):
        closure = IncrementalClosure()
        trail = []  # (edge graph, its AdditionResult), most recent last
        for operation in operations:
            live = [graph for graph, _ in trail]
            if operation[0] == "undo":
                if not trail:
                    continue
                _, result = trail.pop()
                closure.remove(result.added)
                assert set(closure.graphs()) == closure_of(live[:-1])
                continue
            if operation[0] == "derived":
                known = sorted(closure.graphs(), key=str)
                if not known:
                    continue
                graph = known[operation[1] % len(known)]
            else:
                _, source, target, edges = operation
                graph = _graph(source % vertices, target % vertices, edges)
            before = closure_of(live)
            result = closure.add(graph)
            trail.append((graph, result))
            self._check(closure, live + [graph], before, result)
            if graph in before:
                assert result.added == ()
            else:
                assert result.added[0] is graph

    def test_readding_a_derived_summary_then_undoing_it(self):
        closure = IncrementalClosure()
        first = _graph(0, 1, [("x", "y", True)])
        second = _graph(1, 2, [("y", "x", False)])
        derived = first.compose(second)
        added_first = closure.add(first).added
        added_second = closure.add(second).added
        assert derived in closure
        again = closure.add(derived)
        assert again.added == () and again.violation is None
        closure.remove(again.added)
        assert set(closure.graphs()) == closure_of([first, second])
        closure.remove(added_second)
        assert set(closure.graphs()) == {first}
        # The derived summary is now a genuine new edge, and a generator.
        fresh = closure.add(derived)
        assert fresh.added[0] is derived
        assert set(closure.graphs()) == closure_of([first, derived])
        closure.remove(fresh.added)
        closure.remove(added_first)
        assert len(closure) == 0
        # Undo left no stale generator behind: one would extend the new
        # paths through 0 -> 1 past the live edges.
        closure.add(first)
        back = closure.add(_graph(1, 0, [("y", "x", False)]))
        assert back.violation is None
        assert set(closure.graphs()) == closure_of(
            [first, _graph(1, 0, [("y", "x", False)])]
        )


# ---------------------------------------------------------------------------
# (FunExt) goal typing: Signature.arrow_type's shortcut against inference
# ---------------------------------------------------------------------------

_PRELUDE = isaplanner_problems()[0].program
_PRELUDE_SIGNATURE = _PRELUDE.signature
_LIST_NAT = DataTy("List", (NAT,))
_BOOL = DataTy("Bool")
_typed_variables = [
    Var("n", NAT),
    Var("xs", _LIST_NAT),
    Var("b", _BOOL),
    Var("f", FunTy(NAT, NAT)),
    Var("p", FunTy(NAT, _BOOL)),
    Var("v", TypeVar("a")),
]
_prelude_symbols = sorted(_PRELUDE_SIGNATURE.constructors + _PRELUDE_SIGNATURE.defined)
_prelude_atoms = st.sampled_from([Sym(name) for name in _prelude_symbols] + _typed_variables)
#: Arbitrary application spines over the prelude: mostly ill-typed, many
#: partially applied, some over-applied.
_random_spines = st.recursive(
    _prelude_atoms,
    lambda children: st.builds(
        lambda head, args: apply_term(head, *args),
        children,
        st.lists(children, min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@st.composite
def _typed_spines(draw):
    """A symbol applied to 0..arity+1 variables that fit its declared
    argument types, so well-typed partial applications are common — and
    polymorphic results (``ite b f f``, ``id f``) can come out as arrows."""
    name = draw(st.sampled_from(["ite", "id"]) | st.sampled_from(_prelude_symbols))
    params = arg_types(_PRELUDE_SIGNATURE.symbol_type(name))
    args = []
    for position in range(draw(st.integers(0, len(params) + 1))):
        wanted = params[position] if position < len(params) else None
        fitting = [
            v for v in _typed_variables
            if wanted is None or free_type_vars(wanted) or v.ty == wanted
        ]
        args.append(draw(st.sampled_from(fitting or _typed_variables)))
    return apply_term(Sym(name), *args)


prelude_terms = _random_spines | _typed_spines()


def _arrow_by_inference(term):
    try:
        inferred = _PRELUDE_SIGNATURE.infer_type(term)
    except Exception:
        return None
    return inferred if isinstance(inferred, FunTy) else None


def _canonical(ty):
    """``ty`` with its type variables renamed in order of first occurrence
    (every inference mints fresh names)."""
    if ty is None:
        return None
    return rename_type_vars(ty, {name: f"t{i}" for i, name in enumerate(free_type_vars(ty))})


class TestFunExtGoalType:
    @settings(max_examples=500, deadline=None)
    @given(prelude_terms)
    def test_agrees_with_inference(self, term):
        assert _canonical(_PRELUDE_SIGNATURE.arrow_type(term)) == _canonical(_arrow_by_inference(term))

    @pytest.mark.parametrize(
        "spine, arrow",
        [
            ("add n", True),  # partial application
            ("add n n", False),
            ("add n n n", False),  # over-applied: ill-typed
            ("map f", True),
            ("ite b f f", True),  # the residue is a type variable bound to an arrow
            ("ite b f f n", False),
            ("ite b n n", False),
            ("f n", False),  # variable head
        ],
    )
    def test_hand_picked_shapes(self, spine, arrow):
        atoms = {v.name: v for v in _typed_variables}
        head, *args = [atoms.get(word) or Sym(word) for word in spine.split()]
        term = apply_term(head, *args)
        assert (_PRELUDE_SIGNATURE.arrow_type(term) is not None) == arrow
        assert _canonical(_PRELUDE_SIGNATURE.arrow_type(term)) == _canonical(_arrow_by_inference(term))


# ---------------------------------------------------------------------------
# Pinned full-suite parity
# ---------------------------------------------------------------------------

#: Per-goal (status, nodes) for the full IsaPlanner + mutual suites at
#: ``ProverConfig(timeout=None, max_nodes=60, strategy="dfs",
#: falsify_first=True)`` — recorded when the hot-path optimisation pass
#: landed, identical under compiled and generic dispatch and identical to
#: the pre-optimisation search.  Any fast path that changes search
#: behaviour flips one of these literals.
PINNED_SUITE_SIGNATURE = {
    "prop_01": ("proved", 12),
    "prop_02": ("failed", 61),
    "prop_03": ("failed", 61),
    "prop_04": ("failed", 61),
    "prop_05": ("out-of-scope", 0),
    "prop_06": ("proved", 10),
    "prop_07": ("proved", 6),
    "prop_08": ("proved", 6),
    "prop_09": ("failed", 61),
    "prop_10": ("proved", 6),
    "prop_11": ("proved", 2),
    "prop_12": ("proved", 11),
    "prop_13": ("proved", 2),
    "prop_14": ("failed", 61),
    "prop_15": ("failed", 61),
    "prop_16": ("out-of-scope", 0),
    "prop_17": ("proved", 5),
    "prop_18": ("proved", 6),
    "prop_19": ("proved", 11),
    "prop_20": ("failed", 61),
    "prop_21": ("proved", 6),
    "prop_22": ("proved", 20),
    "prop_23": ("proved", 22),
    "prop_24": ("proved", 22),
    "prop_25": ("proved", 16),
    "prop_26": ("out-of-scope", 0),
    "prop_27": ("out-of-scope", 0),
    "prop_28": ("proved", 24),
    "prop_29": ("failed", 61),
    "prop_30": ("failed", 61),
    "prop_31": ("proved", 20),
    "prop_32": ("proved", 22),
    "prop_33": ("proved", 11),
    "prop_34": ("proved", 17),
    "prop_35": ("proved", 5),
    "prop_36": ("proved", 8),
    "prop_37": ("failed", 61),
    "prop_38": ("failed", 61),
    "prop_39": ("failed", 61),
    "prop_40": ("proved", 2),
    "prop_41": ("proved", 13),
    "prop_42": ("proved", 2),
    "prop_43": ("failed", 9),
    "prop_44": ("proved", 5),
    "prop_45": ("proved", 2),
    "prop_46": ("proved", 2),
    "prop_47": ("failed", 61),
    "prop_48": ("out-of-scope", 0),
    "prop_49": ("failed", 61),
    "prop_50": ("proved", 14),
    "prop_51": ("proved", 12),
    "prop_52": ("failed", 61),
    "prop_53": ("failed", 61),
    "prop_54": ("failed", 61),
    "prop_55": ("proved", 53),
    "prop_56": ("failed", 61),
    "prop_57": ("proved", 27),
    "prop_58": ("proved", 27),
    "prop_59": ("out-of-scope", 0),
    "prop_60": ("out-of-scope", 0),
    "prop_61": ("failed", 61),
    "prop_62": ("out-of-scope", 0),
    "prop_63": ("out-of-scope", 0),
    "prop_64": ("proved", 10),
    "prop_65": ("failed", 61),
    "prop_66": ("failed", 9),
    "prop_67": ("proved", 13),
    "prop_68": ("failed", 61),
    "prop_69": ("failed", 61),
    "prop_70": ("out-of-scope", 0),
    "prop_71": ("out-of-scope", 0),
    "prop_72": ("failed", 61),
    "prop_73": ("failed", 9),
    "prop_74": ("failed", 61),
    "prop_75": ("failed", 61),
    "prop_76": ("out-of-scope", 0),
    "prop_77": ("out-of-scope", 0),
    "prop_78": ("failed", 33),
    "prop_79": ("failed", 61),
    "prop_80": ("proved", 17),
    "prop_81": ("failed", 61),
    "prop_82": ("proved", 21),
    "prop_83": ("proved", 16),
    "prop_84": ("proved", 19),
    "prop_85": ("out-of-scope", 0),
    "mprop_01": ("proved", 15),
    "mprop_02": ("proved", 15),
    "mprop_03": ("proved", 13),
    "mprop_04": ("proved", 39),
    "mprop_05": ("proved", 13),
    "mprop_06": ("proved", 27),
    "mprop_07": ("proved", 15),
    "mprop_08": ("proved", 15),
}


def _parity_config(compiled):
    return ProverConfig(
        timeout=None,
        max_nodes=60,
        strategy="dfs",
        falsify_first=True,
        compile_rules=compiled,
    )


def _suite_signature(result):
    return {r.name: (r.status, r.nodes) for r in result.records}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "generic"])
def test_full_suite_matches_pinned_signature(compiled):
    problems = isaplanner_problems() + mutual_problems()
    result = run_suite(problems, _parity_config(compiled))
    signature = _suite_signature(result)
    diff = {
        name: (signature.get(name), pinned)
        for name, pinned in PINNED_SUITE_SIGNATURE.items()
        if signature.get(name) != pinned
    }
    assert not diff, f"suite signature drifted from the pinned baseline: {diff}"
    assert set(signature) == set(PINNED_SUITE_SIGNATURE)


def test_slice_parity_optimised_vs_reference_hot_paths():
    # End-to-end spot check of the measurement seam itself: the shipped
    # prover and the fully reference-patched prover agree goal by goal.
    # (benchmarks/bench_hot_loop.py runs the larger asserted version.)
    problems = isaplanner_problems()[:6] + mutual_problems()[:2]
    config = _parity_config(compiled=True)
    optimised = run_suite(problems, config)
    with reference_hot_paths():
        reference = run_suite(problems, config)
    assert [(r.name, r.status, r.nodes) for r in optimised.records] == [
        (r.name, r.status, r.nodes) for r in reference.records
    ]
