"""Closure of size-change graphs and the incremental global-condition check.

Definition 5.4 closes the per-edge size-change graphs of a preproof under
composition; Theorem 5.2 then reduces the global correctness condition (for
variable traces over the substructural order) to the property that every
idempotent self graph in the closure has a strictly decreasing self edge.

Two interfaces are provided:

* :func:`closure_of` / :func:`check_global_condition` — the "from scratch"
  computation, corresponding to how a non-incremental prover (e.g. Cyclist)
  would re-validate every candidate proof;
* :class:`IncrementalClosure` — the approach of Section 5.2: the closure is
  maintained as the proof graph grows, each newly uncovered edge composes with
  what is already known, violations are detected the moment they appear, and a
  trail of additions supports backtracking during proof search.

The incremental update is semi-naive evaluation of a transitive closure.  The
edge graphs that added something are kept as *generators*, on a stack per
source vertex, and the closure is exactly the set of compositions along
generator paths.  A path that is new after adding ``e: s → t`` contains
``e``; cut at its first ``e`` it reads ``α·e·β``, where ``α`` is an old
closure graph into ``s`` (or empty) and ``β`` a sequence of generators.  So
the update starts from ``e`` and every ``X∘e`` and extends each new graph on
the right by the generators out of its target only — not by every closure
graph on either side.  Deduplicating by summary is exact, because how a graph
extends depends only on its summary.

:func:`closure_of` is the same one-sided idea without generators or undo:
each new graph is extended on the right by the *input* graphs out of its
target (Lee, Jones & Ben-Amram, POPL 2001).  It shares no state with
:class:`IncrementalClosure`, so the certificate checker uses it as the
independent from-scratch computation; the tests check both against a
definition-level fixpoint that composes every pair until nothing new appears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .graph import SizeChangeGraph, compose_edges

__all__ = [
    "closure_of",
    "check_global_condition",
    "find_violation",
    "AdditionResult",
    "IncrementalClosure",
]

_Key = Tuple[int, int, frozenset]
"""A graph's raw ``(source, target, edges)`` fields."""


def closure_of(graphs: Iterable[SizeChangeGraph], max_graphs: int = 100_000) -> Set[SizeChangeGraph]:
    """The least set containing ``graphs`` and closed under composition.

    One-sided worklist: the closure is exactly the set of compositions of
    non-empty paths of input graphs, and every such path is an input graph
    extended on the right, one input graph at a time.  So each new graph is
    extended by the *input* graphs out of its target only, never composed
    with closure graphs on either side.  Deduplicating by summary is exact,
    because how a graph extends depends only on its summary.

    The closure grows monotonically to its final set, so the budget error is
    raised exactly when that set has more than ``max(max_graphs,
    len(set(graphs)))`` graphs, whatever order the worklist takes.
    """
    closure: Set[SizeChangeGraph] = set(graphs)
    inputs_from: Dict[int, List[SizeChangeGraph]] = {}
    for g in closure:
        inputs_from.setdefault(g.source, []).append(g)
    worklist: List[SizeChangeGraph] = list(closure)
    while worklist:
        graph = worklist.pop()
        for nxt in inputs_from.get(graph.target, ()):
            candidate = graph.compose(nxt)
            if candidate not in closure:
                closure.add(candidate)
                worklist.append(candidate)
                if len(closure) > max_graphs:
                    raise RuntimeError("size-change closure exceeded its size budget")
    return closure


def find_violation(closure: Iterable[SizeChangeGraph]) -> Optional[SizeChangeGraph]:
    """An idempotent self graph without a decreasing self edge, if one exists."""
    for graph in closure:
        if graph.is_self_graph() and graph.is_idempotent() and not graph.has_decreasing_self_edge():
            return graph
    return None


def check_global_condition(graphs: Iterable[SizeChangeGraph]) -> bool:
    """Theorem 5.2: is every idempotent self-loop of the closure progressing?"""
    return find_violation(closure_of(graphs)) is None


@dataclass
class AdditionResult:
    """The result of adding one edge graph to an :class:`IncrementalClosure`."""

    added: Tuple[SizeChangeGraph, ...]
    """Graphs newly added to the closure (including the edge graph itself)."""

    violation: Optional[SizeChangeGraph]
    """An idempotent self graph without a decreasing self edge, if introduced."""

    @property
    def sound(self) -> bool:
        """Did the addition keep the closure free of violations?"""
        return self.violation is None


class IncrementalClosure:
    """A size-change closure maintained incrementally with undo support.

    Proof search adds the size-change graph of every edge as the corresponding
    node is uncovered; the new compositions are computed eagerly, so the
    moment a cycle becomes unsound a violation is reported and the search can
    abandon the branch.  The :meth:`remove` operation supports chronological
    backtracking: it must be called with exactly the graphs reported by the
    corresponding :meth:`add` (most recent first), which is the discipline a
    depth-first search naturally follows.

    Invariant: every edge graph that added something is a *generator*, kept
    on a per-source-vertex stack in the order it was added, and the closure is
    exactly the set of compositions of generator paths.  An edge graph whose
    summary is already in the closure is not a generator: it is itself such a
    composition, and under LIFO undo the generators it is made of outlive it.
    """

    def __init__(self) -> None:
        # The closure, and the closure graphs into each vertex, keyed by the
        # raw (source, target, edges) tuple, so the add() hot loop can
        # deduplicate candidate compositions from their parts *before*
        # paying for a graph object.
        self._graphs: Dict[_Key, SizeChangeGraph] = {}
        self._by_target: Dict[int, Dict[_Key, SizeChangeGraph]] = {}
        # Generator edge graphs by source vertex, most recent last.
        self._generators: Dict[int, List[SizeChangeGraph]] = {}
        # Composition memo: (left edges, right edges) -> composed edges.
        # Composition is a pure function of the two edge sets, and depth-first
        # search re-derives the same compositions across branches relentlessly
        # (measured: >99% of compositions during proof search are repeats), so
        # the memo outlives remove()/clear() — staleness is impossible, only
        # size needs bounding (see _MEMO_LIMIT).
        self._compose_memo: Dict[Tuple[frozenset, frozenset], frozenset] = {}
        self.compositions_performed = 0

    #: Entry cap on the composition memo; far above anything proof search
    #: reaches per theory (measured: low thousands), so the reset-on-overflow
    #: is a memory backstop, not a working regime.
    _MEMO_LIMIT = 200_000

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, graph: SizeChangeGraph) -> bool:
        return (graph.source, graph.target, graph.edges) in self._graphs

    def graphs(self) -> Tuple[SizeChangeGraph, ...]:
        """All graphs currently in the closure."""
        return tuple(self._graphs.values())

    def self_graphs(self, vertex: int) -> Tuple[SizeChangeGraph, ...]:
        """All closure graphs from ``vertex`` to itself."""
        return tuple(
            g for g in self._by_target.get(vertex, {}).values() if g.source == vertex
        )

    def is_sound(self) -> bool:
        """Does the current closure satisfy Theorem 5.2?"""
        return find_violation(self._graphs.values()) is None

    # -- updates --------------------------------------------------------------

    def add(self, edge_graph: SizeChangeGraph) -> AdditionResult:
        """Add the size-change graph of a newly uncovered edge.

        The returned :class:`AdditionResult` lists every graph that became
        part of the closure as a consequence, the edge graph first (for
        undo), and reports a violation if the new edge closed an unsound
        cycle.  An edge graph already in the closure adds nothing.

        The update is semi-naive.  Every new path contains the new edge
        ``e: s → t``, so it reads ``α·e·β`` with ``α`` an old closure graph
        into ``s`` (or empty) and ``β`` a sequence of generators.  The
        worklist is therefore seeded with ``e`` and each ``X∘e``, and a
        popped graph is extended on the right only by the generators out of
        its target — ``e`` among them — never by the whole closure on either
        side.  Deduplicating by summary is exact because how a graph extends
        depends only on its summary.
        """
        source = edge_graph.source
        target = edge_graph.target
        edges = edge_graph.edges
        closure = self._graphs
        if (source, target, edges) in closure:
            return AdditionResult(added=(), violation=None)
        by_target = self._by_target
        generators = self._generators
        memo = self._compose_memo
        if len(memo) > self._MEMO_LIMIT:
            memo.clear()
        generators.setdefault(source, []).append(edge_graph)
        # Seeds: X∘e for every closure graph X into s, then e itself, so that
        # e is popped (and recorded) first.
        compositions = 0
        worklist: List[SizeChangeGraph] = []
        index = edge_graph.succ_index()
        for predecessor in by_target.get(source, {}).values():
            compositions += 1
            mkey = (predecessor.edges, edges)
            composed = memo.get(mkey)
            if composed is None:
                composed = memo[mkey] = compose_edges(predecessor.edges, index)
            candidate_source = predecessor.source
            if (candidate_source, target, composed) not in closure:
                worklist.append(SizeChangeGraph(candidate_source, target, composed))
        worklist.append(edge_graph)
        added: List[SizeChangeGraph] = []
        violation: Optional[SizeChangeGraph] = None
        while worklist:
            graph = worklist.pop()
            source = graph.source
            target = graph.target
            edges = graph.edges
            key = (source, target, edges)
            if key in closure:
                continue
            closure[key] = graph
            bucket = by_target.get(target)
            if bucket is None:
                bucket = by_target[target] = {}
            bucket[key] = graph
            added.append(graph)
            if violation is None and source == target:
                # Cheapest test first: most self graphs have a decreasing
                # self edge, which settles the conjunction without composing.
                if not any(x == y and dec for x, y, dec in edges):
                    mkey = (edges, edges)
                    squared = memo.get(mkey)
                    if squared is None:
                        squared = memo[mkey] = compose_edges(edges, graph.succ_index())
                    if squared == edges:
                        violation = graph
            # Each candidate is looked up in the memo before being computed
            # and deduplicated on the raw key before a graph object is built.
            for generator in generators.get(target, ()):
                compositions += 1
                mkey = (edges, generator.edges)
                composed = memo.get(mkey)
                if composed is None:
                    composed = memo[mkey] = compose_edges(edges, generator.succ_index())
                candidate_target = generator.target
                if (source, candidate_target, composed) not in closure:
                    worklist.append(SizeChangeGraph(source, candidate_target, composed))
        self.compositions_performed += compositions
        return AdditionResult(added=tuple(added), violation=violation)

    def remove(self, graphs: Iterable[SizeChangeGraph]) -> None:
        """Undo an earlier :meth:`add` by removing the graphs it introduced.

        ``graphs`` is that call's ``added``; its first graph is the edge
        graph, which leaves the top of its vertex's generator stack.
        """
        graphs = tuple(graphs)
        if graphs:
            stack = self._generators.get(graphs[0].source)
            if stack and stack[-1] == graphs[0]:
                stack.pop()
        for graph in graphs:
            key = (graph.source, graph.target, graph.edges)
            if self._graphs.pop(key, None) is not None:
                del self._by_target[graph.target][key]

    def clear(self) -> None:
        """Remove every graph."""
        self._graphs.clear()
        self._by_target.clear()
        self._generators.clear()
