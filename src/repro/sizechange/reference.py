"""Pre-optimisation reference implementations of the size-change hot path.

The profile-guided optimisation pass rewrote :meth:`SizeChangeGraph.compose`
and :meth:`IncrementalClosure.add` — the two functions the phase profiler
ranked as ~90% of end-to-end proof-search time.  This module preserves the
*original* implementations verbatim, for two jobs:

* the differential property tests (``tests/test_hot_path_parity.py``) check
  that the optimised closure produces the same graphs and the same
  violations as this reference on random inputs, with no more compositions;
* ``benchmarks/bench_hot_loop.py`` patches the reference closure into the
  prover (via :func:`repro.perf.reference_hot_paths`) to measure an honest
  end-to-end before/after on identical search trees.

Nothing in the prover imports this module; it exists so "before" stays
runnable after "after" lands.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .closure import AdditionResult
from .graph import SizeChangeGraph

__all__ = ["reference_compose", "ReferenceIncrementalClosure"]


def reference_compose(graph: SizeChangeGraph, then: SizeChangeGraph) -> SizeChangeGraph:
    """``SizeChangeGraph.compose`` as it stood before the optimisation pass.

    Builds the target-side index dict afresh on every call — the allocation
    the optimised version caches on the graph — and goes through
    :class:`SizeChangeGraph`'s public constructor.
    """
    if graph.target != then.source:
        raise ValueError(
            f"cannot compose graph into {graph.target} with graph from {then.source}"
        )
    by_source: Dict[str, list] = {}
    for y, z, dec in then.edges:
        by_source.setdefault(y, []).append((z, dec))
    combined: Dict[Tuple[str, str], bool] = {}
    for x, y, dec1 in graph.edges:
        for z, dec2 in by_source.get(y, ()):
            key = (x, z)
            combined[key] = combined.get(key, False) or dec1 or dec2
    edges = frozenset((x, z, dec) for (x, z), dec in combined.items())
    return SizeChangeGraph(graph.source, then.target, edges)


def _reference_is_idempotent(graph: SizeChangeGraph) -> bool:
    return graph.is_self_graph() and reference_compose(graph, graph) == graph


class ReferenceIncrementalClosure:
    """``IncrementalClosure`` as it stood before the optimisation pass.

    Same public surface (``add``/``remove``/``clear``/queries), same LIFO
    worklist, same membership-at-pop discipline — but graph-object set
    membership instead of key tuples, per-call index dicts instead of cached
    ones, and defensive ``tuple()`` snapshots of the bucket sets.
    """

    def __init__(self) -> None:
        self._graphs: Set[SizeChangeGraph] = set()
        self._by_source: Dict[int, Set[SizeChangeGraph]] = {}
        self._by_target: Dict[int, Set[SizeChangeGraph]] = {}
        self.compositions_performed = 0

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._graphs)

    def __contains__(self, graph: SizeChangeGraph) -> bool:
        return graph in self._graphs

    def graphs(self) -> Tuple[SizeChangeGraph, ...]:
        return tuple(self._graphs)

    def self_graphs(self, vertex: int) -> Tuple[SizeChangeGraph, ...]:
        return tuple(
            g for g in self._by_source.get(vertex, ()) if g.target == vertex
        )

    def is_sound(self) -> bool:
        from .closure import find_violation

        return find_violation(self._graphs) is None

    # -- updates --------------------------------------------------------------

    def add(self, edge_graph: SizeChangeGraph) -> AdditionResult:
        added: List[SizeChangeGraph] = []
        violation: Optional[SizeChangeGraph] = None
        worklist: List[SizeChangeGraph] = [edge_graph]
        while worklist:
            graph = worklist.pop()
            if graph in self._graphs:
                continue
            self._graphs.add(graph)
            self._by_source.setdefault(graph.source, set()).add(graph)
            self._by_target.setdefault(graph.target, set()).add(graph)
            added.append(graph)
            if (
                violation is None
                and graph.is_self_graph()
                and _reference_is_idempotent(graph)
                and not graph.has_decreasing_self_edge()
            ):
                violation = graph
            for successor in tuple(self._by_source.get(graph.target, ())):
                self.compositions_performed += 1
                worklist.append(reference_compose(graph, successor))
            for predecessor in tuple(self._by_target.get(graph.source, ())):
                if predecessor is graph:
                    continue
                self.compositions_performed += 1
                worklist.append(reference_compose(predecessor, graph))
        return AdditionResult(added=tuple(added), violation=violation)

    def remove(self, graphs: Iterable[SizeChangeGraph]) -> None:
        for graph in graphs:
            if graph in self._graphs:
                self._graphs.discard(graph)
                self._by_source.get(graph.source, set()).discard(graph)
                self._by_target.get(graph.target, set()).discard(graph)

    def clear(self) -> None:
        self._graphs.clear()
        self._by_source.clear()
        self._by_target.clear()
