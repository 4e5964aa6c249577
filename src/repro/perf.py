"""Reverting the profile-guided hot-path optimisations, for measurement.

The optimisation pass (see ``docs/profiling.md``) rewrote the size-change
closure, the matcher and substitution application.  :func:`reference_hot_paths` swaps all of them back to their
pre-optimisation implementations for the duration of a ``with`` block, so
``benchmarks/bench_hot_loop.py`` can measure the end-to-end effect as a
paired before/after on the *same* interpreter and the same search trees —
not against a number written down on some other machine.

This is a measurement seam, not a feature: only benchmarks and the
differential tests use it, and a deliberately global one (module attributes
are patched in every importing module) so a "before" run cannot accidentally
mix in optimised pieces.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["reference_hot_paths"]


@contextmanager
def reference_hot_paths() -> Iterator[None]:
    """Run the block with every hot-path optimisation of the PR reverted.

    Patches, in every module that imported them by name:

    * :class:`~repro.sizechange.closure.IncrementalClosure` → the reference
      closure (per-call index dicts, graph-object membership, no memo);
    * :func:`~repro.core.matching.match_or_none` → the tuple-stack version
      with the defensive ``Substitution`` copy;
    * :meth:`~repro.core.substitution.Substitution.apply` → the version
      without the single-binding fast path.

    Only affects objects *constructed* inside the block — build the Prover
    under the context manager.
    """
    import repro.core.matching as matching
    import repro.induction.structural as structural
    import repro.proofs.inference as inference
    import repro.rewriting.narrowing as narrowing
    import repro.rewriting.reduction as reduction
    import repro.search.prover as prover
    from repro.core.reference import reference_apply, reference_match_or_none
    from repro.core.substitution import Substitution
    from repro.sizechange.reference import ReferenceIncrementalClosure

    saved_closure = prover.IncrementalClosure
    saved_match = matching.match_or_none
    saved_match_sites = {
        module: module.match_or_none
        for module in (prover, reduction, narrowing, structural, inference)
    }
    saved_apply = Substitution.apply

    def apply_reference(self, term):
        return reference_apply(self, term)

    try:
        prover.IncrementalClosure = ReferenceIncrementalClosure
        matching.match_or_none = reference_match_or_none
        for module in saved_match_sites:
            module.match_or_none = reference_match_or_none
        Substitution.apply = apply_reference
        yield
    finally:
        prover.IncrementalClosure = saved_closure
        matching.match_or_none = saved_match
        for module, original in saved_match_sites.items():
            module.match_or_none = original
        Substitution.apply = saved_apply
