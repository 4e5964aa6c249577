"""Fast ground-evaluation semantics and the counterexample engine.

CycleQ's proof system can only ever answer "proved" or "gave up" — it has no
way to *refute* a conjecture.  This subsystem supplies the missing third
answer.  It compiles a program's rewrite rules into per-function pattern-match
decision trees and evaluates ground terms with closure-compiled functions
(:mod:`repro.semantics.evaluator`), enumerates and samples well-typed
constructor values fairly across variables (:mod:`repro.semantics.generators`),
and tests conjectures — including conditional ones — on mixed
exhaustive+random instance streams, producing replayable, JSON-serialisable
:class:`~repro.semantics.falsify.Counterexample` artifacts
(:mod:`repro.semantics.falsify`).

The compiled evaluator is an order of magnitude faster than normalising every
ground instance through the generic rewriting :class:`~repro.rewriting.reduction.Normalizer`
(``benchmarks/bench_evaluator.py``), which makes it the engine behind
``ProverConfig.falsify_first``, the ``python -m repro disprove`` command, the
theory explorer's candidate filter, and the :func:`repro.program.check_equation`
testing oracle.  See ``docs/semantics.md``.
"""

from .evaluator import (
    Closure,
    CompilationError,
    EvaluationError,
    Evaluator,
    StuckEvaluation,
    Value,
    render_value,
    value_to_term,
)
from .falsify import (
    Counterexample,
    FalsificationConfig,
    FalsificationOutcome,
    falsify_equation,
    falsify_goal,
)
from .generators import enumerate_values, fair_product, instance_stream, sample_value

__all__ = [
    "Evaluator", "Closure", "Value", "value_to_term", "render_value",
    "CompilationError", "EvaluationError", "StuckEvaluation",
    "enumerate_values", "sample_value", "instance_stream", "fair_product",
    "Counterexample", "FalsificationConfig", "FalsificationOutcome",
    "falsify_equation", "falsify_goal",
]
