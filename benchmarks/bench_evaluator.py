"""Experiment E-semantics — compiled ground evaluation vs the generic normaliser.

This benchmark quantifies the semantics subsystem's tentpole claim: testing a
conjecture on ground instances through the compiled evaluator
(:mod:`repro.semantics.evaluator` — per-function decision trees, tuple values,
sides compiled once) is **an order of magnitude faster** than the pre-existing
oracle path, which substitutes every instance into the equation and normalises
both sides through the generic rewriting :class:`~repro.rewriting.reduction.Normalizer`.

Two workloads over the IsaPlanner prelude:

* **conjecture testing** — evaluate both sides of representative equations
  (arithmetic, list, sorting properties) on every instance of a mixed
  exhaustive+random stream.  This is exactly the falsifier's and
  ``check_equation``'s inner loop, measured against a faithful reproduction of
  the historical Normalizer-based loop (fresh per-equation normaliser with its
  identity-keyed cache — the old fast path — substituting terms per instance).
* **single-term evaluation** — normalise a family of closed terms one by one,
  the apples-to-apples comparison without the compile-once amortisation.

Both baselines pin ``compile_rules=False``: this benchmark measures the
evaluator against the *historical* generic-matching oracle it replaced, a
fixed yardstick.  The compiled rewrite dispatcher narrows the gap from the
normaliser side — that win is measured separately (and against its own
baseline) in ``bench_compiled_rewriting.py``; letting it drift into this
baseline would conflate the two claims.

Run directly (``PYTHONPATH=src python benchmarks/bench_evaluator.py``) for the
report, or through pytest for the asserted ≥10× speedup on conjecture
testing — asserted at the 95% CI lower bound over repeated runs (see
:mod:`stats`), with the per-conjecture rows as single-run point estimates
for orientation only.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from conftest import print_report  # shared benchmark helpers
from stats import format_sample, measure, speedup, speedup_ci_lower
from repro.benchmarks_data import isaplanner_program
from repro.core.substitution import Substitution
from repro.harness import format_table
from repro.rewriting.reduction import Normalizer
from repro.semantics.evaluator import Evaluator, value_to_term
from repro.semantics.generators import instance_stream

#: Equations whose ground testing is measured: a mix of cheap arithmetic and
#: allocation-heavy list/sort properties (all true — every instance is tested,
#: none short-circuits).
CONJECTURES = (
    "add x y === add y x",
    "add (add x y) z === add x (add y z)",
    "rev (rev xs) === xs",
    "len (app xs ys) === add (len xs) (len ys)",
    "rev (app xs ys) === app (rev ys) (rev xs)",
    "sort (sort xs) === sort xs",
    "len (sort xs) === len xs",
    "minus (add x y) x === y",
    "sorted (sort xs) === True",
    "insort n (sort xs) === sort (Cons n xs)",
    "count n (app xs ys) === add (count n xs) (count n ys)",
    "elem n (app xs (Cons n Nil)) === True",
    "max2 (max2 a b) c === max2 a (max2 b c)",
    "eqN (len (sort xs)) (len xs) === True",
    "leq (len (filter (leq n) xs)) (len xs) === True",
)

#: Instance budgets per conjecture: the falsifier's defaults
#: (:class:`repro.semantics.falsify.FalsificationConfig`), so the measured
#: workload is exactly one default falsification pass per conjecture.
DEPTH = 4
EXHAUSTIVE_LIMIT = 400
RANDOM_SAMPLES = 200
RANDOM_DEPTH = 7


def _collect_instances(program, equation, evaluator=None):
    variables = equation.variables()
    instances = list(
        instance_stream(
            program.signature,
            variables,
            depth=DEPTH,
            limit=EXHAUSTIVE_LIMIT,
            random_samples=RANDOM_SAMPLES,
            random_depth=RANDOM_DEPTH,
            evaluator=evaluator,
        )
    )
    return variables, instances


def _test_compiled(evaluator, equation, variables, instances) -> int:
    """The falsifier's loop: compile the sides once, run the machine per instance."""
    slots = {var.name: index for index, var in enumerate(variables)}
    lhs = evaluator.compile(equation.lhs, slots)
    rhs = evaluator.compile(equation.rhs, slots)
    agreements = 0
    equal = evaluator.equal
    for instance in instances:
        if equal(lhs, rhs, instance):
            agreements += 1
    return agreements


def _test_normalizer(program, equation, variables, instances) -> int:
    """The historical oracle loop: substitute each instance, normalise both sides.

    A fresh caching normaliser per equation, exactly as ``check_equation``
    always used (the cache persists across instances, so repeated subterm
    normal forms are already amortised — this is the old *fast* path, not a
    strawman).  Generic dispatch pinned: see the module docstring.
    """
    normalizer = Normalizer(program.rules, compile_rules=False)
    value_terms = {}

    def term_of(value):
        cached = value_terms.get(value)
        if cached is None:
            cached = value_terms[value] = value_to_term(value)
        return cached

    agreements = 0
    for instance in instances:
        theta = Substitution(
            {var.name: term_of(value) for var, value in zip(variables, instance)}
        )
        closed = equation.apply(theta)
        if normalizer.normalize(closed.lhs) == normalizer.normalize(closed.rhs):
            agreements += 1
    return agreements


def run_conjecture_benchmark(repeats: int = 5) -> Tuple[str, float, float]:
    """Per-conjecture point timings plus whole-suite samples.

    Returns ``(table, mean-ratio speedup, 95% CI lower bound)``.  The
    asserted quantity is the whole-suite ratio measured over ``repeats``
    recorded runs; the per-conjecture rows are single-run point estimates,
    shown for orientation, never asserted.
    """
    program = isaplanner_program()
    # One compiled evaluator for the whole suite, exactly as the falsifier
    # shares `Evaluator.for_program(program)` across every goal of a run; its
    # construction cost (compiling the prelude's decision trees, ~1 ms) is
    # amortised over the suite, not charged to each conjecture.
    evaluator = Evaluator(program.signature, program.rules.rules)
    prepared = []
    for source in CONJECTURES:
        equation = program.parse_equation(source)
        variables, instances = _collect_instances(
            program, equation, evaluator=evaluator
        )
        prepared.append((source, equation, variables, instances))

    # Correctness before speed: both oracles must agree on every instance.
    for source, equation, variables, instances in prepared:
        compiled_result = _test_compiled(evaluator, equation, variables, instances)
        normalizer_result = _test_normalizer(program, equation, variables, instances)
        assert compiled_result == normalizer_result, (
            f"oracles disagree on {source}: compiled says {compiled_result}, "
            f"normaliser says {normalizer_result} (of {len(instances)})"
        )

    rows: List[Tuple[object, ...]] = []
    for source, equation, variables, instances in prepared:
        started = time.perf_counter()
        _test_compiled(evaluator, equation, variables, instances)
        compiled_seconds = time.perf_counter() - started
        started = time.perf_counter()
        _test_normalizer(program, equation, variables, instances)
        normalizer_seconds = time.perf_counter() - started
        rows.append(
            (
                source,
                len(instances),
                f"{normalizer_seconds * 1000:.1f}",
                f"{compiled_seconds * 1000:.1f}",
                f"{normalizer_seconds / compiled_seconds:.1f}x",
            )
        )

    def compiled_pass():
        for _, equation, variables, instances in prepared:
            _test_compiled(evaluator, equation, variables, instances)

    def normalizer_pass():
        for _, equation, variables, instances in prepared:
            _test_normalizer(program, equation, variables, instances)

    compiled_sample = measure(compiled_pass, repeats=repeats, warmup=1)
    normalizer_sample = measure(normalizer_pass, repeats=repeats, warmup=1)
    point = speedup(normalizer_sample, compiled_sample)
    ci_lower = speedup_ci_lower(normalizer_sample, compiled_sample)
    rows.append(("whole suite (normaliser)", "", format_sample(normalizer_sample), "", ""))
    rows.append(("whole suite (compiled)", "", "", format_sample(compiled_sample), ""))
    rows.append(("whole suite", "", "", "", f"{point:.1f}x (CI lower {ci_lower:.1f}x)"))
    table = format_table(
        ("conjecture", "instances", "normaliser ms", "compiled ms", "speedup"), rows
    )
    return table, point, ci_lower


def run_single_term_benchmark(repeats: int = 5) -> Tuple[str, float, float]:
    """Closed-term evaluation without the compile-once amortisation.

    Returns ``(table, mean-ratio speedup, 95% CI lower bound)``."""
    program = isaplanner_program()
    evaluator = Evaluator(program.signature, program.rules.rules)
    sources = [
        "sort (Cons (S (S Z)) (Cons Z (Cons (S Z) (Cons (S (S (S Z))) Nil))))",
        "rev (app (Cons Z (Cons (S Z) Nil)) (Cons (S (S Z)) Nil))",
        "add (S (S (S (S Z)))) (S (S (S Z)))",
        "len (app (Cons Z Nil) (Cons Z (Cons Z Nil)))",
    ]
    terms = [program.parse_term(source) for source in sources]
    rounds = 200

    def compiled() -> None:
        for term in terms:
            evaluator.evaluate(term)

    def normalised() -> None:
        # A fresh normaliser per round: closed-term evaluation in a loop is
        # what the explorer's candidate filter did before the rewire, and each
        # new candidate brings unseen terms to the cache.  Generic dispatch
        # pinned: see the module docstring.
        normalizer = Normalizer(program.rules, compile_rules=False)
        for term in terms:
            normalizer.normalize(term)

    compiled_sample = measure(
        lambda: [compiled() for _ in range(rounds)], repeats=repeats, warmup=1
    )
    normalizer_sample = measure(
        lambda: [normalised() for _ in range(rounds)], repeats=repeats, warmup=1
    )
    point = speedup(normalizer_sample, compiled_sample)
    ci_lower = speedup_ci_lower(normalizer_sample, compiled_sample)
    table = format_table(
        ("workload", "normaliser", "compiled", "speedup"),
        [
            (
                f"{len(terms)} closed terms × {rounds} rounds",
                format_sample(normalizer_sample),
                format_sample(compiled_sample),
                f"{point:.1f}x (CI lower {ci_lower:.1f}x)",
            )
        ],
    )
    return table, point, ci_lower


# ---------------------------------------------------------------------------
# pytest entry points (the asserted acceptance criteria)
# ---------------------------------------------------------------------------


def test_compiled_evaluator_is_10x_faster_on_conjecture_testing():
    table, point, ci_lower = run_conjecture_benchmark()
    print_report("conjecture testing: compiled evaluator vs normaliser", table)
    # Measured ~12x (mean); the acceptance bar is the round order of
    # magnitude, and it must hold at the 95% CI lower bound.
    assert ci_lower >= 10.0, (
        f"expected >= 10x on ground conjecture testing at the CI lower bound, "
        f"got {ci_lower:.1f}x (mean {point:.1f}x)"
    )


def test_compiled_evaluator_beats_normaliser_on_single_terms():
    table, point, ci_lower = run_single_term_benchmark()
    print_report("single closed-term evaluation", table)
    # Measured ~20-70x (expression caching + call memo); assert a safe floor
    # at the CI lower bound.
    assert ci_lower >= 10.0, (
        f"expected >= 10x on single-term evaluation at the CI lower bound, "
        f"got {ci_lower:.1f}x (mean {point:.1f}x)"
    )


if __name__ == "__main__":
    conjecture_table, conjecture_point, conjecture_ci = run_conjecture_benchmark()
    print_report("conjecture testing: compiled evaluator vs normaliser", conjecture_table)
    single_table, single_point, single_ci = run_single_term_benchmark()
    print_report("single closed-term evaluation", single_table)
    print(
        f"overall: {conjecture_point:.1f}x (CI lower {conjecture_ci:.1f}x) on "
        f"conjecture testing, {single_point:.1f}x (CI lower {single_ci:.1f}x) "
        f"on single terms"
    )
