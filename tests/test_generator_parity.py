"""Byte-identical instance streams: the table-driven generators against a frozen copy.

``repro.semantics.generators`` samples from per-stream constructor tables and,
given an evaluator, builds random values already interned.  Neither may
change a single draw.  The evidence:

* a **frozen reference copy** of the untabled ``sample_value`` and
  ``instance_stream`` (each recursive call re-concretising the type and
  re-instantiating its constructors, values interned by a walk afterwards),
  compared by Hypothesis over random datatype declarations — polymorphic,
  mutually recursive, without nullary constructors, and with more than 21
  constructors (the population size where ``random.sample`` switches
  branches for small samples);
* a **committed fixture** of per-goal falsification outcomes over the
  IsaPlanner and false-conjecture suites, recorded with the untabled
  generators: any change to the stream moves an instance count or a
  counterexample.

Given its evaluator, ``instance_stream`` also memoises each stream on it and
replays it to later consumers.  The reference stream reports its random
phase's draws as the stream did before memoisation (counters updated in
place as it generates), so every consumer of a memoised stream is checked,
step by step, against a freshly generated one: values identical (``is``) and
``RandomPhaseStats`` equal at every point where it could stop.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import load_program
from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES
from repro.core.signature import Signature
from repro.core.terms import Var
from repro.core.types import DataTy, TypeVar
from repro.semantics.evaluator import Evaluator
from repro.semantics.falsify import FalsificationConfig, falsify_goal
from repro.semantics.generators import (
    RandomPhaseStats,
    concretise_type,
    enumerate_values,
    fair_product,
    instance_stream,
    sample_value,
)

FIXTURE = Path(__file__).parent / "fixtures" / "falsify_outcomes.json"


# ---------------------------------------------------------------------------
# Frozen reference: the generators before constructor tables
# ---------------------------------------------------------------------------


def reference_sample_value(signature, ty, depth, rng):
    ty = concretise_type(signature, ty)
    if not isinstance(ty, DataTy) or ty.name not in signature.datatypes or depth <= 0:
        return None
    candidates = signature.instantiate_constructors(ty)
    if depth == 1:
        candidates = [(name, args) for name, args in candidates if not args]
    if not candidates:
        return None
    for con_name, arg_tys in rng.sample(candidates, len(candidates)):
        args = []
        complete = True
        for arg_ty in arg_tys:
            arg = reference_sample_value(signature, arg_ty, depth - 1, rng)
            if arg is None:
                complete = False
                break
            args.append(arg)
        if complete:
            return (con_name,) + tuple(args)
    return None


def reference_instance_stream(signature, variables, depth, limit=None, random_samples=0,
                              random_depth=None, seed=0x5EED, intern=None, stats=None):
    domains = []
    for var in variables:
        domain = list(enumerate_values(signature, var.ty, depth))
        if not domain:
            return
        if intern is not None:
            domain = [intern(value) for value in domain]
        domains.append(domain)
    seen = set() if random_samples else None
    count = 0
    for combo in fair_product([len(domain) for domain in domains]):
        if limit is not None and count >= limit:
            break
        instance = tuple(domains[i][index] for i, index in enumerate(combo))
        if seen is not None:
            seen.add(instance)
        count += 1
        yield instance
    if not random_samples:
        return
    rng = random.Random(seed)
    sample_depth = random_depth if random_depth is not None else depth + 3
    if stats is None:
        stats = RandomPhaseStats()
    produced = 0
    attempts = 0
    max_attempts = random_samples * 8
    while produced < random_samples and attempts < max_attempts:
        attempts += 1
        stats.attempts += 1
        values = []
        for var in variables:
            value = reference_sample_value(signature, var.ty, sample_depth, rng)
            if value is None:
                values = None
                break
            values.append(value if intern is None else intern(value))
        if values is None:
            continue
        instance = tuple(values)
        if instance in seen:
            continue
        seen.add(instance)
        produced += 1
        stats.distinct += 1
        yield instance


# ---------------------------------------------------------------------------
# Random datatype declarations
# ---------------------------------------------------------------------------


@st.composite
def signatures(draw):
    """1-3 mutually recursive datatypes, some with a type parameter.

    Constructor arguments are the own parameter, any declared datatype
    (applied to the own parameter or to a parameterless datatype) or,
    rarely, a datatype nobody declared.  A declaration may lack nullary
    constructors altogether, and one of them may have more than 21
    constructors.
    """
    count = draw(st.integers(1, 3))
    names = [f"T{i}" for i in range(count)]
    params = {name: draw(st.sampled_from([(), ("a",)])) for name in names}
    parameterless = [DataTy(n) for n in names if not params[n]]
    big = draw(st.sampled_from([None] + names))
    signature = Signature()
    constructor_id = itertools.count()
    for name in names:
        own = [TypeVar(p) for p in params[name]]
        # A type argument for a parametrised datatype; a free "a" only when
        # nothing else exists (ill-formed, but both generators must agree).
        type_args = own + parameterless or [TypeVar("a")]
        arg_types = [DataTy(n) for n in names if not params[n]]
        arg_types += [DataTy(n, (a,)) for n in names if params[n] for a in type_args]
        arg_types += own + [DataTy("Undeclared")]
        n_constructors = draw(st.integers(22, 26)) if name == big else draw(st.integers(1, 4))
        constructors = []
        for _ in range(n_constructors):
            arity = draw(st.integers(0, 2))
            constructors.append((f"C{next(constructor_id)}",
                                 [draw(st.sampled_from(arg_types)) for _ in range(arity)]))
        signature.datatype(name, params[name], constructors)
    return signature


def variable_types(signature):
    names = sorted(signature.datatypes)
    parameterless = [DataTy(n) for n in names if not signature.datatypes[n].params]
    type_args = parameterless + [TypeVar("b")]
    one = st.one_of(
        st.sampled_from(names).flatmap(
            lambda n: st.just(DataTy(n)) if not signature.datatypes[n].params
            else st.sampled_from(type_args).map(lambda a: DataTy(n, (a,)))
        ),
        st.just(TypeVar("b")),
    )
    return st.lists(one, min_size=1, max_size=3)


def _reaches_a_big_datatype(signature, types):
    """Is a datatype of more than 21 constructors reachable from ``types``?"""
    datatypes = signature.datatypes
    pending = [concretise_type(signature, ty) for ty in types]
    seen = set()
    while pending:
        ty = pending.pop()
        if not isinstance(ty, DataTy):
            continue
        pending.extend(ty.args)
        if ty.name in seen or ty.name not in datatypes:
            continue
        seen.add(ty.name)
        decl = datatypes[ty.name]
        if len(decl.constructors) > 21:
            return True
        for constructor in decl.constructors:
            pending.extend(constructor.arg_types)
    return False


def _assert_canonical(evaluator, instances):
    for instance in instances:
        for value in instance:
            assert value is evaluator.intern_value(value)


class TestStreamMatchesFrozenReference:
    @settings(deadline=None, max_examples=120)
    @given(st.data())
    def test_sample_value(self, data):
        signature = data.draw(signatures())
        types = data.draw(variable_types(signature))
        depth = data.draw(st.integers(0, 8))
        seed = data.draw(st.integers(0, 2**32))
        ours, theirs = random.Random(seed), random.Random(seed)
        for ty in types:
            assert sample_value(signature, ty, depth, ours) == reference_sample_value(
                signature, ty, depth, theirs
            )
        # The same draws were made, not merely the same values returned.
        assert ours.getstate() == theirs.getstate()

    @settings(deadline=None, max_examples=120)
    @given(st.data())
    def test_instance_stream_with_and_without_an_evaluator(self, data):
        signature = data.draw(signatures())
        types = data.draw(variable_types(signature))
        variables = [Var(f"v{i}", ty) for i, ty in enumerate(types)]
        # A depth-3 domain over a 22-26-constructor datatype runs to millions
        # of values; depth 2 still covers every constructor shape of it.
        max_depth = 2 if _reaches_a_big_datatype(signature, types) else 3
        kwargs = dict(
            depth=data.draw(st.integers(1, max_depth)),
            limit=data.draw(st.integers(0, 20)),
            random_samples=data.draw(st.integers(0, 30)),
            random_depth=data.draw(st.integers(0, 8)),
            seed=data.draw(st.integers(0, 2**32)),
        )
        expected = list(reference_instance_stream(signature, variables, **kwargs))
        assert list(instance_stream(signature, variables, **kwargs)) == expected

        evaluator = Evaluator(signature, [])
        interned = list(instance_stream(signature, variables, evaluator=evaluator, **kwargs))
        assert interned == expected
        _assert_canonical(evaluator, interned)
        # The reference interning by walk reaches the very same objects.
        walked = list(reference_instance_stream(
            signature, variables, intern=evaluator.intern_value, **kwargs
        ))
        assert all(a is b for x, y in zip(interned, walked) for a, b in zip(x, y))

    def test_no_nullary_constructor_near_the_depth_limit(self):
        program = load_program("""
data Nat = Z | S Nat
data NE = One Nat | More Nat NE
""")
        ne = DataTy("NE")
        for seed in range(20):
            ours, theirs = random.Random(seed), random.Random(seed)
            for depth in range(0, 9):
                value = sample_value(program.signature, ne, depth, ours)
                assert value == reference_sample_value(program.signature, ne, depth, theirs)
                assert (value is None) == (depth < 2)


# ---------------------------------------------------------------------------
# Memoised streams against freshly generated ones
# ---------------------------------------------------------------------------

_END = object()


class _Consumer:
    """Steps one stream, recording each item with the stats read right after it.

    The last record of an exhausted stream is ``(_END, stats)``: what a
    consumer that ran the stream dry reads.  Every prefix of the record is
    what a consumer stopping there (on a counterexample or a deadline) sees.
    """

    def __init__(self, stream, stats):
        self.stream, self.stats = stream, stats
        self.trace = []
        self.done = False

    def step(self):
        item = next(self.stream, _END)
        self.done = item is _END
        self.trace.append((item, (self.stats.attempts, self.stats.distinct)))

    def run(self, stop=None):
        while not self.done and (stop is None or len(self.trace) < stop):
            self.step()
        return self.trace


def _fresh(signature, variables, evaluator, kwargs):
    stats = RandomPhaseStats()
    stream = reference_instance_stream(
        signature, variables, intern=evaluator.intern_value, stats=stats, **kwargs
    )
    return _Consumer(stream, stats).run()


def _memoised(signature, variables, evaluator, kwargs):
    stats = RandomPhaseStats()
    return _Consumer(
        instance_stream(signature, variables, evaluator=evaluator, stats=stats, **kwargs), stats
    )


def _assert_same(actual, expected):
    assert len(actual) == len(expected)
    for (item, stats), (want, want_stats) in zip(actual, expected):
        assert stats == want_stats
        if want is _END:
            assert item is _END
        else:
            assert len(item) == len(want) and all(a is b for a, b in zip(item, want))


class TestMemoisedStreamsReplayFreshOnes:
    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_cold_warm_partial_and_interleaved_consumers(self, data):
        signature = data.draw(signatures())
        types = data.draw(variable_types(signature))
        variables = [Var(f"v{i}", ty) for i, ty in enumerate(types)]
        # Other names, type variables concretised: the same memo key.
        renamed = [Var(f"w{i}", concretise_type(signature, ty)) for i, ty in enumerate(types)]
        # Depth 3 can enumerate millions of values of a 26-constructor type;
        # depths 1-2 keep the eight streams per example small.
        base = dict(
            depth=data.draw(st.integers(1, 2)),
            limit=data.draw(st.integers(0, 20)),
            random_samples=data.draw(st.integers(0, 30)),
            random_depth=data.draw(st.integers(0, 8)),
            seed=data.draw(st.integers(0, 2**32)),
        )
        # One field changed each: every parameter of the stream is in its key.
        variants = [
            dict(base, seed=base["seed"] + 1),
            dict(base, random_depth=base["random_depth"] + 1),
            dict(base, limit=base["limit"] + 3),
            dict(base, depth=3 - base["depth"]),
            dict(base, random_samples=base["random_samples"] + 5),
        ]
        evaluator = Evaluator(signature, [])
        expected = _fresh(signature, variables, evaluator, base)

        # Cold memo, then each variant on the same evaluator, then warm.
        _assert_same(_memoised(signature, variables, evaluator, base).run(), expected)
        for kwargs in variants:
            _assert_same(_memoised(signature, variables, evaluator, kwargs).run(),
                         _fresh(signature, variables, evaluator, kwargs))
        _assert_same(_memoised(signature, renamed, evaluator, base).run(), expected)
        assert len(evaluator.stream_memo) == 1 + len(variants)

        # A partial prefix on a cold memo, then the full stream.
        evaluator = Evaluator(signature, [])
        expected = _fresh(signature, variables, evaluator, base)
        stop = data.draw(st.integers(0, len(expected)))
        partial = _memoised(signature, variables, evaluator, base)
        _assert_same(partial.run(stop), expected[:stop])
        partial.stream.close()
        _assert_same(_memoised(signature, renamed, evaluator, base).run(), expected)

        # Two consumers of one key, interleaved from a cold memo.
        evaluator = Evaluator(signature, [])
        expected = _fresh(signature, variables, evaluator, base)
        first = _memoised(signature, variables, evaluator, base)
        second = _memoised(signature, renamed, evaluator, base)
        for pick in data.draw(st.lists(st.booleans(), max_size=2 * len(expected))):
            consumer = first if pick else second
            if not consumer.done:
                consumer.step()
        _assert_same(first.run(), expected)
        _assert_same(second.run(), expected)
        assert len(evaluator.stream_memo) == 1

    def test_without_an_evaluator_nothing_is_memoised(self):
        program = load_program(SUITE_PROGRAM_SOURCES["isaplanner"], name="isaplanner")
        variables = [Var("n", DataTy("Nat")), Var("xs", DataTy("List", (DataTy("Nat"),)))]
        kwargs = dict(depth=3, limit=10, random_samples=20, random_depth=5, seed=7)
        first = list(instance_stream(program.signature, variables, **kwargs))
        second = list(instance_stream(program.signature, variables, **kwargs))
        assert first == second
        assert all(a is not b for a, b in zip(first, second))
        # Nor for an evaluator of another signature: values interned, no memo.
        evaluator = Evaluator(Signature(), [])
        third = list(instance_stream(program.signature, variables, evaluator=evaluator, **kwargs))
        assert third == first and not evaluator.stream_memo
        _assert_canonical(evaluator, third)

    def test_clear_caches_drops_the_memoised_streams(self):
        program = load_program(SUITE_PROGRAM_SOURCES["isaplanner"], name="isaplanner")
        goals = [program.goals[name] for name in sorted(program.goals)[:16]]
        evaluator = Evaluator.for_program(program)
        before = [_digest(falsify_goal(program, goal), random_phase=True) for goal in goals]
        assert evaluator.stream_memo
        evaluator.clear_caches()
        assert not evaluator.stream_memo
        assert [_digest(falsify_goal(program, goal), random_phase=True) for goal in goals] == before
        config = FalsificationConfig()
        for goal in goals:
            for instance in instance_stream(
                program.signature,
                list(goal.equation.variables()),
                depth=config.depth,
                limit=config.exhaustive_limit,
                random_samples=config.random_samples,
                random_depth=config.random_depth,
                seed=config.seed,
                evaluator=evaluator,
            ):
                for value in instance:
                    assert evaluator.intern_value(value) is value


# ---------------------------------------------------------------------------
# Falsification outcomes of both suites, recorded with the untabled generators
# ---------------------------------------------------------------------------


def _digest(outcome, random_phase=False):
    cex = outcome.counterexample
    digest = {
        "instances_tested": outcome.instances_tested,
        "premise_skips": outcome.premise_skips,
        "error": outcome.error,
        "counterexample": None if cex is None else {
            "bindings": dict(sorted(cex.bindings.items())),
            "lhs_value": cex.lhs_value,
            "rhs_value": cex.rhs_value,
            "instances_tested": cex.instances_tested,
        },
    }
    if random_phase:
        digest["random"] = (outcome.random_attempts, outcome.random_distinct)
    return digest


def test_falsify_outcomes_match_the_recorded_fixture():
    expected = json.loads(FIXTURE.read_text())["outcomes"]
    programs = {
        suite: load_program(SUITE_PROGRAM_SOURCES[suite], name=suite)
        for suite in ("isaplanner", "false_conjectures")
    }
    # The second run replays every stream from its program's warm memo.
    for run in ("cold memo", "warm memo"):
        actual = {}
        for suite, program in programs.items():
            for name in sorted(program.goals):
                actual[f"{suite}/{name}"] = _digest(falsify_goal(program, program.goals[name]))
        assert actual == expected, run
        assert all(Evaluator.for_program(program).stream_memo for program in programs.values())
