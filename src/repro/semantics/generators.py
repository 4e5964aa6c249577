"""Generation of well-typed ground constructor values.

Two regimes feed the falsifier:

* **Size-bounded exhaustive enumeration** (:func:`enumerate_values`): every
  constructor value of a type up to a depth bound, the complete small-scope
  search that catches most false conjectures.
* **Seeded random sampling** (:func:`sample_value`): values at depths the
  exhaustive regime cannot afford, drawn from a caller-supplied
  ``random.Random`` so that every run is deterministic and replayable.

:func:`instance_stream` combines both into the per-conjecture instance stream,
using :func:`fair_product` for the exhaustive prefix.  Fairness matters: the
naive ``itertools.product`` order freezes every variable except the last for
the entire budget, so a conjecture false only in its *first* variable survives
any budget smaller than the full cross product.  ``fair_product`` enumerates
index tuples in growing "shells" (by maximum index), so every variable reaches
its ``k``-th domain value after O(``k``ᵈⁱᵐ) tuples, not O(``k``·|product of
the other domains|).

Values are the evaluator's representation — plain ``(constructor, ...)``
tuples — so generation allocates no :class:`~repro.core.terms.Term` at all.

Random sampling is table-driven: a stream concretises each type and
instantiates its constructors once, into a table with the nullary subset
beside it, instead of on every recursive draw.  Given the consumer's
evaluator, random values are built through its constructor interning, node
by node, so they arrive hash-consed without a canonicalisation walk.  Neither
changes a draw: for the same seed the stream is byte-identical to sampling
without tables or interning (``tests/test_generator_parity.py`` holds a
frozen copy of that untabled sampler).

A stream is a pure function of the signature, the *concretised* variable
types and its parameters; variable names do not enter it.  So, given an
evaluator of the same signature, :func:`instance_stream` memoises it on that
evaluator (``Evaluator.stream_memo``) under the key ``(concretised variable
types, depth, limit, random_samples, random_depth, seed)``, and every later
consumer of the key replays it: the exhaustive prefix is re-walked through
:func:`fair_product` over the memoised domains (interned once), and the
random phase is drawn once, lazily, by one suspended generator whose
instances, with the draw count at each, consumers share.  A consumer's :class:`RandomPhaseStats` reads at every stopping point
exactly what a freshly generated stream would report there.  Only the
stream is memoised, never a verdict: every instance still runs through the
consumer's test.  The memo has no size cap (its keys are bounded by the
distinct type signatures) and lives as long as the evaluator; its values are
canonical in the evaluator's intern tables, so ``Evaluator.clear_caches``
drops it with them.  Like the evaluator's other tables it is not
thread-safe.  Without an evaluator, or with an evaluator of another
signature, every stream is generated afresh.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.types import DataTy, Type, TypeVar

__all__ = [
    "concretise_type",
    "enumerate_values",
    "sample_value",
    "fair_product",
    "instance_stream",
    "RandomPhaseStats",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0x5EED
"""Default seed of the random regime: fixed, so bare runs are reproducible."""


def concretise_type(signature, ty: Type) -> Type:
    """Replace type variables by a small concrete datatype for enumeration.

    Polymorphic variables are instantiated as the first parameterless datatype
    with a nullary constructor (the same policy as the historical
    ``ground_terms`` enumeration, so oracles agree on which instances exist).
    """
    if isinstance(ty, TypeVar):
        for name, decl in signature.datatypes.items():
            if not decl.params and any(not c.arg_types for c in decl.constructors):
                return DataTy(name)
        return ty
    if isinstance(ty, DataTy):
        return DataTy(ty.name, tuple(concretise_type(signature, a) for a in ty.args))
    return ty


def enumerate_values(signature, ty: Type, depth: int) -> Iterator[tuple]:
    """All constructor values of ``ty`` up to ``depth``, smallest constructors first.

    Yields nothing for non-datatype types (function types, unresolvable type
    variables) — such variables simply have no ground instances, mirroring the
    term-level enumeration.
    """
    ty = concretise_type(signature, ty)
    if not isinstance(ty, DataTy) or ty.name not in signature.datatypes:
        return
    if depth <= 0:
        return
    for con_name, arg_tys in signature.instantiate_constructors(ty):
        if not arg_tys:
            yield (con_name,)
            continue
        if depth == 1:
            continue
        domains = [list(enumerate_values(signature, at, depth - 1)) for at in arg_tys]
        if any(not domain for domain in domains):
            continue
        for combo in itertools.product(*domains):
            yield (con_name,) + combo


def _sampler(signature, rng: random.Random, make=None) -> Callable[[Type, int], Optional[tuple]]:
    """The :func:`sample_value` function of one stream, over memoised tables.

    Each type gets one table, ``(type, constructors, nullary constructors)``,
    built on the type's first draw at a positive depth (exactly where
    :func:`sample_value` first looked constructors up, so even a malformed
    type fails at the same point).  A constructor is ``(name, argument types,
    value)``: instantiated at the concretised type, with its value prebuilt
    when it is nullary.  Tables are keyed by ``id``; each table holds its
    type, so the id cannot be reused while the sampler lives.

    ``make(name, args)`` builds each node; an evaluator's
    ``make_constructor`` returns values already interned.  The draws are
    those of ``rng.sample(constructors, n)`` inlined: the same ``n`` calls of
    ``rng._randbelow`` in the same order, all before the first recursive
    call, so the stream is byte-identical to the untabled one.
    """
    if make is None:
        make = _make_tuple
    tables: Dict[int, tuple] = {}
    randbelow = rng._randbelow

    def build(ty: Type) -> tuple:
        concrete = concretise_type(signature, ty)
        if not isinstance(concrete, DataTy) or concrete.name not in signature.datatypes:
            return ty, [], []
        candidates = [
            (name, args, None if args else make(name, ()))
            for name, args in signature.instantiate_constructors(concrete)
        ]
        return ty, candidates, [c for c in candidates if not c[1]]

    def sample(ty: Type, depth: int) -> Optional[tuple]:
        if depth <= 0:
            return None
        table = tables.get(id(ty))
        if table is None:
            table = tables[id(ty)] = build(ty)
        candidates = table[1] if depth > 1 else table[2]
        n = len(candidates)
        if not n:
            return None
        pool = list(candidates)
        order = []
        for i in range(n):
            j = randbelow(n - i)
            order.append(pool[j])
            pool[j] = pool[n - i - 1]
        for con_name, arg_tys, value in order:
            if value is not None:
                return value
            args = []
            for arg_ty in arg_tys:
                arg = sample(arg_ty, depth - 1)
                if arg is None:
                    break
                args.append(arg)
            else:
                return make(con_name, tuple(args))
        return None

    return sample


def _make_tuple(name: str, args: tuple) -> tuple:
    return (name,) + args


def sample_value(signature, ty: Type, depth: int, rng: random.Random) -> Optional[tuple]:
    """One random constructor value of ``ty`` within ``depth``, or ``None``.

    Constructors are tried in a random order and the first one whose
    arguments can all be completed within the remaining depth wins, so a
    datatype without nullary constructors (``data NE = One Nat | More Nat
    NE``) still samples successfully near the depth limit instead of
    aborting half its draws.  ``None`` only when no value of the type fits
    within ``depth`` at all.
    """
    return _sampler(signature, rng)(ty, depth)


def fair_product(sizes: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Index tuples over ``range(sizes[i])`` domains, in growing shells.

    Shell ``r`` contains exactly the tuples whose maximum index is ``r``, so a
    prefix of the stream covers a growing hypercube rather than a line: every
    coordinate visits its ``r``-th value within the first ``(r+1)^len(sizes)``
    tuples.  Within a shell, tuples are yielded in lexicographic order of the
    position of the first maximal coordinate; the whole order is deterministic.
    """
    if not sizes:
        yield ()
        return
    if any(size <= 0 for size in sizes):
        return
    for radius in range(max(sizes)):
        for first_max in range(len(sizes)):
            if sizes[first_max] <= radius:
                continue
            ranges = []
            feasible = True
            for index, size in enumerate(sizes):
                if index < first_max:
                    # Strictly below the radius: `first_max` really is the
                    # first coordinate reaching it (no duplicates across
                    # decompositions).
                    high = min(radius, size)
                elif index == first_max:
                    ranges.append(range(radius, radius + 1))
                    continue
                else:
                    high = min(radius + 1, size)
                if high <= 0:
                    feasible = False
                    break
                ranges.append(range(high))
            if not feasible:
                continue
            yield from itertools.product(*ranges)


@dataclass
class RandomPhaseStats:
    """What the random phase of one :func:`instance_stream` drew, so far."""

    attempts: int = 0
    """Random draws made (each draws one value per variable)."""

    distinct: int = 0
    """Draws that were new instances, i.e. that the stream yielded."""


class _Stream:
    """The generated part of one instance stream, replayable by many consumers.

    ``domains`` holds each variable's exhaustive domain (``None`` when some
    variable has no ground values); consumers re-walk the exhaustive prefix
    through :func:`fair_product` over them.  The random phase is drawn at
    most once, lazily, by one suspended generator: ``instances`` holds the
    distinct random instances drawn so far and ``attempts[k]`` the number of
    draws made when ``instances[k]`` was found; ``final`` is the number of
    draws once the phase has ended (``None`` before).  The draws' ``seen``
    set and sampler live only in that generator's frame, so they are freed
    when the phase ends.
    """

    __slots__ = ("domains", "limit", "instances", "attempts", "final", "_draws")

    def __init__(self, signature, types, depth, limit, random_samples, random_depth, seed, evaluator):
        domains: Optional[List[List[tuple]]] = []
        for ty in types:
            domain = list(enumerate_values(signature, ty, depth))
            if not domain:
                domains = None
                break
            if evaluator is not None:
                domain = [evaluator.intern_value(value) for value in domain]
            domains.append(domain)
        self.domains = domains
        self.limit = limit
        self.instances: List[Tuple[tuple, ...]] = []
        self.attempts = array("q")
        self.final: Optional[int] = None
        self._draws = None
        if domains is not None and random_samples:
            self._draws = self._draw(
                signature,
                types,
                random_samples,
                random_depth if random_depth is not None else depth + 3,
                seed,
                None if evaluator is None else evaluator.make_constructor,
            )

    def exhaustive(self) -> Iterator[Tuple[tuple, ...]]:
        """The exhaustive prefix: up to ``limit`` instances in fair-shell order."""
        domains = self.domains
        combos = fair_product([len(domain) for domain in domains])
        if self.limit is not None:
            combos = itertools.islice(combos, self.limit)
        for combo in combos:
            yield tuple(map(getitem, domains, combo))

    def extend(self) -> bool:
        """Draw until one more random instance is found; ``False`` once the phase is over."""
        draws = self._draws
        if draws is None:
            return False
        found = len(self.instances)
        next(draws, None)
        return len(self.instances) > found

    def _draw(self, signature, types, random_samples, sample_depth, seed, make):
        seen = set(self.exhaustive())
        sample = _sampler(signature, random.Random(seed), make)
        attempts = 0
        max_attempts = random_samples * 8
        while len(self.instances) < random_samples and attempts < max_attempts:
            attempts += 1
            values = []
            for ty in types:
                value = sample(ty, sample_depth)
                if value is None:
                    # Unsatisfiable draw (type with no values at this depth at
                    # all — the exhaustive phase already proved values exist
                    # at `depth <= sample_depth`, so this is effectively
                    # unreachable, but a failed draw must cost one attempt,
                    # not the phase).
                    values = None
                    break
                values.append(value)
            if values is None:
                continue
            instance = tuple(values)
            if instance in seen:
                continue
            seen.add(instance)
            self.instances.append(instance)
            self.attempts.append(attempts)
            yield
        self.final = attempts
        self._draws = None


def instance_stream(
    signature,
    variables: Sequence,
    depth: int,
    limit: Optional[int] = None,
    random_samples: int = 0,
    random_depth: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    evaluator=None,
    stats: Optional[RandomPhaseStats] = None,
) -> Iterator[Tuple[tuple, ...]]:
    """Instance tuples (one value per variable) for a conjecture's variables.

    First up to ``limit`` exhaustive instances at ``depth`` in fair-shell
    order, then up to ``random_samples`` *distinct* random instances at
    ``random_depth`` (default ``depth + 3``) drawn from a ``Random(seed)`` —
    deterministic end to end.  The random phase stops after ``8 *
    random_samples`` draws even if fewer were distinct.  Yields nothing when
    any variable's type has no ground values (the conjecture is then vacuous
    at this bound, exactly as for the term-level enumeration).

    With an ``evaluator`` (a :class:`repro.semantics.evaluator.Evaluator`)
    the consumer receives hash-consed values and never pays a per-instance
    canonicalisation walk: exhaustive values are interned once per distinct
    value, and random values are built already interned, node by node,
    through :meth:`~repro.semantics.evaluator.Evaluator.make_constructor`.
    When ``signature is evaluator.signature`` the stream is also memoised on
    the evaluator (see the module docstring), so it is generated once per
    type signature and parameters, and replayed after that.  The instances
    are equal to those of a stream without an evaluator.

    ``stats``, when given, has the random phase's draws and new instances
    added to it as the consumer advances: at every point where the consumer
    stops, it reads what a freshly generated stream would report there.
    """
    stream = _stream_for(
        signature, variables, depth, limit, random_samples, random_depth, seed, evaluator
    )
    if stream.domains is None:
        return
    yield from stream.exhaustive()
    if not random_samples:
        return
    if stats is None:
        stats = RandomPhaseStats()
    instances, attempts = stream.instances, stream.attempts
    reported = 0
    index = 0
    while index < len(instances) or stream.extend():
        stats.attempts += attempts[index] - reported
        reported = attempts[index]
        stats.distinct += 1
        yield instances[index]
        index += 1
    stats.attempts += stream.final - reported


def _stream_for(signature, variables, depth, limit, random_samples, random_depth, seed, evaluator) -> _Stream:
    """The memoised :class:`_Stream` of these parameters, or a fresh one.

    The memo lives on the evaluator and is used only for the evaluator's own
    signature.  Its key holds the *concretised* variable types: variable
    names and unconcretised type variables do not change the stream.
    """
    types = tuple(concretise_type(signature, var.ty) for var in variables)
    if evaluator is None or signature is not evaluator.signature:
        return _Stream(signature, types, depth, limit, random_samples, random_depth, seed, evaluator)
    key = (types, depth, limit, random_samples, random_depth, seed)
    memo = evaluator.stream_memo
    stream = memo.get(key)
    if stream is None:
        stream = memo[key] = _Stream(
            signature, types, depth, limit, random_samples, random_depth, seed, evaluator
        )
    return stream
