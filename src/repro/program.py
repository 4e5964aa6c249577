"""Programs: a signature, its rewrite rules, and named conjectures.

A :class:`Program` is the unit the prover operates on — it corresponds to a
Haskell module fed to the CycleQ GHC plugin: datatype declarations, function
definitions (as rewrite rules), and a collection of equations the user wants
proved.  Programs can be built programmatically, or parsed from the small
functional surface language in :mod:`repro.lang`.

The module also provides the *semantics* used for validity: enumeration of
ground constructor terms and ground instances, and a bounded validity check
``check_equation`` used extensively by the test suite to confirm that whatever
the provers claim to have proved actually holds.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .core.equations import Equation
from .core.exceptions import SignatureError
from .core.signature import Signature
from .core.substitution import Substitution
from .core.terms import Sym, Term, Var, apply_term
from .core.types import DataTy, Type
from .rewriting.reduction import Normalizer
from .rewriting.trs import RewriteSystem

__all__ = ["Goal", "Program", "ground_terms", "ground_instances", "check_equation"]


@dataclass(frozen=True)
class Goal:
    """A named conjecture.

    ``conditions`` holds the hypotheses of a conditional goal; CycleQ's proof
    system handles unconditional equations only, so goals with conditions are
    reported as out of scope (exactly as in the paper's evaluation).
    """

    name: str
    equation: Equation
    conditions: Tuple[Equation, ...] = ()
    description: str = ""

    @property
    def is_conditional(self) -> bool:
        """Does the goal carry hypotheses?"""
        return bool(self.conditions)

    def __str__(self) -> str:
        if self.conditions:
            premises = ", ".join(str(c) for c in self.conditions)
            return f"{self.name}: {premises} ==> {self.equation}"
        return f"{self.name}: {self.equation}"


class Program:
    """A functional program: signature + rewrite rules + named goals."""

    def __init__(
        self,
        signature: Signature,
        rules: RewriteSystem,
        goals: Optional[Mapping[str, Goal]] = None,
        name: str = "program",
    ):
        if rules.signature is not signature:
            raise SignatureError("rewrite system must be built over the program's signature")
        self.signature = signature
        self.rules = rules
        self.goals: Dict[str, Goal] = dict(goals or {})
        self.name = name
        #: Surface-language source the program was elaborated from ("" when the
        #: program was built programmatically).  Carried so that proof
        #: certificates can be re-checked by an *independent* elaboration of
        #: the very same text (see :mod:`repro.proofs.checker`).
        self.source: str = ""

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable hex digest of the program's signature and rewrite rules.

        Two programs with the same datatypes, function types and rules (in
        declaration order) have the same fingerprint, regardless of which
        process built them or which term bank their nodes live in.  Goals are
        deliberately excluded: adding a conjecture does not change what the
        prover or the normaliser can do, so it must not invalidate persisted
        results keyed by this digest (see ``repro.engine.store``).
        """
        rules = self.rules.rules
        datatypes = self.signature.datatypes
        # The digest is cached, keyed by the sizes of everything it covers, so
        # adding rules, datatypes, or function declarations invalidates it.
        cache_token = (len(rules), len(datatypes), len(self.signature.defined))
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None and cached[0] == cache_token:
            return cached[1]
        hasher = hashlib.sha256()
        for name in sorted(datatypes):
            hasher.update(str(datatypes[name]).encode())
            hasher.update(b"\n")
        for symbol in sorted(self.signature.defined):
            hasher.update(f"{symbol} :: {self.signature.symbol_type(symbol)}".encode())
            hasher.update(b"\n")
        for rule in rules:
            hasher.update(str(rule).encode())
            hasher.update(b"\n")
        digest = hasher.hexdigest()
        self._fingerprint_cache = (cache_token, digest)
        return digest

    # -- goals ---------------------------------------------------------------

    def add_goal(self, goal: Goal) -> None:
        """Register a named conjecture."""
        self.goals[goal.name] = goal

    def goal(self, name: str) -> Goal:
        """Look up a conjecture by name."""
        return self.goals[name]

    def unconditional_goals(self) -> List[Goal]:
        """Goals within the scope of the proof system (no hypotheses)."""
        return [g for g in self.goals.values() if not g.is_conditional]

    def conditional_goals(self) -> List[Goal]:
        """Goals that are out of scope because they carry hypotheses."""
        return [g for g in self.goals.values() if g.is_conditional]

    # -- semantics --------------------------------------------------------------

    def normalizer(self) -> Normalizer:
        """A fresh caching normaliser for this program's rules."""
        return Normalizer(self.rules)

    def normalize(self, term: Term) -> Term:
        """Normalise a single term (uncached; use :meth:`normalizer` in loops)."""
        return Normalizer(self.rules).normalize(term)

    # -- parsing convenience ------------------------------------------------------

    def parse_term(self, source: str, env: Optional[Mapping[str, Type]] = None) -> Term:
        """Parse a term in this program's signature (see :mod:`repro.lang`)."""
        from .lang.loader import parse_term_in_signature

        return parse_term_in_signature(source, self.signature, env or {})

    def parse_equation(self, source: str, env: Optional[Mapping[str, Type]] = None) -> Equation:
        """Parse an equation ``lhs ≈ rhs`` (also accepts ``=`` or ``==``)."""
        from .lang.loader import parse_equation_in_signature

        return parse_equation_in_signature(source, self.signature, env or {})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Program({self.name!r}, {len(self.rules)} rules, "
            f"{len(self.goals)} goals)"
        )


# ---------------------------------------------------------------------------
# Ground semantics
# ---------------------------------------------------------------------------


def ground_terms(signature: Signature, ty: Type, depth: int) -> Iterator[Term]:
    """Enumerate closed constructor terms of type ``ty`` up to the given depth.

    Polymorphic type variables are instantiated as the ``Nat``-like first
    nullary-constructor datatype available, or skipped when none exists.
    """
    ty = _concretise(signature, ty)
    if not isinstance(ty, DataTy) or ty.name not in signature.datatypes:
        return
    if depth <= 0:
        return
    for con_name, arg_tys in signature.instantiate_constructors(ty):
        if not arg_tys:
            yield Sym(con_name)
            continue
        if depth == 1:
            continue
        argument_choices = [list(ground_terms(signature, at, depth - 1)) for at in arg_tys]
        if any(not choice for choice in argument_choices):
            continue
        for combo in itertools.product(*argument_choices):
            yield apply_term(Sym(con_name), *combo)


def _concretise(signature: Signature, ty: Type) -> Type:
    """Replace type variables by a small concrete datatype for enumeration.

    One policy, one implementation: this delegates to the semantics
    subsystem's :func:`~repro.semantics.generators.concretise_type` so the
    term-level and value-level oracles can never disagree about which
    instances exist.
    """
    from .semantics.generators import concretise_type

    return concretise_type(signature, ty)


def ground_instances(
    signature: Signature,
    variables: Sequence[Var],
    depth: int,
    limit: Optional[int] = None,
) -> Iterator[Substitution]:
    """Enumerate ground instances for the given variables up to a depth bound.

    Instances are produced in the *fair-shell* order of
    :func:`repro.semantics.generators.fair_product` rather than raw
    ``itertools.product`` order: under a ``limit``, the naive product varies
    only the last variable and pins every earlier one to its smallest value
    for the entire budget, so a conjecture false only in its first variable
    would survive any truncated check.  Fair interleaving grows all variables
    together; without a limit the instance *set* is unchanged.
    """
    from .semantics.generators import fair_product

    domains: List[List[Term]] = []
    for var in variables:
        terms = list(ground_terms(signature, var.ty, depth))
        if not terms:
            return
        domains.append(terms)
    count = 0
    for combo in fair_product([len(domain) for domain in domains]):
        if limit is not None and count >= limit:
            return
        yield Substitution(
            {var.name: domains[i][index] for i, (var, index) in enumerate(zip(variables, combo))}
        )
        count += 1


def check_equation(
    program: Program,
    equation: Equation,
    depth: int = 4,
    limit: Optional[int] = 500,
) -> bool:
    """Bounded validity check: does the equation hold on all small ground instances?

    This is the testing oracle used throughout the test suite — a sound proof
    must never claim an equation that this check refutes.

    The check runs on the compiled ground evaluator
    (:mod:`repro.semantics.evaluator`): the equation's sides are compiled once
    and each instance is a run of their compiled closures over constructor
    values, roughly an order of magnitude faster than normalising every
    substituted instance (``benchmarks/bench_evaluator.py``).  Programs whose
    rules fall outside the compilable functional fragment — or evaluations
    that get stuck on partial definitions — fall back to the generic
    :class:`~repro.rewriting.reduction.Normalizer` path, so the oracle's
    verdict never depends on the fast path being available.
    """
    from .semantics.evaluator import CompilationError, EvaluationError, Evaluator
    from .semantics.generators import instance_stream

    variables = equation.variables()
    evaluator: Optional[Evaluator]
    try:
        evaluator = Evaluator.for_program(program)
        slots = {var.name: index for index, var in enumerate(variables)}
        lhs_expr = evaluator.compile(equation.lhs, slots)
        rhs_expr = evaluator.compile(equation.rhs, slots)
    except CompilationError:
        evaluator = None
    normalizer: Optional[Normalizer] = None
    for index, instance in enumerate(
        instance_stream(
            program.signature, variables, depth=depth, limit=limit, evaluator=evaluator
        )
    ):
        if limit is not None and index >= limit:
            break
        if evaluator is not None:
            try:
                # Hash-consed values: one machine session, equality by identity.
                if not evaluator.equal(lhs_expr, rhs_expr, instance):
                    return False
                continue
            except EvaluationError:
                pass  # stuck/over-budget instance: decide it on the slow path
        from .semantics.evaluator import value_to_term

        if normalizer is None:
            # The oracle's slow path stays on the normaliser, like the
            # docstring promises: no compiled evaluator.
            normalizer = program.normalizer()
        theta = Substitution(
            {var.name: value_to_term(value) for var, value in zip(variables, instance)}
        )
        closed = equation.apply(theta)
        if normalizer.normalize(closed.lhs) != normalizer.normalize(closed.rhs):
            return False
    return True
