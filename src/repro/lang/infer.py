"""Hindley–Milner style type inference for the surface language.

The elaborator needs types for three things:

* the pattern variables of every function clause (so that the corresponding
  rewrite-rule variables carry datatype information for the (Case) rule);
* defined functions lacking an explicit type signature (handled by solving the
  usual constraint system over all clauses at once, which also covers mutual
  recursion such as ``mapT``/``mapE``);
* the binders of properties (inferred from their use in the equation).

The algorithm is the standard one: fresh unification variables, constraint
collection by structural recursion, a single global substitution solved with
:func:`repro.core.types.unify_types`, and generalisation of leftover variables
to pretty names (``a``, ``b``, ...).
"""

from __future__ import annotations

import string
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.exceptions import ElaborationError, TypeCheckError, UnificationError
from ..core.signature import Signature
from ..core.types import (
    DataTy,
    FunTy,
    Type,
    TypeSubst,
    TypeVar,
    apply_type_subst,
    free_type_vars,
    instantiate,
    resolve,
    unify_types,
)
from .ast import SApp, SCon, SExpr, SNum, STyCon, STyFun, STyVar, SType, SVar

__all__ = ["TypeInference", "surface_type_to_core", "prettify_type_vars"]


def surface_type_to_core(ty: SType, datatypes: Mapping[str, int]) -> Type:
    """Convert a surface type to a core type.

    ``datatypes`` maps declared datatype names to their parameter count and is
    used to validate arities; unknown uppercase names are an error.
    """
    if isinstance(ty, STyVar):
        return TypeVar(ty.name)
    if isinstance(ty, STyFun):
        return FunTy(
            surface_type_to_core(ty.arg, datatypes),
            surface_type_to_core(ty.res, datatypes),
        )
    if isinstance(ty, STyCon):
        if ty.name not in datatypes:
            raise ElaborationError(f"unknown type constructor {ty.name}")
        expected = datatypes[ty.name]
        if len(ty.args) != expected:
            raise ElaborationError(
                f"type constructor {ty.name} expects {expected} argument(s), got {len(ty.args)}"
            )
        return DataTy(ty.name, tuple(surface_type_to_core(a, datatypes) for a in ty.args))
    raise ElaborationError(f"unsupported surface type {ty!r}")


def prettify_type_vars(ty: Type, taken: Optional[Dict[str, str]] = None) -> Type:
    """Rename machine-generated type variables to ``a``, ``b``, ``c`` ...

    ``taken`` accumulates the renaming so that several types of the same
    declaration share names consistently.
    """
    mapping = taken if taken is not None else {}
    alphabet = list(string.ascii_lowercase)

    def next_name() -> str:
        used = set(mapping.values())
        for letter in alphabet:
            if letter not in used:
                return letter
        index = 0
        while f"t{index}" in used:
            index += 1
        return f"t{index}"

    subst: TypeSubst = {}
    for name in free_type_vars(ty):
        if name.startswith("$"):
            if name not in mapping:
                mapping[name] = next_name()
            subst[name] = TypeVar(mapping[name])
    return apply_type_subst(subst, ty)


class TypeInference:
    """A constraint-solving context shared across the clauses of a module."""

    def __init__(self, signature: Signature):
        self.signature = signature
        self.subst: TypeSubst = {}
        self._counter = 0
        # Placeholder (monomorphic) types for functions still being inferred.
        self.placeholders: Dict[str, Type] = {}

    # -- plumbing ----------------------------------------------------------------

    def fresh(self, hint: str = "t") -> TypeVar:
        self._counter += 1
        return TypeVar(f"${hint}{self._counter}")

    def unify(self, a: Type, b: Type, context: str = "") -> None:
        try:
            unify_types(a, b, self.subst)
        except UnificationError as exc:
            raise TypeCheckError(f"{context}: cannot unify {a} with {b}: {exc}") from exc

    def resolve(self, ty: Type) -> Type:
        return resolve(ty, self.subst)

    def symbol_use_type(self, name: str) -> Type:
        """The type of a symbol occurrence inside a body or property.

        Declared (constructor or signed) symbols are instantiated freshly; a
        function currently being inferred uses its shared placeholder type
        (monomorphic recursion).
        """
        if name in self.placeholders:
            return self.placeholders[name]
        return instantiate(self.signature.symbol_type(name))

    # -- patterns -------------------------------------------------------------------

    def infer_pattern(self, pattern: SExpr, expected: Type, bindings: Dict[str, Type]) -> None:
        """Type a pattern against ``expected``, extending ``bindings`` for its variables."""
        if isinstance(pattern, SVar):
            if pattern.name in bindings:
                raise ElaborationError(f"pattern variable {pattern.name} bound twice")
            bindings[pattern.name] = expected
            return
        if isinstance(pattern, SNum):
            self.unify(expected, DataTy("Nat"), context="numeric pattern")
            return
        head, args = _spine(pattern)
        if not isinstance(head, SCon):
            raise ElaborationError(f"invalid pattern {pattern!r}")
        if not self.signature.is_constructor(head.name):
            raise ElaborationError(f"unknown constructor {head.name} in pattern")
        con_type = instantiate(self.signature.symbol_type(head.name))
        arg_types, result = _split_arrows(con_type, len(args))
        if len(arg_types) != len(args):
            raise ElaborationError(
                f"constructor {head.name} applied to {len(args)} argument(s) in a pattern, "
                f"expected {self.signature.arity(head.name)}"
            )
        self.unify(result, expected, context=f"pattern {head.name}")
        for sub_pattern, sub_type in zip(args, arg_types):
            self.infer_pattern(sub_pattern, self.resolve(sub_type), bindings)

    # -- expressions ---------------------------------------------------------------------

    def infer_expr(self, expr: SExpr, env: Mapping[str, Type]) -> Type:
        """Infer the type of an expression under ``env`` (term variables)."""
        if isinstance(expr, SVar):
            if expr.name in env:
                return env[expr.name]
            if self.signature.is_declared(expr.name) or expr.name in self.placeholders:
                return self.symbol_use_type(expr.name)
            raise ElaborationError(f"unbound variable or unknown function {expr.name}")
        if isinstance(expr, SCon):
            if not self.signature.is_constructor(expr.name):
                raise ElaborationError(f"unknown constructor {expr.name}")
            return self.symbol_use_type(expr.name)
        if isinstance(expr, SNum):
            return DataTy("Nat")
        if isinstance(expr, SApp):
            fun_type = self.infer_expr(expr.fun, env)
            arg_type = self.infer_expr(expr.arg, env)
            result = self.fresh("r")
            expected = FunTy(arg_type, result)
            try:
                unify_types(fun_type, expected, self.subst)
            except UnificationError as exc:
                # Rendered only on failure: ``repr`` of every application is
                # a visible share of a program load.
                raise TypeCheckError(
                    f"application {expr!r}: cannot unify {fun_type} with {expected}: {exc}"
                ) from exc
            return result
        raise ElaborationError(f"unsupported expression {expr!r}")


def _spine(expr: SExpr) -> Tuple[SExpr, List[SExpr]]:
    args: List[SExpr] = []
    while isinstance(expr, SApp):
        args.append(expr.arg)
        expr = expr.fun
    args.reverse()
    return expr, args


def _split_arrows(ty: Type, count: int) -> Tuple[List[Type], Type]:
    args: List[Type] = []
    current = ty
    for _ in range(count):
        if not isinstance(current, FunTy):
            break
        args.append(current.arg)
        current = current.res
    return args, current
