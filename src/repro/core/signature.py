"""Signatures: datatypes, constructors and defined function symbols.

The paper fixes a signature consisting of a finite set of algebraic datatypes
``D`` and function symbols ``Sigma`` partitioned into constructors (at most
first order) and defined functions.  :class:`Signature` records exactly this
information plus the (possibly polymorphic) type of every symbol, and provides
the type-driven operations the prover needs:

* enumerate the constructors of a datatype with their argument types
  instantiated at a particular type application (used by the (Case) rule);
* infer the type of a term (used by reflexivity over function types, the
  function-extensionality rule, and well-formedness checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .exceptions import SignatureError, TypeCheckError, UnificationError
from .terms import App, Sym, Term, Var
from .types import (
    DataTy,
    FunTy,
    Type,
    TypeVar,
    apply_type_subst,
    arg_types,
    fun_ty,
    instantiate,
    match_type,
    resolve,
    result_type,
    type_order,
    unify_types,
)

__all__ = ["ConstructorDecl", "DataDecl", "Signature"]


@dataclass(frozen=True)
class ConstructorDecl:
    """A constructor declaration: its name and argument types.

    The argument types may mention the type parameters of the owning datatype.
    """

    name: str
    arg_types: Tuple[Type, ...]


@dataclass(frozen=True)
class DataDecl:
    """An algebraic datatype declaration, e.g. ``data List a = Nil | Cons a (List a)``."""

    name: str
    params: Tuple[str, ...]
    constructors: Tuple[ConstructorDecl, ...]

    def applied(self, args: Optional[Sequence[Type]] = None) -> DataTy:
        """The datatype applied to ``args`` (type variables by default)."""
        if args is None:
            args = tuple(TypeVar(p) for p in self.params)
        return DataTy(self.name, tuple(args))

    def __str__(self) -> str:
        params = (" " + " ".join(self.params)) if self.params else ""
        cons = " | ".join(
            c.name + "".join(f" ({t})" for t in c.arg_types) for c in self.constructors
        )
        return f"data {self.name}{params} = {cons}"


class Signature:
    """The signature of a program: datatypes, constructors and defined symbols."""

    def __init__(self) -> None:
        self._datatypes: Dict[str, DataDecl] = {}
        self._constructor_owner: Dict[str, str] = {}
        self._constructor_types: Dict[str, Type] = {}
        self._defined_types: Dict[str, Type] = {}

    # -- declaration --------------------------------------------------------

    def declare_datatype(self, decl: DataDecl) -> None:
        """Register a datatype and its constructors."""
        if decl.name in self._datatypes:
            raise SignatureError(f"datatype {decl.name} declared twice")
        self._datatypes[decl.name] = decl
        for con in decl.constructors:
            if con.name in self._constructor_owner or con.name in self._defined_types:
                raise SignatureError(f"symbol {con.name} declared twice")
            for ty in con.arg_types:
                if type_order(ty) > 1:
                    raise SignatureError(
                        f"constructor {con.name} has an argument of order > 1: {ty}"
                    )
            self._constructor_owner[con.name] = decl.name
            self._constructor_types[con.name] = fun_ty(con.arg_types, decl.applied())

    def datatype(self, name: str, params: Sequence[str] = (),
                 constructors: Sequence[Tuple[str, Sequence[Type]]] = ()) -> DataDecl:
        """Convenience wrapper building and declaring a :class:`DataDecl`."""
        decl = DataDecl(
            name,
            tuple(params),
            tuple(ConstructorDecl(n, tuple(ts)) for n, ts in constructors),
        )
        self.declare_datatype(decl)
        return decl

    def declare_function(self, name: str, ty: Type) -> None:
        """Register a defined function symbol with its (possibly polymorphic) type."""
        if name in self._defined_types or name in self._constructor_owner:
            raise SignatureError(f"symbol {name} declared twice")
        self._defined_types[name] = ty

    # -- queries -------------------------------------------------------------

    @property
    def datatypes(self) -> Mapping[str, DataDecl]:
        """All datatype declarations, keyed by name: a read-only live view.

        No copy is made (the generators read this once per type they
        concretise), so the view reflects later declarations and rejects
        writes; declare through :meth:`declare_datatype`.
        """
        return MappingProxyType(self._datatypes)

    @property
    def constructors(self) -> Tuple[str, ...]:
        """The names of all constructors."""
        return tuple(self._constructor_types)

    @property
    def defined(self) -> Tuple[str, ...]:
        """The names of all defined function symbols."""
        return tuple(self._defined_types)

    def is_constructor(self, name: str) -> bool:
        """Is ``name`` a constructor of some declared datatype?"""
        return name in self._constructor_types

    def is_defined(self, name: str) -> bool:
        """Is ``name`` a defined function symbol?"""
        return name in self._defined_types

    def is_declared(self, name: str) -> bool:
        """Is ``name`` either a constructor or a defined function?"""
        return self.is_constructor(name) or self.is_defined(name)

    def symbol_type(self, name: str) -> Type:
        """The declared (polymorphic) type of a symbol."""
        if name in self._constructor_types:
            return self._constructor_types[name]
        if name in self._defined_types:
            return self._defined_types[name]
        raise SignatureError(f"unknown symbol {name}")

    def arity(self, name: str) -> int:
        """The number of arguments of a symbol according to its declared type."""
        return len(arg_types(self.symbol_type(name)))

    def owner_datatype(self, constructor: str) -> str:
        """The datatype a constructor belongs to."""
        try:
            return self._constructor_owner[constructor]
        except KeyError:
            raise SignatureError(f"unknown constructor {constructor}") from None

    def constructors_of(self, datatype: str) -> Tuple[ConstructorDecl, ...]:
        """The constructor declarations of a datatype (paper's Sigma_con(d))."""
        try:
            return self._datatypes[datatype].constructors
        except KeyError:
            raise SignatureError(f"unknown datatype {datatype}") from None

    def instantiate_constructors(self, ty: DataTy) -> List[Tuple[str, Tuple[Type, ...]]]:
        """Constructors of the datatype ``ty`` with argument types instantiated at ``ty``.

        For example, for ``List Nat`` this returns
        ``[("Nil", ()), ("Cons", (Nat, List Nat))]``.
        """
        if not isinstance(ty, DataTy):
            raise TypeCheckError(f"cannot case split on non-datatype type {ty}")
        decl = self._datatypes.get(ty.name)
        if decl is None:
            raise SignatureError(f"unknown datatype {ty.name}")
        if len(decl.params) != len(ty.args):
            raise TypeCheckError(f"datatype {ty.name} applied to wrong number of arguments")
        mapping = {param: arg for param, arg in zip(decl.params, ty.args)}
        result = []
        for con in decl.constructors:
            inst = tuple(apply_type_subst(mapping, t) for t in con.arg_types)
            result.append((con.name, inst))
        return result

    # -- typing --------------------------------------------------------------

    def infer_type(self, term: Term) -> Type:
        """Infer the (most general) type of a well-formed term.

        Variables carry their own types; symbol occurrences are instantiated
        with fresh type variables and constrained by application.  Raises
        :class:`TypeCheckError` when the term is ill-typed.
        """
        subst: Dict[str, Type] = {}

        counter = [0]

        def fresh() -> TypeVar:
            counter[0] += 1
            return TypeVar(f"$i{counter[0]}")

        def go(t: Term) -> Type:
            if isinstance(t, Var):
                return t.ty
            if isinstance(t, Sym):
                return instantiate(self.symbol_type(t.name))
            if isinstance(t, App):
                fun_type = go(t.fun)
                arg_type = go(t.arg)
                res = fresh()
                try:
                    unify_types(fun_type, FunTy(arg_type, res), subst)
                except UnificationError as exc:
                    raise TypeCheckError(f"ill-typed application {t}: {exc}") from exc
                return res
            raise TypeCheckError(f"unknown term node {t!r}")

        return resolve(go(term), subst)

    def arrow_type(self, term: Term) -> Optional[FunTy]:
        """The type of ``term`` if it is an arrow; ``None`` otherwise or if ill-typed.

        Inference is skipped when the head symbol's declared type, stripped of
        the term's arguments, leaves a datatype: inference could then only
        return that datatype or fail.  It runs only when the residue is an
        arrow or a type variable (or the head is a variable).
        """
        if term._head is not None and term._head in self:
            residue = self.symbol_type(term._head)
            for _ in range(term._nargs):
                if not isinstance(residue, FunTy):
                    break
                residue = residue.res
            if isinstance(residue, DataTy):
                return None
        try:
            inferred = self.infer_type(term)
        except (SignatureError, TypeCheckError):  # unknown symbol or ill-typed
            return None
        return inferred if isinstance(inferred, FunTy) else None

    def check_type(self, term: Term, expected: Type) -> Type:
        """Check that ``term`` can be given the type ``expected``."""
        inferred = self.infer_type(term)
        try:
            subst = unify_types(inferred, expected, {})
        except UnificationError as exc:
            raise TypeCheckError(
                f"term {term} has type {inferred}, expected {expected}"
            ) from exc
        return resolve(expected, subst)

    # -- misc ----------------------------------------------------------------

    def describe(self) -> str:
        """A human-readable summary of the signature."""
        lines = [str(decl) for decl in self._datatypes.values()]
        for name, ty in self._defined_types.items():
            lines.append(f"{name} :: {ty}")
        return "\n".join(lines)

    def __contains__(self, name: str) -> bool:
        return self.is_declared(name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Signature(datatypes={list(self._datatypes)}, "
            f"defined={list(self._defined_types)})"
        )
