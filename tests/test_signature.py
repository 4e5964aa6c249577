"""Unit tests for signatures and term typing."""

import pytest

from repro import load_program
from repro.benchmarks_data.prelude import PRELUDE_SOURCE
from repro.benchmarks_data.registry import SUITE_PROGRAM_SOURCES
from repro.core.exceptions import SignatureError, TypeCheckError
from repro.core.signature import ConstructorDecl, DataDecl, Signature
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy, FunTy, TypeVar, fun_ty


def make_signature() -> Signature:
    sig = Signature()
    sig.datatype("Nat", (), [("Z", ()), ("S", (DataTy("Nat"),))])
    sig.datatype(
        "List",
        ("a",),
        [("Nil", ()), ("Cons", (TypeVar("a"), DataTy("List", (TypeVar("a"),))))],
    )
    sig.declare_function("add", fun_ty([DataTy("Nat"), DataTy("Nat")], DataTy("Nat")))
    sig.declare_function(
        "len", fun_ty([DataTy("List", (TypeVar("a"),))], DataTy("Nat"))
    )
    return sig


NAT = DataTy("Nat")
LIST_NAT = DataTy("List", (NAT,))


class TestDeclaration:
    def test_constructors_and_defined_are_disjoint(self):
        sig = make_signature()
        assert sig.is_constructor("Cons") and not sig.is_defined("Cons")
        assert sig.is_defined("add") and not sig.is_constructor("add")

    def test_duplicate_datatype_rejected(self):
        sig = make_signature()
        with pytest.raises(SignatureError):
            sig.datatype("Nat", (), [("Z", ())])

    def test_duplicate_symbol_rejected(self):
        sig = make_signature()
        with pytest.raises(SignatureError):
            sig.declare_function("Cons", NAT)
        with pytest.raises(SignatureError):
            sig.declare_function("add", NAT)

    def test_higher_order_constructor_rejected(self):
        sig = Signature()
        with pytest.raises(SignatureError):
            sig.datatype("Bad", (), [("MkBad", (FunTy(FunTy(NAT, NAT), NAT),))])

    def test_unknown_symbol_lookup(self):
        sig = make_signature()
        with pytest.raises(SignatureError):
            sig.symbol_type("missing")


class TestQueries:
    def test_symbol_types(self):
        sig = make_signature()
        assert sig.symbol_type("Z") == NAT
        assert sig.symbol_type("S") == FunTy(NAT, NAT)
        assert sig.arity("Cons") == 2
        assert sig.arity("Z") == 0

    def test_owner_datatype(self):
        sig = make_signature()
        assert sig.owner_datatype("Cons") == "List"
        with pytest.raises(SignatureError):
            sig.owner_datatype("add")

    def test_constructors_of(self):
        sig = make_signature()
        names = [c.name for c in sig.constructors_of("List")]
        assert names == ["Nil", "Cons"]

    def test_instantiate_constructors_at_concrete_type(self):
        sig = make_signature()
        constructors = dict(sig.instantiate_constructors(LIST_NAT))
        assert constructors["Nil"] == ()
        assert constructors["Cons"] == (NAT, LIST_NAT)

    def test_instantiate_constructors_rejects_bad_arity(self):
        sig = make_signature()
        with pytest.raises(TypeCheckError):
            sig.instantiate_constructors(DataTy("List", ()))

    def test_describe_mentions_everything(self):
        text = make_signature().describe()
        assert "data Nat" in text and "add ::" in text


class TestDatatypesView:
    def test_writes_through_the_view_raise(self):
        view = make_signature().datatypes
        with pytest.raises(TypeError):
            view["Bool"] = view["Nat"]
        with pytest.raises(TypeError):
            del view["Nat"]
        assert not hasattr(view, "pop") and not hasattr(view, "clear")

    def test_the_view_reflects_later_declarations(self):
        sig = make_signature()
        view = sig.datatypes
        sig.datatype("Bool", (), [("True", ()), ("False", ())])
        assert list(view) == ["Nat", "List", "Bool"]
        assert [c.name for c in view["Bool"].constructors] == ["True", "False"]

    # Recorded when `datatypes` still returned a copy: the digest reads the
    # declarations through the view and must not move.
    @pytest.mark.parametrize("source, digest", [
        (SUITE_PROGRAM_SOURCES["isaplanner"],
         "db94bf5be36f8714534d5f12862aeef6a5aaa3acc6c4db03b3ad4b4b31f31466"),
        (SUITE_PROGRAM_SOURCES["mutual"],
         "0979e3f066cab010c542b6d02208a2290b313a060b15709669a49b9b13dd1e35"),
        (PRELUDE_SOURCE,
         "db94bf5be36f8714534d5f12862aeef6a5aaa3acc6c4db03b3ad4b4b31f31466"),
    ], ids=["isaplanner", "mutual", "prelude"])
    def test_program_fingerprints_are_unchanged(self, source, digest):
        assert load_program(source).fingerprint() == digest


class TestTyping:
    def test_infer_ground_term(self):
        sig = make_signature()
        term = apply_term(Sym("S"), Sym("Z"))
        assert sig.infer_type(term) == NAT

    def test_infer_polymorphic_constructor_use(self):
        sig = make_signature()
        term = apply_term(Sym("Cons"), Sym("Z"), Sym("Nil"))
        assert sig.infer_type(term) == LIST_NAT

    def test_infer_with_typed_variables(self):
        sig = make_signature()
        xs = Var("xs", LIST_NAT)
        assert sig.infer_type(apply_term(Sym("len"), xs)) == NAT

    def test_ill_typed_application_rejected(self):
        sig = make_signature()
        with pytest.raises(TypeCheckError):
            sig.infer_type(apply_term(Sym("S"), Sym("Nil")))

    def test_check_type(self):
        sig = make_signature()
        assert sig.check_type(Sym("Nil"), LIST_NAT) == LIST_NAT
        with pytest.raises(TypeCheckError):
            sig.check_type(Sym("Z"), LIST_NAT)
