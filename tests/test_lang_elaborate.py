"""Unit tests for type inference and elaboration of surface modules."""

import pytest

from repro.core.exceptions import ElaborationError, TypeCheckError
from repro.core.types import DataTy, FunTy, TypeVar, arg_types, result_type
from repro.lang import load_program
from repro.lang.loader import parse_equation_in_signature, parse_term_in_signature

NAT = DataTy("Nat")


class TestDatatypeElaboration:
    def test_constructor_types(self, list_program):
        sig = list_program.signature
        assert sig.symbol_type("Z") == NAT
        cons_type = sig.symbol_type("Cons")
        assert result_type(cons_type) == DataTy("List", (TypeVar("a"),))

    def test_unknown_type_constructor_rejected(self):
        with pytest.raises(ElaborationError):
            load_program("data Foo = MkFoo Bar")

    def test_wrong_type_arity_rejected(self):
        with pytest.raises(ElaborationError):
            load_program(
                """
data List a = Nil | Cons a (List a)
data Foo = MkFoo List
"""
            )


class TestFunctionElaboration:
    def test_declared_signature_used(self, nat_program):
        assert nat_program.signature.symbol_type("add") == FunTy(NAT, FunTy(NAT, NAT))

    def test_rules_built_per_clause(self, nat_program):
        assert len(nat_program.rules.rules_for("add")) == 2

    def test_signature_inference_without_annotation(self):
        program = load_program(
            """
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
length Nil = Z
length (Cons x xs) = S (length xs)
"""
        )
        inferred = program.signature.symbol_type("length")
        assert result_type(inferred) == NAT
        (arg,) = arg_types(inferred)
        assert isinstance(arg, DataTy) and arg.name == "List"
        # The element type stays polymorphic.
        assert isinstance(arg.args[0], TypeVar)

    def test_mutual_recursion_inference(self):
        program = load_program(
            """
data Bool = True | False
data Nat = Z | S Nat
isEven Z = True
isEven (S x) = isOdd x
isOdd Z = False
isOdd (S x) = isEven x
"""
        )
        assert program.signature.symbol_type("isEven") == FunTy(NAT, DataTy("Bool"))
        assert program.signature.symbol_type("isOdd") == FunTy(NAT, DataTy("Bool"))

    def test_ill_typed_clause_rejected(self):
        with pytest.raises(TypeCheckError):
            load_program(
                """
data Nat = Z | S Nat
data Bool = True | False
bad :: Nat -> Nat
bad x = True
"""
            )

    def test_ill_typed_application_message(self):
        with pytest.raises(TypeCheckError) as caught:
            load_program(
                """
data Nat = Z | S Nat
data Bool = True | False
bad :: Nat -> Nat
bad x = S True
"""
            )
        assert str(caught.value) == (
            "application SApp(fun=SCon(name='S'), arg=SCon(name='True')): "
            "cannot unify Nat -> Nat with Bool -> $r1: cannot unify Nat with Bool"
        )

    def test_unbound_variable_rejected(self):
        with pytest.raises(ElaborationError):
            load_program(
                """
data Nat = Z | S Nat
f :: Nat -> Nat
f x = y
"""
            )

    def test_duplicate_pattern_variable_rejected(self):
        with pytest.raises(ElaborationError):
            load_program(
                """
data Nat = Z | S Nat
add2 :: Nat -> Nat -> Nat
add2 x x = x
"""
            )

    def test_non_exhaustive_patterns_rejected_by_default(self):
        with pytest.raises(ElaborationError):
            load_program(
                """
data Nat = Z | S Nat
pred :: Nat -> Nat
pred (S x) = x
"""
            )

    def test_numeric_literals_desugar_to_peano(self):
        program = load_program(
            """
data Nat = Z | S Nat
two :: Nat
two = 2
"""
        )
        rule = program.rules.rules_for("two")[0]
        assert str(rule.rhs) == "S (S Z)"


class TestPropertyElaboration:
    def test_property_becomes_goal(self, isaplanner):
        goal = isaplanner.goal("prop_01")
        assert not goal.is_conditional
        assert "take" in str(goal.equation)

    def test_conditional_property(self, isaplanner):
        goal = isaplanner.goal("prop_05")
        assert goal.is_conditional
        assert len(goal.conditions) == 1

    def test_binder_types_inferred(self, isaplanner):
        goal = isaplanner.goal("prop_01")
        types = {v.name: v.ty for v in goal.equation.variables()}
        assert types["n"] == NAT
        assert isinstance(types["xs"], DataTy) and types["xs"].name == "List"

    def test_property_signature_marker_ignored(self):
        program = load_program(
            """
data Nat = Z | S Nat
add :: Nat -> Nat -> Nat
add Z y = y
add (S x) y = S (add x y)
prop_zero :: Equation
prop_zero x = add Z x === x
"""
        )
        assert "prop_zero" in program.goals
        assert not program.signature.is_defined("prop_zero")


class TestTermParsingHelpers:
    def test_parse_term_with_env(self, nat_program):
        term = parse_term_in_signature("add x (S Z)", nat_program.signature, {"x": NAT})
        assert nat_program.signature.infer_type(term) == NAT

    def test_parse_term_infers_variable_types(self, list_program):
        term = parse_term_in_signature("len xs", list_program.signature, {})
        assert list_program.signature.infer_type(term) == NAT

    def test_parse_equation_accepts_several_separators(self, nat_program):
        for source in ["add x Z === x", "add x Z ≈ x", "add x Z ≡ x"]:
            eq = parse_equation_in_signature(source, nat_program.signature, {})
            assert eq.variable_names() == ("x",)

    def test_parse_equation_without_separator_rejected(self, nat_program):
        with pytest.raises(ElaborationError):
            parse_equation_in_signature("add x Z", nat_program.signature, {})
