"""Local well-formedness of inference-rule instances (Fig. 3).

Every vertex of a preproof must be a well-formed instance of its rule.  The
checker here validates exactly that, node by node; it is used by the test
suite, by the rewriting-induction translation, and by
:func:`repro.proofs.soundness.local_issues`.

The rules checked are the four rules of Fig. 3 — (Refl), (Reduce), (Subst),
(Case) — plus the two derived rules the implementation applies eagerly
(Section 6): constructor decomposition (Cong) and function extensionality
(FunExt), and the hypothesis pseudo-rule of partial proofs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.equations import Equation
from ..core.matching import match_or_none
from ..core.substitution import Substitution
from ..core.terms import (
    App,
    Sym,
    Term,
    Var,
    apply_term,
    free_vars,
    replace_at,
    spine,
    subterm_at,
)
from ..core.types import DataTy, FunTy
from ..program import Program
from .preproof import (
    RULE_CASE,
    RULE_CONG,
    RULE_FUNEXT,
    RULE_HYP,
    RULE_REDUCE,
    RULE_REFL,
    RULE_SUBST,
    Preproof,
    ProofNode,
)

__all__ = ["check_node", "reachable_by_reduction"]


def reachable_by_reduction(program: Program, source: Term, target: Term, max_steps: int = 2000) -> bool:
    """Is ``target`` reachable from ``source`` by zero or more reduction steps?

    Implemented as a bounded breadth-first search over one-step reducts with a
    fallback to normal-form comparison (sound under the standing confluence
    assumption when ``target`` is itself a normal form).
    """
    from ..rewriting.reduction import is_normal_form, one_step, reducts

    if source == target:
        return True
    seen = {source}
    frontier = [source]
    steps = 0
    while frontier and steps < max_steps:
        new_frontier: List[Term] = []
        for term in frontier:
            for reduct in reducts(program.rules, term):
                steps += 1
                if reduct == target:
                    return True
                if reduct not in seen:
                    seen.add(reduct)
                    new_frontier.append(reduct)
                if steps >= max_steps:
                    break
            if steps >= max_steps:
                break
        frontier = new_frontier
    if is_normal_form(program.rules, target):
        normalizer = program.normalizer()
        return normalizer.normalize(source) == target
    return False


def _check_refl(node: ProofNode) -> List[str]:
    issues = []
    if not node.equation.is_trivial():
        issues.append(f"node {node.ident}: (Refl) conclusion is not of the form M ≈ M")
    if node.premises:
        issues.append(f"node {node.ident}: (Refl) must not have premises")
    return issues


def _check_reduce(program: Program, proof: Preproof, node: ProofNode) -> List[str]:
    issues = []
    if len(node.premises) != 1:
        return [f"node {node.ident}: (Reduce) must have exactly one premise"]
    premise = proof.node(node.premises[0]).equation
    conclusion = node.equation
    ok = (
        reachable_by_reduction(program, conclusion.lhs, premise.lhs)
        and reachable_by_reduction(program, conclusion.rhs, premise.rhs)
    ) or (
        reachable_by_reduction(program, conclusion.lhs, premise.rhs)
        and reachable_by_reduction(program, conclusion.rhs, premise.lhs)
    )
    if not ok:
        issues.append(
            f"node {node.ident}: (Reduce) premise {premise} is not a reduct of {conclusion}"
        )
    return issues


def _check_subst(proof: Preproof, node: ProofNode) -> List[str]:
    issues: List[str] = []
    if len(node.premises) != 2:
        return [f"node {node.ident}: (Subst) must have a lemma and a continuation premise"]
    lemma = proof.node(node.premises[0]).equation
    continuation = proof.node(node.premises[1]).equation
    conclusion = node.equation
    if node.subst is not None and node.position is not None and node.side is not None:
        issues.extend(_check_subst_with_metadata(node, lemma, continuation, conclusion))
        if not issues:
            return issues
        # Fall through to the existential check: the metadata may simply be stale.
        issues = []
    if not _subst_instance_exists(lemma, continuation, conclusion):
        issues.append(
            f"node {node.ident}: no contextual substitution of lemma {lemma} turns "
            f"{conclusion} into {continuation}"
        )
    return issues


def _check_subst_with_metadata(
    node: ProofNode, lemma: Equation, continuation: Equation, conclusion: Equation
) -> List[str]:
    lemma_from, lemma_to = (lemma.lhs, lemma.rhs)
    if node.lemma_flipped:
        lemma_from, lemma_to = lemma_to, lemma_from
    theta = node.subst
    side = node.side
    position = node.position
    conclusion_side = conclusion.lhs if side == "lhs" else conclusion.rhs
    other_side = conclusion.rhs if side == "lhs" else conclusion.lhs
    try:
        redex = subterm_at(conclusion_side, position)
    except IndexError:
        return [f"node {node.ident}: (Subst) position {position} does not exist"]
    if theta.apply(lemma_from) != redex:
        return [
            f"node {node.ident}: subterm at {position} is {redex}, not the lemma instance "
            f"{theta.apply(lemma_from)}"
        ]
    rewritten = replace_at(conclusion_side, position, theta.apply(lemma_to))
    expected = Equation(rewritten, other_side) if side == "lhs" else Equation(other_side, rewritten)
    if expected != continuation:
        return [
            f"node {node.ident}: continuation should be {expected} but is {continuation}"
        ]
    return []


def _subst_instance_exists(lemma: Equation, continuation: Equation, conclusion: Equation) -> bool:
    """Existential check: some occurrence of a lemma instance explains the step."""
    from ..core.terms import positions

    for lemma_from, lemma_to in ((lemma.lhs, lemma.rhs), (lemma.rhs, lemma.lhs)):
        for side_name in ("lhs", "rhs"):
            conclusion_side = getattr(conclusion, side_name)
            other = conclusion.rhs if side_name == "lhs" else conclusion.lhs
            for position, sub in positions(conclusion_side):
                theta = match_or_none(lemma_from, sub)
                if theta is None:
                    continue
                rewritten = replace_at(conclusion_side, position, theta.apply(lemma_to))
                candidate = (
                    Equation(rewritten, other) if side_name == "lhs" else Equation(other, rewritten)
                )
                if candidate == continuation:
                    return True
    return False


def _check_case(program: Program, proof: Preproof, node: ProofNode) -> List[str]:
    issues: List[str] = []
    var = node.case_var
    if var is None:
        return [f"node {node.ident}: (Case) is missing its case variable"]
    if not isinstance(var.ty, DataTy):
        return [f"node {node.ident}: (Case) variable {var} is not of datatype type"]
    constructors = program.signature.instantiate_constructors(var.ty)
    if len(node.premises) != len(constructors):
        return [
            f"node {node.ident}: (Case) has {len(node.premises)} premises but "
            f"{var.ty} has {len(constructors)} constructors"
        ]
    declared = node.case_constructors or tuple(name for name, _ in constructors)
    for premise_id, con_name in zip(node.premises, declared):
        expected_args = dict(constructors).get(con_name)
        if expected_args is None:
            issues.append(f"node {node.ident}: {con_name} is not a constructor of {var.ty}")
            continue
        premise = proof.node(premise_id).equation
        if not _is_case_premise(node.equation, premise, var, con_name, len(expected_args)):
            issues.append(
                f"node {node.ident}: premise {premise_id} is not the {con_name} instance of "
                f"{node.equation}"
            )
    return issues


def _is_case_premise(
    conclusion: Equation, premise: Equation, var: Var, constructor: str, arity: int
) -> bool:
    """Is ``premise`` the conclusion with ``var`` replaced by a fresh constructor pattern?

    The fresh variables are unknown, so we match: build the pattern with
    placeholder variables and match the expected equation against the premise,
    requiring the matcher to be a renaming that is the identity on the
    variables of the conclusion other than ``var``.
    """
    placeholders = [Var(f"$c{i}", var.ty) for i in range(arity)]
    pattern = apply_term(Sym(constructor), *placeholders)
    subst = Substitution({var.name: pattern})
    expected = conclusion.apply(subst)
    for expected_eq in (expected, expected.flipped()):
        theta = match_or_none(expected_eq.lhs, premise.lhs)
        if theta is None:
            continue
        theta2 = match_or_none(expected_eq.rhs, premise.rhs, dict(theta))
        if theta2 is None:
            continue
        if all(
            isinstance(t, Var) for name, t in theta2.items()
        ) and all(
            (isinstance(t, Var) and t.name == name)
            for name, t in theta2.items()
            if not name.startswith("$c")
        ):
            return True
    return False


def _check_cong(proof: Preproof, node: ProofNode, program: Program) -> List[str]:
    lhs_head, lhs_args = spine(node.equation.lhs)
    rhs_head, rhs_args = spine(node.equation.rhs)
    if not (
        isinstance(lhs_head, Sym)
        and isinstance(rhs_head, Sym)
        and lhs_head.name == rhs_head.name
        and program.signature.is_constructor(lhs_head.name)
        and len(lhs_args) == len(rhs_args)
    ):
        return [f"node {node.ident}: (Cong) conclusion sides are not the same constructor"]
    if len(node.premises) != len(lhs_args):
        return [f"node {node.ident}: (Cong) must have one premise per constructor argument"]
    issues = []
    for premise_id, left, right in zip(node.premises, lhs_args, rhs_args):
        premise = proof.node(premise_id).equation
        if premise != Equation(left, right):
            issues.append(
                f"node {node.ident}: (Cong) premise {premise_id} should be {Equation(left, right)}"
            )
    return issues


def _check_funext(proof: Preproof, node: ProofNode, program: Program) -> List[str]:
    if len(node.premises) != 1:
        return [f"node {node.ident}: (FunExt) must have exactly one premise"]
    premise = proof.node(node.premises[0]).equation
    conclusion = node.equation
    lhs_head, lhs_args = spine(premise.lhs)
    rhs_head, rhs_args = spine(premise.rhs)
    if not lhs_args or not rhs_args:
        return [f"node {node.ident}: (FunExt) premise sides must be applications"]
    if lhs_args[-1] != rhs_args[-1] or not isinstance(lhs_args[-1], Var):
        return [f"node {node.ident}: (FunExt) premise must apply both sides to the same fresh variable"]
    fresh = lhs_args[-1]
    stripped = Equation(_strip_last(premise.lhs), _strip_last(premise.rhs))
    if stripped != conclusion:
        return [f"node {node.ident}: (FunExt) premise does not extend the conclusion"]
    conclusion_vars = {v.name for v in conclusion.variables()}
    if fresh.name in conclusion_vars:
        return [f"node {node.ident}: (FunExt) variable {fresh} is not fresh"]
    return []


def _strip_last(term: Term) -> Term:
    if isinstance(term, App):
        return term.fun
    return term


def check_node(program: Program, proof: Preproof, node: ProofNode) -> List[str]:
    """All local well-formedness issues of a single vertex (empty = well formed)."""
    if node.rule is None:
        return [f"node {node.ident}: open subgoal"]
    if node.rule == RULE_HYP:
        return []
    if node.rule == RULE_REFL:
        return _check_refl(node)
    if node.rule == RULE_REDUCE:
        return _check_reduce(program, proof, node)
    if node.rule == RULE_SUBST:
        return _check_subst(proof, node)
    if node.rule == RULE_CASE:
        return _check_case(program, proof, node)
    if node.rule == RULE_CONG:
        return _check_cong(proof, node, program)
    if node.rule == RULE_FUNEXT:
        return _check_funext(proof, node, program)
    return [f"node {node.ident}: unknown rule {node.rule}"]
