"""Maranget match trees: one pattern-matrix compiler for two backends.

Both places that run a function's defining equations as code compile each
head symbol's rules into a decision tree (Maranget, "Compiling pattern
matching to good decision trees", ML 2008) built here:

* :mod:`repro.rewriting.compile` lowers it to Python source walking the
  hash-consed *open-term* DAG (the prover's normaliser);
* :mod:`repro.semantics.evaluator` lowers it to a tree over *ground values*
  (the falsifier's evaluator).

Tree layout::

    (LEAF, bindings, rhs)                 bindings: {variable name: occurrence}
                                          in binding order; rhs: the rule's
                                          right-hand side term
    (SWITCH, occurrence, cases, default)  cases: {constructor: (nargs, subtree)}
                                          in first-appearance order; default:
                                          the subtree for every other
                                          scrutinee, or None (no rule matches)
    (FAIL,)                               no rule matches

An occurrence ``(i, j, k, ...)`` selects argument ``i`` of the call, then child
``j`` of the constructor found there, then child ``k``, ...  ``nargs`` is the
spine length the rows demand of that constructor; children of a case are
numbered ``0 .. nargs - 1``.

Rows keep declaration order through every specialisation, so a tree selects
the *first* rule whose patterns match, also on overlapping, non-orthogonal
rule sets.

**Fragment.**  :func:`compile_head` raises :class:`MatchCompilationDeclined`
when any rule of the head is not left-linear, the rules disagree on arity, a
pattern contains a non-constructor symbol or applies a variable, a right-hand
side has a variable the left-hand side does not bind, or one column matches a
constructor at two spine lengths.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.terms import App, Sym, Var, free_vars, spine, subterms

__all__ = ["LEAF", "SWITCH", "FAIL", "MatchCompilationDeclined", "compile_head"]

LEAF, SWITCH, FAIL = 0, 1, 2


class MatchCompilationDeclined(Exception):
    """A head symbol's rules fall outside the compilable fragment."""


def compile_head(head: str, rules: Sequence, signature) -> Tuple[int, tuple]:
    """The arity and match tree of one head's (non-empty) rule list."""
    patterns = [rule.patterns for rule in rules]
    arities = {len(row) for row in patterns}
    if len(arities) != 1:
        raise MatchCompilationDeclined(
            f"{head}: rules disagree on arity ({sorted(arities)})"
        )
    rows = []
    for rule, row in zip(rules, patterns):
        _check_rule(head, rule, row, signature)
        rows.append(([((index,), pattern) for index, pattern in enumerate(row)], {}, rule.rhs))
    return arities.pop(), _compile_matrix(head, rows)


def _check_rule(head: str, rule, patterns, signature) -> None:
    if not rule.is_left_linear():
        raise MatchCompilationDeclined(f"{head}: {rule} is not left-linear")
    pattern_vars = {v.name for v in free_vars(rule.lhs)}
    if any(var.name not in pattern_vars for var in free_vars(rule.rhs)):
        raise MatchCompilationDeclined(
            f"{head}: right-hand side of {rule} has unbound variables"
        )
    for pattern in patterns:
        for sub in subterms(pattern):
            if isinstance(sub, Sym) and not signature.is_constructor(sub.name):
                raise MatchCompilationDeclined(
                    f"{head}: pattern {pattern} contains non-constructor symbol {sub.name}"
                )
            if isinstance(sub, App) and sub._head is None:
                raise MatchCompilationDeclined(f"{head}: pattern {pattern} applies a variable")


def _compile_matrix(head: str, rows: List) -> tuple:
    """The tree of a pattern matrix: rows of ``(columns, bindings, rhs)``.

    ``columns`` pairs each pending occurrence with the row's pattern there
    (``None`` once a wildcard row was expanded under a constructor).
    """
    if not rows:
        return (FAIL,)
    columns, bindings, rhs = rows[0]
    split = next(
        (i for i, (_, p) in enumerate(columns) if p is not None and not isinstance(p, Var)),
        None,
    )
    if split is None:
        # First row matches unconditionally: bind its variables and stop —
        # any later rows are unreachable at this point of the tree.
        leaf_bindings = dict(bindings)
        for occurrence, pattern in columns:
            if pattern is not None:
                leaf_bindings[pattern.name] = occurrence
        return (LEAF, leaf_bindings, rhs)
    occurrence = columns[split][0]
    # Each row's pattern at the split occurrence (None: an expanded wildcard).
    at_split = [next((p for o, p in row[0] if o == occurrence), None) for row in rows]
    case_arity: Dict[str, int] = {}
    case_order: List[str] = []
    for pattern in at_split:
        if pattern is None or isinstance(pattern, Var):
            continue
        con, sub_patterns = spine(pattern)
        known = case_arity.get(con.name)
        if known is None:
            case_arity[con.name] = len(sub_patterns)
            case_order.append(con.name)
        elif known != len(sub_patterns):
            raise MatchCompilationDeclined(
                f"{head}: constructor {con.name} is matched at two arities"
            )
    cases: Dict[str, Tuple[int, tuple]] = {}
    for constructor in case_order:
        nargs = case_arity[constructor]
        sub_rows = []
        for row_columns, row_bindings, row_rhs in rows:
            new_row = _specialise(row_columns, row_bindings, occurrence, constructor, nargs)
            if new_row is not None:
                sub_rows.append((new_row[0], new_row[1], row_rhs))
        cases[constructor] = (nargs, _compile_matrix(head, sub_rows))
    default_rows = []
    for (row_columns, row_bindings, row_rhs), pattern in zip(rows, at_split):
        if pattern is None or isinstance(pattern, Var):
            new_bindings = dict(row_bindings)
            if pattern is not None:
                new_bindings[pattern.name] = occurrence
            new_columns = [(o, p) for o, p in row_columns if o != occurrence]
            default_rows.append((new_columns, new_bindings, row_rhs))
    default = _compile_matrix(head, default_rows) if default_rows else None
    return (SWITCH, occurrence, cases, default)


def _specialise(columns, bindings, occurrence, constructor: str, nargs: int):
    """One row specialised to ``constructor`` (of spine length ``nargs``) at
    ``occurrence``, or ``None`` when the row demands a different one."""
    new_columns = []
    new_bindings = dict(bindings)
    for column, pattern in columns:
        if column != occurrence:
            new_columns.append((column, pattern))
            continue
        if pattern is None or isinstance(pattern, Var):
            if pattern is not None:
                new_bindings[pattern.name] = column
            for index in range(nargs):
                new_columns.append((column + (index,), None))
            continue
        con, sub_patterns = spine(pattern)
        if con.name != constructor or len(sub_patterns) != nargs:
            return None
        for index, sub_pattern in enumerate(sub_patterns):
            new_columns.append((column + (index,), sub_pattern))
    return new_columns, new_bindings
