"""Compiled ground evaluation: decision trees + closure-compiled expressions.

The generic :class:`~repro.rewriting.reduction.Normalizer` answers "what is the
normal form of this term?" for *any* term, by scanning every position against a
rule index and matching pattern against subterm generically.  Ground
falsification asks a much narrower question — "what constructor value does this
closed term compute to?" — millions of times, and pays the generic machinery's
price on every single instance: substitute the instance into the equation
(allocating terms), find redexes, match, substitute again.

This module compiles the program once and then answers the narrow question
directly:

* Each defined function's rewrite rules become one **pattern-match decision
  tree**, the one :mod:`repro.rewriting.matchtree` builds for the prover's
  normaliser too, lowered here to leaves that bind variable slots and name
  the compiled right-hand side.  Matching a call is then a handful of tuple
  indexing operations — no rule index lookups, no generic matching, no
  substitution objects.
* Ground **values** are plain Python tuples ``(constructor, arg_value, ...)``
  (partial applications are the rare :class:`Closure`), and they are
  **hash-consed** exactly like the term core: structurally equal values are
  the same object, equality is identity, and the per-function call memo —
  the evaluator's analogue of the normal-form cache — keys on argument
  object ids, never on deep structure.  No
  :class:`~repro.core.terms.Term` is ever allocated during evaluation.
* **Terms are compiled once, evaluated many times**: :meth:`Evaluator.compile`
  turns an open term into an expression over variable *slots* (with
  superinstructions for the common all-immediate and one-complex-child
  shapes, constant folding of closed subterms, and lazy *selector* functions
  like ``ite``), and one engine executes it: every expression becomes a
  Python closure riding the Python call stack.  Data too deep for that stack
  (``rev`` of a very long list) raises ``RecursionError``; the evaluation is
  then finished on the iterative
  :class:`~repro.rewriting.reduction.Normalizer` and its normal form read
  back as a canonical value (:meth:`Evaluator._deep`), so deep evaluations
  never die on Python's recursion limit and ordinary ones pay nothing.

The evaluator is deliberately partial: rules that the match-tree compiler
declines (non-uniform arities, non-constructor patterns, … — e.g. systems
mid-completion) raise :class:`CompilationError` at construction, and a call
with no matching rule raises :class:`StuckEvaluation` at run time.  Callers
(``check_equation``, the falsifier) catch both and fall back to the
normaliser, so compiled evaluation is a fast path, never a semantics change.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..core.exceptions import CycleQError, RewriteError
from ..core.substitution import Substitution
from ..core.terms import Sym, Term, Var, apply_term, spine
from ..rewriting.matchtree import FAIL, LEAF, MatchCompilationDeclined, compile_head
from ..rewriting.reduction import Normalizer
from ..rewriting.trs import RewriteSystem

__all__ = [
    "Evaluator",
    "EvaluationSession",
    "Closure",
    "Value",
    "CompilationError",
    "EvaluationError",
    "StuckEvaluation",
    "value_to_term",
    "render_value",
    "DEFAULT_MAX_CALLS",
    "TEST_AGREE",
    "TEST_DISAGREE",
    "TEST_PREMISE_SKIP",
    "TEST_STUCK",
]

# Verdicts of one EvaluationSession.test: the instance satisfied the
# conjecture, refuted it, failed a conditional premise, or proved nothing
# (stuck / over budget).
TEST_AGREE, TEST_DISAGREE, TEST_PREMISE_SKIP, TEST_STUCK = range(4)

DEFAULT_MAX_CALLS = 1_000_000
"""Default budget on function-call reductions per :meth:`Evaluator.run`.

The analogue of the normaliser's ``max_steps``: exceeding it signals a
(practically) non-terminating definition, outside the paper's standing
assumptions, and raises :class:`EvaluationError` rather than hanging.
"""


class CompilationError(CycleQError):
    """The rewrite system is outside the compilable functional fragment."""


class EvaluationError(CycleQError):
    """Evaluation failed at run time (call budget exhausted, unbound slot, ...)."""


class StuckEvaluation(EvaluationError):
    """A call reached no leaf: the function is not defined on this value."""


class Closure:
    """A partially applied symbol: a function (or constructor) awaiting arguments.

    Closures only arise from higher-order programs (``map (add (S Z)) xs``);
    first-order evaluation never allocates one.  They compare by symbol and
    collected arguments, which matches the syntactic equality the normaliser
    would report for the corresponding partially-applied normal forms.
    """

    __slots__ = ("symbol", "arity", "args", "is_constructor")

    def __init__(self, symbol: str, arity: int, args: Tuple["Value", ...], is_constructor: bool):
        self.symbol = symbol
        self.arity = arity
        self.args = args
        self.is_constructor = is_constructor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Closure):
            return NotImplemented
        return self.symbol == other.symbol and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.symbol, self.args))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Closure({self.symbol}, {len(self.args)}/{self.arity})"


Value = Union[tuple, Closure]
"""A ground value: ``(constructor_name, arg_value, ...)`` or a :class:`Closure`."""


def value_to_term(value: Value) -> Term:
    """Rebuild the constructor :class:`~repro.core.terms.Term` of a value.

    Iterative (explicit stack), so arbitrarily deep values are safe.  The
    resulting term lives in the ambient bank, like any other constructed term.
    """
    if isinstance(value, Closure):
        return apply_term(Sym(value.symbol), *(value_to_term(a) for a in value.args))
    # Post-order over the value tree without recursion.
    done: Dict[int, Term] = {}
    stack: List[Tuple[Value, bool]] = [(value, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Closure):
            done[id(node)] = apply_term(
                Sym(node.symbol), *(value_to_term(a) for a in node.args)
            )
            continue
        if expanded:
            done[id(node)] = apply_term(Sym(node[0]), *(done[id(a)] for a in node[1:]))
            continue
        stack.append((node, True))
        for arg in node[1:]:
            stack.append((arg, False))
    return done[id(value)]


def render_value(value: Value) -> str:
    """Render a value as surface-language source, parseable by ``parse_term``.

    Iterative (explicit stack), so arbitrarily deep values render safely.
    """
    parts: List[str] = []
    stack: List[object] = [(value, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node, parenthesise = item
        if isinstance(node, Closure):
            name, args = node.symbol, node.args
        else:
            name, args = node[0], node[1:]
        if not args:
            parts.append(name)
            continue
        pieces: List[object] = ["(" if parenthesise else "", name]
        for arg in args:
            arg_atomic = not (arg.args if isinstance(arg, Closure) else arg[1:])
            pieces.append(" ")
            pieces.append((arg, not arg_atomic))
        if parenthesise:
            pieces.append(")")
        for piece in reversed(pieces):
            if piece != "":
                stack.append(piece)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Compiled expressions and decision trees
# ---------------------------------------------------------------------------
#
# Expressions are nested tuples tagged by small integers:
#   (E_VAR, slot)                      environment lookup
#   (E_LIT, value)                     closed subexpression, folded at compile time
#   (E_CON, name, children, simple)    saturated constructor application
#   (E_CALL, name, children, simple)   saturated defined-function call
#   (E_PAPP, name, arity, is_con, children)   under-applied symbol -> Closure
#   (E_APPLY, fun_expr, children)      application of a non-symbol head
#
# `simple` is a superinstruction: when every child is a variable or a folded
# literal (the overwhelmingly common shape — recursive calls like `add x y`,
# result cells like `Cons x (…)` are built around them), it holds a tuple of
# ``(is_var, slot_or_value)`` pairs and the closure builds the arguments in
# one pass instead of calling one child closure per argument.
#
# The one-complex-child variants cover the other dominant shape, the
# structural-recursion cell (`S (add x y)`, `Cons x (app xs ys)`): only the
# complex child gets a closure, the immediate siblings are read in place:
#   (E_CON1, name, spec, complex_expr, pos)
#   (E_CALL1, name, spec, complex_expr, pos)
# where `spec` holds the immediate children as ``(is_var, slot_or_value)``
# pairs in order (excluding the complex one) and `pos` is the complex child's
# argument position.
#
# Decision trees are :mod:`repro.rewriting.matchtree` trees lowered for ground
# values (same occurrences, no spine lengths):
#   (T_LEAF, fetchers, rhs_expr)       fetchers: the leaf's occurrences in
#                                      binding order, rhs compiled against
#                                      exactly those slots
#   (T_SWITCH, path, cases, default)   cases: {constructor: subtree}
#   (T_FAIL,)                          no rule matches: stuck
#
# Child j of an occurrence is value[j + 1]: slot 0 holds the constructor tag.

E_VAR, E_CON, E_CALL, E_PAPP, E_APPLY, E_LIT, E_CON1, E_CALL1 = 0, 1, 2, 3, 4, 5, 6, 7
T_LEAF, T_SWITCH, T_FAIL = 0, 1, 2


class Evaluator:
    """A ground evaluator compiled from one rewrite system.

    Construction compiles every defined function's rules into a decision tree
    and records symbol arities; it raises :class:`CompilationError` when the
    system falls outside the functional fragment.  The instance is immutable
    with respect to the rules: like the normaliser's cache, it is only sound
    for a fixed rewrite system.
    """

    def __init__(self, signature, rules: Iterable, max_calls: int = DEFAULT_MAX_CALLS):
        self.signature = signature
        self.max_calls = max_calls
        self.calls_made = 0
        """Total function-call reductions performed (across all ``run`` calls)."""

        # Values are *hash-consed*, exactly like the term core: `_intern` maps
        # ``(constructor, id(child), ...)`` to the canonical value tuple, so
        # building a node is one small-tuple probe, structurally equal values
        # are the same object, and equality is identity.  `_canon` registers
        # every canonical object by ``id`` (the O(1) "is this already
        # canonical?" test for values entering from outside, e.g. from the
        # generators).  Both tables hold strong references, which is what
        # makes ``id``-based memo keys sound: an id in a key always denotes an
        # object the evaluator keeps alive.  Like the normaliser's cache and
        # the term bank, the tables grow with the distinct values seen and are
        # only emptied explicitly (:meth:`clear_caches`).
        self._intern: Dict[tuple, Value] = {}
        self._canon: Dict[int, Value] = {}
        #: Compile-time literal values, pinned so their ids stay valid in memo
        #: keys even if every compiled expression referencing them is dropped.
        self._literals: List[Value] = []
        self._con_arity: Dict[str, int] = {
            name: signature.arity(name) for name in signature.constructors
        }
        #: The rules in declaration order, and (built on first use) the
        #: normaliser over them that finishes deep evaluations (:meth:`_deep`).
        self._rules = tuple(rules)
        self._deep_normalizer: Optional[Normalizer] = None
        grouped: Dict[str, List] = {}
        for rule in self._rules:
            grouped.setdefault(rule.head, []).append(rule)
        self._fn_arity: Dict[str, int] = {}
        self._trees: Dict[str, tuple] = {}
        # Per-expression Python closures (keyed by the expression object's id;
        # `_expr_pins` keeps those ids valid).  Closures recurse on the Python
        # stack; a RecursionError on pathologically deep data hands the
        # evaluation to the normaliser (:meth:`_deep`).
        self._expr_fns: Dict[int, Callable] = {}
        self._expr_pins: List[tuple] = []
        self._fn_table: Dict[str, Callable] = {}
        self._fn_memos: Dict[str, dict] = {}
        self._selector_cache: Dict[str, object] = {}
        #: Compiled expressions by ``(id(term), slots)``, each stored with its
        #: term so the id stays valid.  Hash-consed terms make the same term
        #: the same object, so compiling it again (every falsification of a
        #: goal compiles its sides) returns the same expression, and with it
        #: the same pinned closure, instead of pinning a fresh one each time.
        self._compiled: Dict[tuple, Tuple[Term, tuple]] = {}
        #: Source term and ``(name, slot)`` pairs of each compiled expression,
        #: by ``id`` (the expression is pinned by `_compiled`), for
        #: :meth:`_deep`.
        self._sources: Dict[int, Tuple[Term, Tuple[Tuple[str, int], ...]]] = {}
        #: Instance streams memoised by
        #: :func:`repro.semantics.generators.instance_stream`, keyed by the
        #: variables' concretised types and the stream parameters.  Their
        #: values are canonical in this evaluator's intern tables, so
        #: :meth:`clear_caches` drops them too.  Like every table here, not
        #: thread-safe.
        self.stream_memo: Dict[tuple, object] = {}
        self._remaining = max_calls
        # Every arity is known before the first right-hand side compiles, so
        # a rule may call (or partially apply) a function declared after it.
        trees = {}
        for name, fn_rules in grouped.items():
            try:
                self._fn_arity[name], trees[name] = compile_head(name, fn_rules, signature)
            except MatchCompilationDeclined as declined:
                raise CompilationError(str(declined)) from declined
        for name, tree in trees.items():
            self._trees[name] = self._lower(tree)

    @classmethod
    def for_program(cls, program) -> "Evaluator":
        """The (cached) evaluator of a :class:`~repro.program.Program`.

        The cache is keyed by the program's rule-list length so that programs
        mutated in place (rules added during induction) recompile rather than
        serve stale trees.
        """
        cached = getattr(program, "_evaluator_cache", None)
        token = len(program.rules.rules)
        if cached is not None and cached[0] == token:
            return cached[1]
        evaluator = cls(program.signature, program.rules.rules)
        program._evaluator_cache = (token, evaluator)
        return evaluator

    # -- value interning ------------------------------------------------------

    def _mk_con(self, name: str, args: Tuple["Value", ...]) -> tuple:
        """The canonical constructor value ``name(args)`` (args already canonical)."""
        n = len(args)
        if n == 1:
            key = (name, id(args[0]))
        elif n == 2:
            key = (name, id(args[0]), id(args[1]))
        else:
            key = (name,) + tuple(map(id, args))
        value = self._intern.get(key)
        if value is None:
            value = (name,) + args
            self._intern[key] = value
            self._canon[id(value)] = value
        return value

    #: Public name of the constructor interning, for value builders outside
    #: the evaluator: the falsifier's random instances are built through it
    #: node by node, so they arrive canonical and skip :meth:`intern_value`.
    make_constructor = _mk_con

    def _mk_closure(
        self, symbol: str, arity: int, args: Tuple["Value", ...], is_constructor: bool
    ) -> Closure:
        """The canonical closure of ``symbol`` over canonical ``args``."""
        # "\x00" cannot start a constructor name, so closure keys never
        # collide with constructor keys.
        key = ("\x00closure", symbol) + tuple(map(id, args))
        value = self._intern.get(key)
        if value is None:
            value = Closure(symbol, arity, args, is_constructor)
            self._intern[key] = value
            self._canon[id(value)] = value
        return value

    def intern_value(self, value: "Value") -> "Value":
        """The canonical representative of an externally built value.

        Values produced by the evaluator are canonical already (O(1) re-check);
        foreign values — e.g. from :mod:`repro.semantics.generators` — are
        walked bottom-up, iteratively.
        """
        canon = self._canon
        if canon.get(id(value)) is value:
            return value
        done: Dict[int, Value] = {}
        stack: List[Tuple[Value, bool]] = [(value, False)]
        while stack:
            node, expanded = stack.pop()
            if canon.get(id(node)) is node:
                done[id(node)] = node
                continue
            children = node.args if isinstance(node, Closure) else node[1:]
            if expanded:
                canonical_children = tuple(done[id(child)] for child in children)
                if isinstance(node, Closure):
                    done[id(node)] = self._mk_closure(
                        node.symbol, node.arity, canonical_children, node.is_constructor
                    )
                else:
                    done[id(node)] = self._mk_con(node[0], canonical_children)
                continue
            stack.append((node, True))
            for child in children:
                stack.append((child, False))
        return done[id(value)]

    def clear_caches(self) -> None:
        """Empty the intern tables, the call memo and the stream memo together.

        The overflow path's normaliser (:meth:`_deep`) goes too; its cache
        holds terms, not values, so only to free memory.

        They must go together: memo keys hold ``id``s of interned objects, so
        clearing one without the other could let a recycled id alias a stale
        entry, and a memoised instance stream holds values that would no
        longer be canonical (identity would stop meaning equality).  Compiled
        expressions stay valid: their pinned literals are registered again as
        the canonical values, so a value built afterwards is identical to an
        equal literal (without that, ``Nil`` built by an instance would no
        longer be the ``Nil`` a compiled side returns, and the two would
        compare unequal).
        """
        self._intern.clear()
        self._canon.clear()
        for memo in self._fn_memos.values():
            memo.clear()
        self.stream_memo.clear()
        self._deep_normalizer = None
        for literal in self._literals:
            self._register_canonical(literal)

    def _register_canonical(self, value: "Value") -> None:
        """Make ``value`` and its sub-values canonical again, as they are.

        Only for values that were canonical before the tables were emptied:
        such values are a DAG without structural duplicates, so registering
        them keeps "structurally equal means identical".
        """
        stack: List[Tuple[Value, bool]] = [(value, False)]
        canon = self._canon
        while stack:
            node, expanded = stack.pop()
            if canon.get(id(node)) is node:
                continue
            if isinstance(node, Closure):
                children = node.args
                key = ("\x00closure", node.symbol) + tuple(map(id, children))
            else:
                children = node[1:]
                key = (node[0],) + tuple(map(id, children))
            if not expanded:
                stack.append((node, True))
                stack.extend((child, False) for child in children)
                continue
            self._intern[key] = node
            canon[id(node)] = node

    # -- closure compilation --------------------------------------------------
    #
    # Every compiled expression gets a Python closure `env -> value`:
    # constructor cells close over `_mk_con`, calls close over their callee's
    # compiled function closure (`_fn_of_function`), and recursion rides the
    # Python call stack.

    def _fn_for_expr(self, expr: tuple) -> Callable:
        """The (cached) closure of a compiled expression."""
        fn = self._expr_fns.get(id(expr))
        if fn is None:
            fn = self._build_fn(expr)
            self._expr_fns[id(expr)] = fn
            self._expr_pins.append(expr)
        return fn

    def _build_fn(self, expr: tuple) -> Callable:
        tag = expr[0]
        if tag == E_VAR:
            slot = expr[1]
            return lambda env: env[slot]
        if tag == E_LIT:
            value = expr[1]
            return lambda env: value
        mk_con = self._mk_con
        if tag == E_CON:
            name, _children, simple = expr[1], expr[2], expr[3]
            if simple is not None:
                return lambda env: mk_con(
                    name, tuple(env[x] if is_var else x for is_var, x in simple)
                )
            child_fns = tuple(self._build_fn(c) for c in expr[2])
            return lambda env: mk_con(name, tuple(f(env) for f in child_fns))
        if tag == E_CALL:
            name, _children, simple = expr[1], expr[2], expr[3]
            selector = self._selector_of(name)
            if selector is not None:
                child_fns = tuple(self._build_fn(c) for c in expr[2])
                return self._build_selector_fn(name, selector, child_fns)
            call_fn = self._fn_of_function(name)
            if simple is not None:
                return lambda env: call_fn(
                    tuple(env[x] if is_var else x for is_var, x in simple)
                )
            child_fns = tuple(self._build_fn(c) for c in expr[2])
            return lambda env: call_fn(tuple(f(env) for f in child_fns))
        if tag == E_CON1 or tag == E_CALL1:
            name, spec, complex_expr, pos = expr[1], expr[2], expr[3], expr[4]
            complex_fn = self._build_fn(complex_expr)
            if tag == E_CALL1:
                selector = self._selector_of(name)
                if selector is not None:
                    return self._build_selector_fn(
                        name, selector, self._one_complex_child_fns(spec, complex_fn, pos)
                    )
                finish = self._fn_of_function(name)
            else:
                mk = self._mk_con
                finish = lambda args: mk(name, args)

            def one_complex(env):
                args = [env[x] if is_var else x for is_var, x in spec]
                args.insert(pos, complex_fn(env))
                return finish(tuple(args))

            return one_complex
        if tag == E_PAPP:
            name, arity, is_constructor = expr[1], expr[2], expr[3]
            child_fns = tuple(self._build_fn(c) for c in expr[4])
            mk_closure = self._mk_closure
            return lambda env: mk_closure(
                name, arity, tuple(f(env) for f in child_fns), is_constructor
            )
        # E_APPLY
        fun_fn = self._build_fn(expr[1])
        child_fns = tuple(self._build_fn(c) for c in expr[2])
        apply_value = self._apply_value
        return lambda env: apply_value(fun_fn(env), tuple(f(env) for f in child_fns))

    @staticmethod
    def _one_complex_child_fns(spec, complex_fn: Callable, pos: int) -> Tuple[Callable, ...]:
        """Per-child closures of a one-complex-child call, in argument order."""
        child_fns: List[Callable] = []
        spec_iter = iter(spec)
        for index in range(len(spec) + 1):
            if index == pos:
                child_fns.append(complex_fn)
                continue
            is_var, payload = next(spec_iter)
            if is_var:
                child_fns.append(lambda env, _slot=payload: env[_slot])
            else:
                child_fns.append(lambda env, _value=payload: _value)
        return tuple(child_fns)

    def _build_selector_fn(self, name: str, selector, child_fns: Tuple[Callable, ...]) -> Callable:
        """Lazy call closure for a selector function (see :meth:`_selector_of`).

        A selector like ``ite`` — one constructor switch, every right-hand
        side a whole argument or a closed value — evaluates lazily: only the
        scrutinee and the *selected* branch argument are computed.  (The
        normaliser, which finishes deep evaluations, computes all arguments;
        on terminating programs the results agree, this path just skips the
        discarded branch.)
        """
        scrutinee_index, branch_table, default_target = selector
        scrutinee_fn = child_fns[scrutinee_index]

        def select(env):
            scrutinee = scrutinee_fn(env)
            if type(scrutinee) is not tuple:
                raise StuckEvaluation(
                    f"{name}: cannot case on partial application {scrutinee!r}"
                )
            branch = branch_table.get(scrutinee[0], default_target)
            if branch is None:
                raise StuckEvaluation(
                    f"{name} is not defined on constructor {scrutinee[0]}"
                )
            if type(branch) is int:
                return child_fns[branch](env)
            return branch[1]  # ("lit", value): constant branch

        return select

    def _fn_of_function(self, name: str) -> Callable:
        """The compiled closure of one defined function: ``args -> value``.

        Each function closes over its own decision tree and its own memo
        table (so unary calls key the memo by the argument's bare ``id``).
        ``clear_caches`` flushes these tables together with the intern pool.
        """
        fn = self._fn_table.get(name)
        if fn is not None:
            return fn
        memo = self._fn_memos.setdefault(name, {})
        evaluator = self
        holder: List[tuple] = []  # [closure-tree], filled after registration

        def call(args: Tuple["Value", ...]) -> "Value":
            n = len(args)
            if n == 1:
                key = id(args[0])
            elif n == 2:
                key = (id(args[0]), id(args[1]))
            else:
                key = tuple(map(id, args))
            cached = memo.get(key)
            if cached is not None:
                return cached
            remaining = evaluator._remaining - 1
            if remaining < 0:
                raise EvaluationError(
                    f"evaluation exceeded {evaluator.max_calls} calls "
                    f"(non-terminating definition of {name}?)"
                )
            evaluator._remaining = remaining
            node = holder[0]
            while node[0] == 1:  # switch
                path = node[1]
                if type(path) is int:
                    scrutinee = args[path]
                else:
                    scrutinee = args[path[0]]
                    for step in path[1:]:
                        scrutinee = scrutinee[step + 1]
                if type(scrutinee) is not tuple:
                    raise StuckEvaluation(
                        f"{name}: cannot case on partial application {scrutinee!r}"
                    )
                branch = node[2].get(scrutinee[0])
                if branch is None:
                    branch = node[3]
                if branch is None:
                    raise StuckEvaluation(
                        f"{name} is not defined on constructor {scrutinee[0]}"
                    )
                node = branch
            if node[0] == 2:  # fail
                raise StuckEvaluation(f"{name} has no rule matching its arguments")
            call_env = []
            for path in node[1]:
                if type(path) is int:
                    call_env.append(args[path])
                else:
                    value = args[path[0]]
                    for step in path[1:]:
                        value = value[step + 1]
                    call_env.append(value)
            result = node[2](call_env)
            memo[key] = result
            return result

        # Register before compiling the closure tree: leaf right-hand sides
        # may (mutually) recurse into this very function.
        self._fn_table[name] = call
        holder.append(self._compile_ctree(self._trees[name]))
        return call

    def _selector_of(self, name: str):
        """Selector shape of a function, or ``None``.

        A *selector* switches once on one whole argument and every branch
        returns another argument verbatim or a closed value (``ite``, ``and``,
        ``or``, projections).  Returns ``(scrutinee_arg, {constructor:
        target}, default target or None)`` — a target is an argument index or
        ``("lit", value)`` — when the decision tree has exactly that shape.
        """
        cached = self._selector_cache.get(name, False)
        if cached is not False:
            return cached
        result = None
        tree = self._trees.get(name)
        if tree is not None and tree[0] == T_SWITCH and len(tree[1]) == 1:
            scrutinee_index = tree[1][0]
            branch_table: Dict[str, object] = {}
            ok = True
            branches = list(tree[2].items()) + (
                [(None, tree[3])] if tree[3] is not None else []
            )
            default_target = None
            for constructor, subtree in branches:
                target = self._projected_target(subtree)
                if target is None:
                    ok = False
                    break
                if constructor is None:
                    default_target = target
                else:
                    branch_table[constructor] = target
            if ok and branch_table:
                result = (scrutinee_index, branch_table, default_target)
        self._selector_cache[name] = result
        return result

    @staticmethod
    def _projected_target(node: tuple):
        """What a leaf projects to: an argument index, ``("lit", v)``, or ``None``."""
        if node[0] != T_LEAF:
            return None
        fetchers, rhs_expr = node[1], node[2]
        if rhs_expr[0] == E_LIT:
            return ("lit", rhs_expr[1])
        if rhs_expr[0] != E_VAR:
            return None
        path = fetchers[rhs_expr[1]]
        return path[0] if len(path) == 1 else None

    def _compile_ctree(self, node: tuple) -> tuple:
        """Specialise a decision tree for the function closures.

        Leaves carry their right-hand side's compiled closure directly, and
        depth-1 occurrence paths (plain argument positions — the common case)
        are flattened to bare ints so the hot walk skips the path loop.
        """
        kind = node[0]
        if kind == T_LEAF:
            fetchers = tuple(
                path[0] if len(path) == 1 else path for path in node[1]
            )
            return (0, fetchers, self._fn_for_expr(node[2]))
        if kind == T_SWITCH:
            path = node[1][0] if len(node[1]) == 1 else node[1]
            cases = {
                constructor: self._compile_ctree(subtree)
                for constructor, subtree in node[2].items()
            }
            default = self._compile_ctree(node[3]) if node[3] is not None else None
            return (1, path, cases, default)
        return (2,)

    def _apply_value(self, fun: "Value", args: Tuple["Value", ...]) -> "Value":
        """Apply a (closure) value to arguments.

        Saturates the closure, evaluates, and re-applies any remaining
        arguments to the result (over-application loops, it does not recurse).
        """
        while args:
            if not isinstance(fun, Closure):
                raise StuckEvaluation(f"cannot apply constructor value {fun!r}")
            combined = fun.args + args
            arity = fun.arity
            if len(combined) < arity:
                return self._mk_closure(fun.symbol, arity, combined, fun.is_constructor)
            saturated, args = combined[:arity], combined[arity:]
            if fun.is_constructor:
                fun = self._mk_con(fun.symbol, saturated)
            else:
                fun = self._fn_of_function(fun.symbol)(saturated)
        return fun

    # -- compilation: decision trees -----------------------------------------

    def _lower(self, node: tuple) -> tuple:
        """A match tree without spine lengths, each leaf's right-hand side
        compiled over the leaf's bindings in binding order."""
        if node[0] == LEAF:
            _, bindings, rhs = node
            slots = {var: slot for slot, var in enumerate(bindings)}
            return (T_LEAF, tuple(bindings.values()), self.compile(rhs, slots))
        if node[0] == FAIL:
            return (T_FAIL,)
        _, occurrence, cases, default = node
        lowered = {con: self._lower(subtree) for con, (_, subtree) in cases.items()}
        return (T_SWITCH, occurrence, lowered, None if default is None else self._lower(default))

    # -- compilation: expressions --------------------------------------------

    def compile(self, term: Term, slots: Optional[Mapping[str, int]] = None) -> tuple:
        """Compile a term into an expression over the given variable slots.

        ``slots`` maps free-variable names to indices into the environment
        list later passed to :meth:`run`; a variable without a slot raises
        :class:`CompilationError` (the term could never be evaluated).

        Iterative post-order over the spine decomposition, memoised per shared
        node — deep ground terms compile without recursion, and DAG-shared
        subterms compile once.  The result is cached per term and slots.
        """
        slots = slots or {}
        key = (id(term),) + tuple(sorted(slots.items()))
        cached = self._compiled.get(key)
        if cached is not None:
            return cached[1]
        memo: Dict[int, tuple] = {}
        stack: List[Tuple[Term, bool]] = [(term, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in memo:
                continue
            head, args = spine(node)
            if not expanded:
                stack.append((node, True))
                for arg in args:
                    if id(arg) not in memo:
                        stack.append((arg, False))
                continue
            children = tuple(memo[id(arg)] for arg in args)
            memo[id(node)] = self._combine(head, children, slots)
        expr = memo[id(term)]
        self._compiled[key] = (term, expr)
        self._sources[id(expr)] = (term, key[1:])
        return expr

    def _combine(
        self, head: Term, children: Tuple[tuple, ...], slots: Mapping[str, int]
    ) -> tuple:
        """Build the expression node for a spine head over compiled children."""
        if isinstance(head, Var):
            if head.name not in slots:
                raise CompilationError(f"unbound variable {head.name}")
            var = (E_VAR, slots[head.name])
            return var if not children else (E_APPLY, var, children)
        if not isinstance(head, Sym):
            raise CompilationError(f"cannot compile term node {head!r}")
        name = head.name
        if name in self._con_arity:
            arity, is_constructor = self._con_arity[name], True
        elif name in self._fn_arity:
            arity, is_constructor = self._fn_arity[name], False
        elif self.signature.is_defined(name):
            # Declared but has no rules: every saturated call is stuck, which
            # the decision-tree lookup reports at run time.
            arity, is_constructor = len(children), False
            self._fn_arity[name] = arity
            self._trees[name] = (T_FAIL,)
        else:
            raise CompilationError(f"unknown symbol {name}")
        all_literal = all(c[0] == E_LIT for c in children)
        immediate = [c[0] in (E_VAR, E_LIT) for c in children]
        simple = (
            tuple((c[0] == E_VAR, c[1]) for c in children)
            if children and all(immediate)
            else None
        )
        # One-complex-child shape: spec of the immediate siblings + the
        # scheduled child's position.
        one_complex = None
        if children and not all(immediate) and sum(1 for i in immediate if not i) == 1:
            pos = immediate.index(False)
            spec = tuple(
                (c[0] == E_VAR, c[1]) for i, c in enumerate(children) if i != pos
            )
            one_complex = (spec, children[pos], pos)
        if len(children) == arity:
            if is_constructor:
                if all_literal:
                    # Closed constructor subexpression: fold to its canonical
                    # value now, so evaluation never revisits it.  Literals
                    # are pinned so their ids outlive the compiled expression.
                    literal = self._mk_con(name, tuple(c[1] for c in children))
                    self._literals.append(literal)
                    return (E_LIT, literal)
                if one_complex is not None:
                    return (E_CON1, name) + one_complex
                return (E_CON, name, children, simple)
            if one_complex is not None:
                return (E_CALL1, name) + one_complex
            return (E_CALL, name, children, simple)
        if len(children) < arity:
            if all_literal:
                literal = self._mk_closure(
                    name, arity, tuple(c[1] for c in children), is_constructor
                )
                self._literals.append(literal)
                return (E_LIT, literal)
            return (E_PAPP, name, arity, is_constructor, children)
        # Over-application (rare): no superinstruction, the generic path is fine.
        saturated = (
            (E_CON, name, children[:arity], None)
            if is_constructor
            else (E_CALL, name, children[:arity], None)
        )
        return (E_APPLY, saturated, children[arity:])

    # -- running compiled expressions -----------------------------------------

    def run(self, expr: tuple, env: Sequence[Value] = ()) -> Value:
        """Execute a compiled expression against an environment.

        The expression's closure runs on the Python call stack; data too deep
        for it finishes on the normaliser (:meth:`_deep`), so recursion depth
        is bounded by memory, not by ``sys.getrecursionlimit()``.  A call
        budget (:attr:`max_calls`) bounds runaway definitions.

        Calls are memoised: functions here are pure, so ``(function, argument
        values)`` determines the result, and the memo table plays the role the
        identity-keyed normal-form cache plays for the normaliser — recursive
        evaluations collapse to one table probe per previously seen call.
        Because values are hash-consed, memo keys are ``(name, id, id, ...)``
        tuples: probing costs O(arity) however large the arguments are, and
        the table persists across ``run`` invocations (it is sound for the
        fixed rule set; see :meth:`clear_caches`).

        Environment values are canonicalised on entry (an O(1) probe per
        variable for values that are canonical already), so the result of a
        ``run`` is always a canonical value: structural equality of two
        results is object identity.
        """
        canon = self._canon
        if env:
            env = [v if canon.get(id(v)) is v else self.intern_value(v) for v in env]
        self._remaining = self.max_calls
        try:
            result = self._fn_for_expr(expr)(env)
        except RecursionError:
            result = self._deep(expr, env)
        self.calls_made += self.max_calls - self._remaining
        return result

    def equal(self, lhs: tuple, rhs: tuple, env: Sequence[Value]) -> bool:
        """Do two compiled expressions evaluate to the same value under ``env``?

        The falsifier's inner test.  The environment must already be canonical
        (values produced by :meth:`intern_value`, :meth:`make_constructor` or
        the evaluator itself); because values are hash-consed, identity
        decides.  Like :meth:`run`, it finishes on the normaliser when the
        data is too deep for the Python stack.
        """
        self._remaining = self.max_calls
        try:
            fns = self._expr_fns
            lhs_fn = fns.get(id(lhs))
            if lhs_fn is None:
                lhs_fn = self._fn_for_expr(lhs)
            rhs_fn = fns.get(id(rhs))
            if rhs_fn is None:
                rhs_fn = self._fn_for_expr(rhs)
            result = lhs_fn(env) is rhs_fn(env)
        except RecursionError:
            result = self._deep(lhs, env) is self._deep(rhs, env)
        self.calls_made += self.max_calls - self._remaining
        return result

    def _deep(self, expr: tuple, env: Sequence[Value]) -> Value:
        """Evaluate ``expr`` under ``env`` on the normaliser.

        The overflow path, for data too deep for the Python stack.  The
        expression's source term, instantiated with the environment's values,
        is normalised by the iterative reference
        :class:`~repro.rewriting.reduction.Normalizer` (generic matching, no
        code shared with the closures), and the normal form is read back
        bottom-up as a canonical value, so it compares by identity with
        closure results.  The normaliser is strict: selectors evaluate their
        discarded branch here too.

        The call budget left over caps the normaliser's steps across every
        subterm (a per-root budget alone never stops ``f x = S (f x)``) and
        is charged what they spend, so the sides and premises of one instance
        share one budget.  The normaliser, like the call memo, lives as long
        as the evaluator: its normal-form cache carries the instance's values,
        and everything else already normalised, from one side and one
        instance to the next.
        """
        term, slots = self._sources[id(expr)]
        if slots:
            term = Substitution(
                {name: value_to_term(env[slot]) for name, slot in slots}
            ).apply(term)
        normalizer = self._deep_normalizer
        if normalizer is None:
            system = RewriteSystem(self.signature)
            system.extend(self._rules, validate=False)
            normalizer = self._deep_normalizer = Normalizer(system, compile_rules=False)
        start = normalizer.steps_taken
        normalizer.max_steps = self._remaining
        normalizer.max_total_steps = start + self._remaining
        try:
            normal_form = normalizer.normalize(term)
        except RewriteError as error:
            raise EvaluationError(
                f"evaluation exceeded {self.max_calls} calls on the normaliser "
                "(non-terminating definition?)"
            ) from error
        except RecursionError as error:
            raise EvaluationError(
                "evaluation overflowed the Python stack on the normaliser"
            ) from error
        finally:
            self._remaining = max(0, self._remaining - (normalizer.steps_taken - start))
        done: Dict[int, Value] = {}
        stack: List[Tuple[Term, bool]] = [(normal_form, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in done:
                continue
            head, args = spine(node)
            if not expanded:
                stack.append((node, True))
                stack.extend((arg, False) for arg in args)
                continue
            name = head.name if isinstance(head, Sym) else None
            if name in self._con_arity:
                arity, is_constructor = self._con_arity[name], True
            else:
                arity, is_constructor = self._fn_arity.get(name, 0), False
            values = tuple(done[id(arg)] for arg in args)
            if is_constructor and len(values) == arity:
                done[id(node)] = self._mk_con(name, values)
            elif len(values) < arity:
                done[id(node)] = self._mk_closure(name, arity, values, is_constructor)
            else:
                raise StuckEvaluation(f"{head} has no rule matching its arguments")
        return done[id(normal_form)]

    def session(
        self,
        lhs: tuple,
        rhs: tuple,
        premises: Sequence[Tuple[tuple, tuple]] = (),
    ) -> "EvaluationSession":
        """A batched test session for one conjecture (see :class:`EvaluationSession`).

        ``lhs``/``rhs``/``premises`` are compiled expressions (:meth:`compile`)
        sharing one slot layout; the session resolves their closure-compiled
        entry points once and then decides whole instances with a single call
        each — the falsifier's streaming loop."""
        return EvaluationSession(self, lhs, rhs, premises)

    # -- convenience ---------------------------------------------------------

    def evaluate(self, term: Term, env: Optional[Mapping[str, Value]] = None) -> Value:
        """Compile and run a term in one step.

        ``env`` optionally maps free-variable names to values; without it the
        term must be closed.  :meth:`compile` caches the expression, so the
        same (hash-consed) term re-evaluates without recompiling.
        """
        if env:
            names = sorted(env)
            slots = {name: index for index, name in enumerate(names)}
            expr = self.compile(term, slots)
            return self.run(expr, [env[name] for name in names])
        return self.run(self.compile(term), ())


class EvaluationSession:
    """One conjecture's compiled test, streamed over many instances.

    The falsifier used to make ``1 + len(premises)`` separate
    :meth:`Evaluator.equal` calls per instance, each resetting the call
    budget, re-resolving its expressions' entry points, and accounting its
    own spent calls.  A session does that set-up once — the closure-compiled
    entry points of both sides and of every premise are resolved at
    construction — and then :meth:`test` decides a whole instance with one
    call: premises first (a failed premise short-circuits), then the sides,
    all under **one shared call budget per instance** (``max_calls`` covers
    the instance, not each comparison separately — an instance that can blow
    the budget ``premises + 1`` times over proves nothing more than one that
    blows it once).

    Values are hash-consed, so every comparison is object identity, and the
    evaluator's memo tables carry work between instances exactly as they do
    between :meth:`~Evaluator.equal` calls.  Pathologically deep data that
    overflows the Python stack finishes on the normaliser with the budget the
    closure attempt left over; instances that get stuck or exhaust the budget
    return :data:`TEST_STUCK` and prove nothing either way.
    """

    __slots__ = (
        "evaluator",
        "_lhs",
        "_rhs",
        "_premises",
        "_lhs_fn",
        "_rhs_fn",
        "_premise_fns",
    )

    def __init__(
        self,
        evaluator: Evaluator,
        lhs: tuple,
        rhs: tuple,
        premises: Sequence[Tuple[tuple, tuple]] = (),
    ):
        self.evaluator = evaluator
        self._lhs = lhs
        self._rhs = rhs
        self._premises = tuple(premises)
        self._lhs_fn = evaluator._fn_for_expr(lhs)
        self._rhs_fn = evaluator._fn_for_expr(rhs)
        self._premise_fns = tuple(
            (evaluator._fn_for_expr(p_lhs), evaluator._fn_for_expr(p_rhs))
            for p_lhs, p_rhs in self._premises
        )

    def test(self, env: Sequence[Value]) -> int:
        """Decide one instance: a ``TEST_*`` verdict.

        ``env`` must be canonical values in the session's slot layout (the
        instance stream's ``evaluator=`` contract).
        """
        evaluator = self.evaluator
        evaluator._remaining = evaluator.max_calls
        try:
            try:
                for premise_lhs_fn, premise_rhs_fn in self._premise_fns:
                    if premise_lhs_fn(env) is not premise_rhs_fn(env):
                        return TEST_PREMISE_SKIP
                if self._lhs_fn(env) is self._rhs_fn(env):
                    return TEST_AGREE
                return TEST_DISAGREE
            except RecursionError:
                return self._test_deep(env)
        except EvaluationError:
            return TEST_STUCK
        finally:
            evaluator.calls_made += evaluator.max_calls - evaluator._remaining

    def _test_deep(self, env: Sequence[Value]) -> int:
        """Decide one instance on the normaliser (:meth:`Evaluator._deep`).

        Entered when the closure attempt overflowed the Python stack; decides
        premises first, as :meth:`test` does, under the *remaining* instance
        budget.
        """
        deep = self.evaluator._deep
        for premise_lhs, premise_rhs in self._premises:
            if deep(premise_lhs, env) is not deep(premise_rhs, env):
                return TEST_PREMISE_SKIP
        return TEST_AGREE if deep(self._lhs, env) is deep(self._rhs, env) else TEST_DISAGREE
