"""Predicate and projection compilation for the mini engine.

The interpreted evaluator (:mod:`repro.predicates.evaluate`) walks the AST
for every row, re-dispatching on node types and allocating a fresh lookup
closure per tuple. This module lowers a *resolved* expression once per
query into closed-over Python lambdas: column references become captured
``(binding_key, column_index)`` pairs (or a bare row index on the
single-relation push-down and projection paths), literals become captured
constants, and the boolean connectives become small closures implementing
the same SQL three-valued logic. Per row, evaluation is then just nested calls — no AST
walk, no dict-of-lookup allocation.

Semantics are intentionally *shared* with the interpreter: the comparison,
LIKE and three-valued helpers are imported from
:mod:`repro.predicates.evaluate` rather than re-implemented, so the
compiled path cannot drift on NULL or mixed-type behaviour. The
interpreter stays as the executable oracle; ``tools/fuzz_engine.py``
differentially checks the two paths (and SQLite) on random queries.

The compiled path is what the engine runs; there is no process-wide
switch. The oracle is reached per call, ``execute_query(...,
compiled=False)``, which is all the fuzzers and differential tests use.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.predicates.evaluate import _and3, _compare, _like_regex, _negate3
from repro.sqlparser import ast

#: An intermediate tuple: binding key -> source row (matches evaluate._Env).
Env = Dict[str, Tuple[object, ...]]

#: Maps (binding key, lower-cased column name) -> column index.
IndexMap = Dict[Tuple[str, str], int]

_TruthValue = Optional[bool]

# -- reference lowering ------------------------------------------------------
#
# A "ref maker" turns a resolved ColumnRef into a value getter over some
# carrier. Two carriers exist: the env dict used by the join pipeline, and a
# bare row tuple used by single-relation push-down scans and by the
# projection of an output binding's rows.


def _env_ref_maker(index_of: IndexMap) -> Callable[[ast.ColumnRef], Callable[[Env], object]]:
    def make(ref: ast.ColumnRef) -> Callable[[Env], object]:
        key = ref.binding_key
        if key is None:
            raise EngineError(f"unresolved column {ref.display()!r}")
        index = index_of[(key, ref.name.lower())]
        return lambda env: env[key][index]

    return make


def _row_ref_maker(
    binding_key: str, index_of: IndexMap
) -> Callable[[ast.ColumnRef], Callable[[Tuple[object, ...]], object]]:
    def make(ref: ast.ColumnRef) -> Callable[[Tuple[object, ...]], object]:
        key = ref.binding_key
        if key is None:
            raise EngineError(f"unresolved column {ref.display()!r}")
        if key != binding_key:
            raise EngineError(
                f"column {ref.display()!r} binds to {key!r}, not the scanned "
                f"relation {binding_key!r}"
            )
        index = index_of[(key, ref.name.lower())]
        return lambda row: row[index]

    return make


# -- scalar compilation ------------------------------------------------------


def _compile_scalar(expr: ast.Expr, ref_maker) -> Callable:
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda carrier: value
    if isinstance(expr, ast.ColumnRef):
        return ref_maker(expr)
    raise EngineError(f"cannot evaluate scalar expression {expr!r}")


# -- truth compilation (SQL three-valued logic) ------------------------------


def _in_list_generic(value, literal_values, negated) -> _TruthValue:
    """The interpreter's IN loop for a non-NULL ``value`` (3VL over
    literals among which is NULL)."""
    saw_unknown = False
    for literal in literal_values:
        truth = _compare("=", value, literal)
        if truth is True:
            return False if negated else True
        if truth is None:
            saw_unknown = True
    if saw_unknown:
        return None
    return True if negated else False


def _compile_truth(expr: ast.Expr, ref_maker) -> Callable:
    if isinstance(expr, ast.Literal):
        value = expr.value
        if value is None:
            return lambda carrier: None
        if isinstance(value, bool):
            return lambda carrier: value
        raise EngineError(f"non-boolean literal {value!r} used as a predicate")
    if isinstance(expr, ast.And):
        items = [_compile_truth(item, ref_maker) for item in expr.items]

        def conj(carrier) -> _TruthValue:
            saw_unknown = False
            for item in items:
                truth = item(carrier)
                if truth is False:
                    return False
                if truth is None:
                    saw_unknown = True
            return None if saw_unknown else True

        return conj
    if isinstance(expr, ast.Or):
        items = [_compile_truth(item, ref_maker) for item in expr.items]

        def disj(carrier) -> _TruthValue:
            saw_unknown = False
            for item in items:
                truth = item(carrier)
                if truth is True:
                    return True
                if truth is None:
                    saw_unknown = True
            return None if saw_unknown else False

        return disj
    if isinstance(expr, ast.Not):
        inner = _compile_truth(expr.expr, ref_maker)

        def negation(carrier) -> _TruthValue:
            truth = inner(carrier)
            if truth is None:
                return None
            return not truth

        return negation
    if isinstance(expr, ast.Comparison):
        op = expr.op
        left = _compile_scalar(expr.left, ref_maker)
        right = _compile_scalar(expr.right, ref_maker)
        return lambda carrier: _compare(op, left(carrier), right(carrier))
    if isinstance(expr, ast.InList):
        value_fn = _compile_scalar(expr.expr, ref_maker)
        literal_values = [literal.value for literal in expr.values]
        negated = expr.negated

        if None not in literal_values:
            # Common case: no NULL literal. ``_compare("=")`` is then Python
            # equality (numbers compare numerically and hash consistently, and
            # a number never equals a string), so per-row evaluation is one
            # set membership test.
            members = frozenset(literal_values)

            def in_set(carrier) -> _TruthValue:
                value = value_fn(carrier)
                if value is None:
                    return None
                found = value in members
                return (not found) if negated else found

            return in_set

        def in_list(carrier) -> _TruthValue:
            value = value_fn(carrier)
            if value is None:
                return None
            return _in_list_generic(value, literal_values, negated)

        return in_list
    if isinstance(expr, ast.Between):
        value_fn = _compile_scalar(expr.expr, ref_maker)
        low_fn = _compile_scalar(expr.low, ref_maker)
        high_fn = _compile_scalar(expr.high, ref_maker)
        negated = expr.negated

        def between(carrier) -> _TruthValue:
            value = value_fn(carrier)
            truth = _and3(
                _compare(">=", value, low_fn(carrier)),
                _compare("<=", value, high_fn(carrier)),
            )
            return _negate3(truth) if negated else truth

        return between
    if isinstance(expr, ast.Like):
        value_fn = _compile_scalar(expr.expr, ref_maker)
        regex = _like_regex(expr.pattern)
        negated = expr.negated

        def like(carrier) -> _TruthValue:
            value = value_fn(carrier)
            if value is None or not isinstance(value, str):
                return None
            matched = regex.fullmatch(value) is not None
            return (not matched) if negated else matched

        return like
    if isinstance(expr, ast.IsNull):
        value_fn = _compile_scalar(expr.expr, ref_maker)
        negated = expr.negated

        def is_null(carrier) -> _TruthValue:
            null = value_fn(carrier) is None
            return (not null) if negated else null

        return is_null
    raise EngineError(f"cannot evaluate expression {expr!r} as a predicate")


# -- public entry points -----------------------------------------------------


def compile_scalar(expr: ast.Expr, index_of: IndexMap) -> Callable[[Env], object]:
    """Lower a scalar (literal or resolved column ref) to ``f(env) -> value``."""
    return _compile_scalar(expr, _env_ref_maker(index_of))


def compile_truth(expr: ast.Expr, index_of: IndexMap) -> Callable[[Env], _TruthValue]:
    """Lower a predicate to ``f(env) -> True | False | None`` (SQL 3VL)."""
    return _compile_truth(expr, _env_ref_maker(index_of))


def compile_predicate(expr: ast.Expr, index_of: IndexMap) -> Callable[[Env], bool]:
    """Lower a predicate to ``f(env) -> bool`` with WHERE semantics
    (UNKNOWN collapses to False)."""
    truth = _compile_truth(expr, _env_ref_maker(index_of))
    return lambda env: truth(env) is True


def compile_row_predicate(
    expr: ast.Expr, binding_key: str, index_of: IndexMap
) -> Callable[[Tuple[object, ...]], bool]:
    """Lower a single-relation predicate to ``f(row) -> bool``.

    Used by the push-down scan: every column reference must bind to
    ``binding_key``, so the carrier is the bare row tuple and per-row env
    dict allocation disappears entirely.
    """
    truth = _compile_truth(expr, _row_ref_maker(binding_key, index_of))
    return lambda row: truth(row) is True


def compile_projection(
    exprs: Sequence[ast.Expr], index_of: IndexMap
) -> Callable[[Env], Tuple[object, ...]]:
    """Lower a list of scalar select expressions to ``f(env) -> row``."""
    getters: List[Callable[[Env], object]] = [
        compile_scalar(expr, index_of) for expr in exprs
    ]
    if len(getters) == 1:
        only = getters[0]
        return lambda env: (only(env),)
    return lambda env: tuple(getter(env) for getter in getters)


def compile_row_projection(
    exprs: Sequence[ast.Expr], binding_key: str, index_of: IndexMap
) -> Optional[Callable[[Tuple[object, ...]], Tuple[object, ...]]]:
    """Lower select expressions over one relation to ``f(row) -> row`` (the
    executor's output-binding path: the carrier is the bare row tuple), or
    ``None`` when they are all of its columns in schema order: the row is
    its own output, passed through."""
    if all(isinstance(expr, ast.ColumnRef) for expr in exprs):
        # Plain columns: the output row is one C-level fetch of their positions.
        at = [index_of[(binding_key, expr.name.lower())] for expr in exprs]
        if at == list(range(sum(key == binding_key for key, _ in index_of))):
            return None
        if len(at) > 1:
            return itemgetter(*at)
    getters = [_compile_scalar(expr, _row_ref_maker(binding_key, index_of)) for expr in exprs]
    if len(getters) == 1:
        only = getters[0]
        return lambda row: (only(row),)
    return lambda row: tuple(getter(row) for getter in getters)


__all__ = [
    "compile_scalar",
    "compile_truth",
    "compile_predicate",
    "compile_row_predicate",
    "compile_projection",
    "compile_row_projection",
]
