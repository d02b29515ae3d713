"""SQL three-valued evaluation of predicate trees.

``evaluate_truth`` returns ``True``, ``False`` or ``None`` (SQL UNKNOWN);
``evaluate_predicate`` collapses UNKNOWN to ``False``, which is the WHERE
clause behaviour (rows for which the predicate is UNKNOWN are filtered out).

Values are compared with SQL semantics over our value model, the values
SQLite stores (the parser reads TRUE as ``1``, and the memory engine stores
a bool as its integer and NaN as NULL), so ``=`` is Python's ``==``:

* ``None`` is NULL — any comparison involving it is UNKNOWN;
* numbers compare numerically (``1 == 1.0``);
* strings compare lexicographically;
* a number never equals a string, and ordering the two is UNKNOWN (SQLite
  would order by storage class; refusing keeps the relevance analysis
  conservative).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Optional

from repro.errors import EngineError
from repro.sqlparser import ast

#: A lookup mapping a resolved ColumnRef to its value in the current tuple.
ValueLookup = Callable[[ast.ColumnRef], object]

_TruthValue = Optional[bool]


def evaluate_predicate(expr: ast.Expr, lookup: ValueLookup) -> bool:
    """Evaluate ``expr``; UNKNOWN collapses to ``False`` (WHERE semantics)."""
    return evaluate_truth(expr, lookup) is True


def evaluate_truth(expr: ast.Expr, lookup: ValueLookup) -> _TruthValue:
    """Evaluate ``expr`` under SQL three-valued logic."""
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return None
        if isinstance(expr.value, bool):
            return expr.value
        raise EngineError(f"non-boolean literal {expr.value!r} used as a predicate")
    if isinstance(expr, ast.And):
        saw_unknown = False
        for item in expr.items:
            truth = evaluate_truth(item, lookup)
            if truth is False:
                return False
            if truth is None:
                saw_unknown = True
        return None if saw_unknown else True
    if isinstance(expr, ast.Or):
        saw_unknown = False
        for item in expr.items:
            truth = evaluate_truth(item, lookup)
            if truth is True:
                return True
            if truth is None:
                saw_unknown = True
        return None if saw_unknown else False
    if isinstance(expr, ast.Not):
        truth = evaluate_truth(expr.expr, lookup)
        if truth is None:
            return None
        return not truth
    if isinstance(expr, ast.Comparison):
        return _compare(expr.op, _scalar(expr.left, lookup), _scalar(expr.right, lookup))
    if isinstance(expr, ast.InList):
        return _in_list(expr, lookup)
    if isinstance(expr, ast.Between):
        value = _scalar(expr.expr, lookup)
        low = _scalar(expr.low, lookup)
        high = _scalar(expr.high, lookup)
        lower = _compare(">=", value, low)
        upper = _compare("<=", value, high)
        truth = _and3(lower, upper)
        return _negate3(truth) if expr.negated else truth
    if isinstance(expr, ast.Like):
        value = _scalar(expr.expr, lookup)
        if value is None:
            return None
        if not isinstance(value, str):
            return None
        matched = like_match(expr.pattern, value)
        return (not matched) if expr.negated else matched
    if isinstance(expr, ast.IsNull):
        value = _scalar(expr.expr, lookup)
        is_null = value is None
        return (not is_null) if expr.negated else is_null
    raise EngineError(f"cannot evaluate expression {expr!r} as a predicate")


def _scalar(expr: ast.Expr, lookup: ValueLookup) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return lookup(expr)
    raise EngineError(f"cannot evaluate scalar expression {expr!r}")


def _comparable(a: object, b: object) -> bool:
    numbers = isinstance(a, (int, float)) and isinstance(b, (int, float))
    return numbers or (isinstance(a, str) and isinstance(b, str))


def _compare(op: str, left: object, right: object) -> _TruthValue:
    if left is None or right is None:
        return None
    if not _comparable(left, right):
        # A number and a string: ``=`` / ``<>`` answer as ``==`` does, and as
        # SQLite does where no column affinity converts one of them; an
        # ordering between them is UNKNOWN.
        if op == "=":
            return False
        if op == "<>":
            return True
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise EngineError(f"unknown comparison operator {op!r}")


def _in_list(expr: ast.InList, lookup: ValueLookup) -> _TruthValue:
    value = _scalar(expr.expr, lookup)
    if value is None:
        return None
    saw_unknown = False
    for literal in expr.values:
        truth = _compare("=", value, literal.value)
        if truth is True:
            return False if expr.negated else True
        if truth is None:
            saw_unknown = True
    if saw_unknown:
        return None
    return True if expr.negated else False


def _and3(a: _TruthValue, b: _TruthValue) -> _TruthValue:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def _negate3(a: _TruthValue) -> _TruthValue:
    if a is None:
        return None
    return not a


@lru_cache(maxsize=1024)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """Compile a SQL LIKE pattern (``%`` any run, ``_`` one char) to a regex."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("".join(out), re.DOTALL)


def like_match(pattern: str, value: str) -> bool:
    """SQL LIKE matching (case-sensitive, as in PostgreSQL)."""
    return _like_regex(pattern).fullmatch(value) is not None
