"""Render AST nodes back to SQL text.

The recency-query generator builds new :class:`~repro.sqlparser.ast.Query`
trees and then prints them through this module to obtain SQL it can hand to
any backend. Printing is deterministic, fully parenthesized around OR groups
and round-trips through the parser (``parse(print(q)) == q`` up to resolver
annotations).
"""

from __future__ import annotations

import math

from repro.errors import UnsupportedQueryError
from repro.sqlparser import ast


def to_sql(query: ast.Query) -> str:
    """Render a full query."""
    parts = ["SELECT"]
    if query.distinct:
        parts.append("DISTINCT")
    parts.append(", ".join(_select_item_to_sql(item) for item in query.select_items))
    parts.append("FROM")
    parts.append(", ".join(_table_ref_to_sql(t) for t in query.tables))
    if query.where is not None:
        parts.append("WHERE")
        parts.append(expr_to_sql(query.where))
    if query.group_by:
        parts.append("GROUP BY")
        parts.append(", ".join(expr_to_sql(e) for e in query.group_by))
    if query.order_by:
        parts.append("ORDER BY")
        parts.append(
            ", ".join(
                f"{expr_to_sql(item.expr)}{' DESC' if item.descending else ''}"
                for item in query.order_by
            )
        )
    if query.limit is not None:
        parts.append(f"LIMIT {query.limit}")
    return " ".join(parts)


def _select_item_to_sql(item: ast.SelectItem) -> str:
    if item.is_star:
        return "*"
    assert item.expr is not None
    text = expr_to_sql(item.expr)
    if item.alias:
        return f"{text} AS {item.alias}"
    return text


def _table_ref_to_sql(table: ast.TableRef) -> str:
    if table.alias:
        return f"{table.name} {table.alias}"
    return table.name


def literal_to_sql(value: object) -> str:
    """Render one literal value as SQL text."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if math.isinf(value):
            # ``inf`` would lex back as an identifier; 1e999 overflows to it.
            return "1e999" if value > 0 else "-1e999"
        if math.isnan(value):
            raise UnsupportedQueryError("cannot render NaN: no SQL literal means it")
        return repr(value)
    raise UnsupportedQueryError(f"cannot render literal {value!r}")


def expr_to_sql(expr: ast.Expr) -> str:
    """Render an expression."""
    if isinstance(expr, ast.Literal):
        return literal_to_sql(expr.value)
    if isinstance(expr, ast.ColumnRef):
        return expr.display()
    if isinstance(expr, ast.AggregateCall):
        if expr.argument is None:
            return f"{expr.func}(*)"
        inner = expr_to_sql(expr.argument)
        if expr.distinct:
            return f"{expr.func}(DISTINCT {inner})"
        return f"{expr.func}({inner})"
    if isinstance(expr, ast.Comparison):
        return f"{_operand(expr.left)} {expr.op} {_operand(expr.right)}"
    if isinstance(expr, ast.InList):
        word = "NOT IN" if expr.negated else "IN"
        values = ", ".join(literal_to_sql(v.value) for v in expr.values)
        return f"{_operand(expr.expr)} {word} ({values})"
    if isinstance(expr, ast.Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{_operand(expr.expr)} {word} {_operand(expr.low)} AND {_operand(expr.high)}"
        )
    if isinstance(expr, ast.Like):
        word = "NOT LIKE" if expr.negated else "LIKE"
        return f"{_operand(expr.expr)} {word} {literal_to_sql(expr.pattern)}"
    if isinstance(expr, ast.IsNull):
        word = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_operand(expr.expr)} {word}"
    if isinstance(expr, ast.And):
        return " AND ".join(_wrap_bool(item) for item in expr.items)
    if isinstance(expr, ast.Or):
        return " OR ".join(_wrap_bool(item, in_or=True) for item in expr.items)
    if isinstance(expr, ast.Not):
        return f"NOT ({expr_to_sql(expr.expr)})"
    raise UnsupportedQueryError(f"cannot render expression {expr!r}")


def _operand(expr: ast.Expr) -> str:
    """Render a scalar operand (no boolean structure expected)."""
    return expr_to_sql(expr)


def _wrap_bool(expr: ast.Expr, in_or: bool = False) -> str:
    """Parenthesize nested boolean connectives to preserve precedence."""
    text = expr_to_sql(expr)
    if isinstance(expr, ast.Or):
        return f"({text})"
    if in_or and isinstance(expr, ast.And):
        # AND binds tighter than OR, so parentheses are not required, but
        # adding them keeps the output unambiguous for human readers.
        return f"({text})"
    return text
