"""Abstract syntax tree for the supported SQL subset.

Expression nodes are shared with :mod:`repro.predicates`, which normalizes
and classifies them. All nodes are immutable by convention (the resolver
annotates :class:`ColumnRef` in place before any analysis runs, after which
trees are treated as read-only). Equality is structural, which the DNF
machinery and tests rely on.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class of all scalar / boolean expressions."""

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions, for generic tree walks."""
        return ()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> Tuple:
        raise NotImplementedError


class Literal(Expr):
    """A constant: string, int, float, NULL (``None``) or, bare, TRUE / FALSE."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def _key(self) -> Tuple:
        return (self.value,)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ColumnRef(Expr):
    """A (possibly qualified) column reference, e.g. ``A.mach_id``.

    The resolver fills in ``binding_key`` (the canonical key of the FROM
    item this reference binds to — the alias if one was given, else the
    table name, lower-cased) and ``is_source`` (whether the referenced
    column is the bound table's data source column).
    """

    __slots__ = ("qualifier", "name", "binding_key", "is_source")

    def __init__(self, name: str, qualifier: Optional[str] = None) -> None:
        self.qualifier = qualifier
        self.name = name
        self.binding_key: Optional[str] = None
        self.is_source: bool = False

    def _key(self) -> Tuple:
        # Structural equality uses the *resolved* identity when available so
        # that `mach_id` and `A.mach_id` compare equal after resolution.
        if self.binding_key is not None:
            return (self.binding_key, self.name.lower())
        return (self.qualifier.lower() if self.qualifier else None, self.name.lower())

    def display(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.display()!r}, binding={self.binding_key!r})"


class Comparison(Expr):
    """A binary comparison. ``op`` is one of ``= <> < <= > >=``.

    ``!=`` is normalized to ``<>`` at parse time.
    """

    __slots__ = ("op", "left", "right")

    VALID_OPS = ("=", "<>", "<", "<=", ">", ">=")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op == "!=":
            op = "<>"
        if op not in self.VALID_OPS:
            raise ValueError(f"invalid comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _key(self) -> Tuple:
        return (self.op, self.left, self.right)

    def __repr__(self) -> str:
        return f"Comparison({self.left!r} {self.op} {self.right!r})"


class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)`` with literal values only."""

    __slots__ = ("expr", "values", "negated")

    def __init__(self, expr: Expr, values: Sequence[Literal], negated: bool = False) -> None:
        self.expr = expr
        self.values: Tuple[Literal, ...] = tuple(values)
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,) + self.values

    def _key(self) -> Tuple:
        return (self.expr, self.values, self.negated)

    def __repr__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"InList({self.expr!r} {word} {[v.value for v in self.values]!r})"


class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    __slots__ = ("expr", "low", "high", "negated")

    def __init__(self, expr: Expr, low: Expr, high: Expr, negated: bool = False) -> None:
        self.expr = expr
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr, self.low, self.high)

    def _key(self) -> Tuple:
        return (self.expr, self.low, self.high, self.negated)

    def __repr__(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"Between({self.expr!r} {word} {self.low!r} AND {self.high!r})"


class Like(Expr):
    """``expr [NOT] LIKE 'pattern'`` with SQL ``%`` / ``_`` wildcards."""

    __slots__ = ("expr", "pattern", "negated")

    def __init__(self, expr: Expr, pattern: str, negated: bool = False) -> None:
        self.expr = expr
        self.pattern = pattern
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def _key(self) -> Tuple:
        return (self.expr, self.pattern, self.negated)

    def __repr__(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        return f"Like({self.expr!r} {word} {self.pattern!r})"


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    __slots__ = ("expr", "negated")

    def __init__(self, expr: Expr, negated: bool = False) -> None:
        self.expr = expr
        self.negated = negated

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def _key(self) -> Tuple:
        return (self.expr, self.negated)

    def __repr__(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"IsNull({self.expr!r} {word})"


class And(Expr):
    """N-ary conjunction. Nested conjunctions are flattened on
    construction, so ``And([a, And([b, c])])`` equals ``And([a, b, c])``."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]) -> None:
        flat: List[Expr] = []
        for item in items:
            if isinstance(item, And):
                flat.extend(item.items)
            else:
                flat.append(item)
        self.items: Tuple[Expr, ...] = tuple(flat)

    def children(self) -> Tuple[Expr, ...]:
        return self.items

    def _key(self) -> Tuple:
        return (self.items,)

    def __repr__(self) -> str:
        return f"And({list(self.items)!r})"


class Or(Expr):
    """N-ary disjunction. Nested disjunctions are flattened on
    construction, mirroring :class:`And`."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr]) -> None:
        flat: List[Expr] = []
        for item in items:
            if isinstance(item, Or):
                flat.extend(item.items)
            else:
                flat.append(item)
        self.items: Tuple[Expr, ...] = tuple(flat)

    def children(self) -> Tuple[Expr, ...]:
        return self.items

    def _key(self) -> Tuple:
        return (self.items,)

    def __repr__(self) -> str:
        return f"Or({list(self.items)!r})"


class Not(Expr):
    """Logical negation."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def _key(self) -> Tuple:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"Not({self.expr!r})"


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


class AggregateCall(Expr):
    """An aggregate in the select list, e.g. ``COUNT(*)`` or ``SUM(x)``.

    ``argument`` is ``None`` exactly for ``COUNT(*)``.
    """

    __slots__ = ("func", "argument", "distinct")

    VALID_FUNCS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def __init__(self, func: str, argument: Optional[Expr], distinct: bool = False) -> None:
        func = func.upper()
        if func not in self.VALID_FUNCS:
            raise ValueError(f"invalid aggregate {func!r}")
        if argument is None and func != "COUNT":
            raise ValueError(f"{func}(*) is not valid SQL")
        self.func = func
        self.argument = argument
        self.distinct = distinct

    def children(self) -> Tuple[Expr, ...]:
        return () if self.argument is None else (self.argument,)

    def _key(self) -> Tuple:
        return (self.func, self.argument, self.distinct)

    def __repr__(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        return f"AggregateCall({self.func}({arg}))"


class SelectItem:
    """One entry of the select list: an expression with an optional alias."""

    __slots__ = ("expr", "alias", "is_star")

    def __init__(self, expr: Optional[Expr], alias: Optional[str] = None, is_star: bool = False) -> None:
        self.expr = expr
        self.alias = alias
        self.is_star = is_star

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SelectItem)
            and self.expr == other.expr
            and self.alias == other.alias
            and self.is_star == other.is_star
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.alias, self.is_star))

    def __repr__(self) -> str:
        if self.is_star:
            return "SelectItem(*)"
        return f"SelectItem({self.expr!r}, alias={self.alias!r})"


class TableRef:
    """A FROM-clause item: a table name with an optional alias."""

    __slots__ = ("name", "alias")

    def __init__(self, name: str, alias: Optional[str] = None) -> None:
        self.name = name
        self.alias = alias

    @property
    def binding_key(self) -> str:
        """The key column references bind to: alias if present, else name."""
        return (self.alias or self.name).lower()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableRef)
            and self.name.lower() == other.name.lower()
            and (self.alias or "").lower() == (other.alias or "").lower()
        )

    def __hash__(self) -> int:
        return hash((self.name.lower(), (self.alias or "").lower()))

    def __repr__(self) -> str:
        return f"TableRef({self.name!r}, alias={self.alias!r})"


class OrderItem:
    """One ORDER BY key: a column reference plus direction."""

    __slots__ = ("expr", "descending")

    def __init__(self, expr: Expr, descending: bool = False) -> None:
        self.expr = expr
        self.descending = descending

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderItem)
            and self.expr == other.expr
            and self.descending == other.descending
        )

    def __hash__(self) -> int:
        return hash((self.expr, self.descending))

    def __repr__(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"OrderItem({self.expr!r} {direction})"


class Query:
    """A parsed SPJ query."""

    __slots__ = (
        "select_items",
        "distinct",
        "tables",
        "where",
        "group_by",
        "order_by",
        "limit",
        "literals",
    )

    def __init__(
        self,
        select_items: Sequence[SelectItem],
        tables: Sequence[TableRef],
        where: Optional[Expr] = None,
        distinct: bool = False,
        group_by: Sequence[Expr] = (),
        limit: Optional[int] = None,
        order_by: Sequence[OrderItem] = (),
    ) -> None:
        self.select_items: Tuple[SelectItem, ...] = tuple(select_items)
        self.tables: Tuple[TableRef, ...] = tuple(tables)
        self.where = where
        self.distinct = distinct
        self.group_by: Tuple[Expr, ...] = tuple(group_by)
        self.order_by: Tuple[OrderItem, ...] = tuple(order_by)
        self.limit = limit
        #: Set by the parser: one entry per STRING / NUMBER token of the
        #: text, in order — the :class:`Literal` made from it, or ``None``
        #: where none was (LIMIT's count, LIKE's pattern). Not part of
        #: equality; empty for a tree not parsed from text.
        self.literals: Tuple[Optional[Literal], ...] = ()

    @property
    def has_aggregates(self) -> bool:
        return any(isinstance(item.expr, AggregateCall) for item in self.select_items)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Query)
            and self.select_items == other.select_items
            and self.tables == other.tables
            and self.where == other.where
            and self.distinct == other.distinct
            and self.group_by == other.group_by
            and self.order_by == other.order_by
            and self.limit == other.limit
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.select_items,
                self.tables,
                self.where,
                self.distinct,
                self.group_by,
                self.order_by,
                self.limit,
            )
        )

    def __repr__(self) -> str:
        return (
            f"Query(select={list(self.select_items)!r}, tables={list(self.tables)!r}, "
            f"where={self.where!r}, distinct={self.distinct})"
        )


def walk(expr: Expr) -> List[Expr]:
    """Pre-order traversal of an expression tree (includes ``expr`` itself)."""
    out: List[Expr] = []
    stack: List[Expr] = [expr]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children()))
    return out


def column_refs(expr: Expr) -> List[ColumnRef]:
    """All column references in an expression tree, in pre-order."""
    return [node for node in walk(expr) if isinstance(node, ColumnRef)]


_LEAVES = (Literal, ColumnRef)
_REBUILD = {
    Comparison: lambda node, c: Comparison(node.op, *c),
    InList: lambda node, c: InList(c[0], c[1:], node.negated),
    Between: lambda node, c: Between(*c, node.negated),
    Like: lambda node, c: Like(c[0], node.pattern, node.negated),
    IsNull: lambda node, c: IsNull(c[0], node.negated),
    And: lambda node, c: And(c),
    Or: lambda node, c: Or(c),
    Not: lambda node, c: Not(c[0]),
    AggregateCall: lambda node, c: AggregateCall(node.func, c[0] if c else None, node.distinct),
}


def substitute(expr: Expr, memo: Dict[int, object]) -> Expr:
    """``expr`` with every node whose ``id`` is a key of ``memo`` replaced by
    its value: new nodes along the paths to a replacement, every other
    subtree shared (annotations included). Each inner node visited is
    recorded in ``memo``, so a node that several trees share maps to one
    copy."""
    out = memo.get(id(expr))
    if out is not None:
        return out  # type: ignore[return-value]
    children = expr.children()
    if not children:
        return expr
    copies = [
        memo.get(id(child)) or (child if isinstance(child, _LEAVES) else substitute(child, memo))
        for child in children
    ]
    if all(map(operator.is_, copies, children)):
        out = expr
    else:
        out = _REBUILD[type(expr)](expr, copies)
    memo[id(expr)] = out
    return out


def substitute_query(query: Query, memo: Dict[int, object]) -> Query:
    """:func:`substitute` over a query's select list, WHERE and literals;
    the copy is recorded in ``memo`` too."""
    if id(query) in memo:
        return memo[id(query)]  # type: ignore[return-value]
    items = []
    for item in query.select_items:
        expr = item.expr if item.expr is None else substitute(item.expr, memo)
        items.append(item if expr is item.expr else SelectItem(expr, item.alias))
    where = None if query.where is None else substitute(query.where, memo)
    out = Query(
        items, query.tables, where, query.distinct, query.group_by, query.limit, query.order_by
    )
    out.literals = tuple(
        None if node is None else memo.get(id(node), node) for node in query.literals
    )
    memo[id(query)] = out
    return out
