"""Schema constraints as predicates (Section 3.4).

The paper: *"If constraints are in form of predicates, we can take a user
query and append the conjunction of predicates defining such constraints.
This converts Q to an equivalent expression Q'."* Relevance analysis then
runs on ``Q'``, which restricts the *potential* tuples of each relation to
those that could legally occur — sharpening the relevant set. (The paper's
own example: a constraint that a machine cannot be its own neighbor rules
out the two-update scenario of Section 4.1.2.)

This module parses each referenced table's constraint predicates, binds
their column references to the query's FROM bindings, and returns resolved
expressions ready to be conjoined onto the user query's WHERE clause.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CatalogError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression
from repro.sqlparser.resolver import RelationBinding, ResolvedQuery


def binding_constraint_exprs(binding: RelationBinding) -> List[ast.Expr]:
    """Parse and bind one relation's constraints.

    Column references in constraint text are unqualified (they are written
    against the table, not a query); each is bound to this binding's key.

    Raises
    ------
    CatalogError
        For malformed constraint text or references to unknown columns.
    """
    out: List[ast.Expr] = []
    schema = binding.schema
    for text in schema.constraints:
        try:
            expr = parse_expression(text)
        except Exception as exc:  # parse/lex errors carry position info
            raise CatalogError(
                f"invalid constraint on table {schema.name!r}: {text!r} ({exc})"
            ) from exc
        for ref in ast.column_refs(expr):
            if ref.qualifier is not None and ref.qualifier.lower() != schema.name.lower():
                raise CatalogError(
                    f"constraint {text!r} on table {schema.name!r} references "
                    f"foreign qualifier {ref.qualifier!r}"
                )
            if not schema.has_column(ref.name):
                raise CatalogError(
                    f"constraint {text!r} on table {schema.name!r} references "
                    f"unknown column {ref.name!r}"
                )
            ref.qualifier = binding.key
            ref.binding_key = binding.key
            ref.is_source = schema.is_source_column(ref.name)
        out.append(expr)
    return out


def all_constraint_exprs(resolved: ResolvedQuery) -> List[ast.Expr]:
    """Constraints of every relation the query references, bound per
    binding (a self-join binds the same table's constraints twice, once per
    alias — correct, since each potential tuple must satisfy them)."""
    out: List[ast.Expr] = []
    for binding in resolved.bindings:
        out.extend(binding_constraint_exprs(binding))
    return out


def augmented_where(
    resolved: ResolvedQuery, constraints: Optional[List[ast.Expr]] = None
) -> ast.Expr:
    """``Q -> Q'``: the WHERE clause with every constraint conjoined
    (``constraints``, when given, are :func:`all_constraint_exprs`' result).

    Returns the original WHERE when no referenced table has constraints;
    a pure-constraint conjunction when the query has no WHERE; and TRUE
    when there is neither.
    """
    if constraints is None:
        constraints = all_constraint_exprs(resolved)
    where = resolved.query.where
    if not constraints:
        return where if where is not None else ast.Literal(True)
    parts: List[ast.Expr] = []
    if where is not None:
        parts.append(where)
    parts.extend(constraints)
    if len(parts) == 1:
        return parts[0]
    return ast.And(parts)
