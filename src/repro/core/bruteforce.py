"""Exact relevant-source computation by domain enumeration.

This is the "conceptually simple, impractical" algorithm of Section 4.1,
kept — exactly as the paper kept it (Section 5.2) — as the ground truth for
measuring false-positive rates. It requires every column of the enumerated
relation to carry a finite domain.

For each relation ``R_i`` of the query it materializes the *potential
relation*: the cross product of ``R_i``'s column domains. It then runs

    SELECT DISTINCT R_i.c_s  FROM  R_1, ..., potential(R_i), ..., R_n
    WHERE <the user query's predicates>

on the mini engine with ``R_i`` substituted, which by Definition 2 yields
exactly the sources relevant via ``R_i``; Corollary 4's union over ``i``
gives ``S(Q)``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Set

from repro.engine import Database, Relation
from repro.engine.evaluate import execute_query
from repro.errors import DomainError, TracError
from repro.sqlparser import ast
from repro.sqlparser.resolver import RelationBinding, ResolvedQuery

#: Default budget on the size of one potential relation.
DEFAULT_MAX_TUPLES = 500000


def potential_relation(
    binding: RelationBinding,
    referenced_columns: Optional[Set[str]] = None,
    max_tuples: int = DEFAULT_MAX_TUPLES,
) -> Relation:
    """Materialize the cross product of a relation's column domains.

    Columns that no predicate references (``referenced_columns``, lower-
    cased; ``None`` means "assume all referenced") are represented by a
    single placeholder value: their value cannot influence predicate
    satisfaction, so one representative witnesses the existential
    quantification of Definitions 1/2 without blowing up the product. The
    data source column is always enumerated — it is what we project.

    Raises
    ------
    DomainError
        If an enumerated column's domain is infinite or the product exceeds
        the budget.
    """
    schema = binding.schema
    value_lists: List[List[object]] = []
    total = 1
    for column in schema.columns:
        is_source = schema.is_source_column(column.name)
        needed = (
            is_source
            or referenced_columns is None
            or column.name.lower() in referenced_columns
        )
        if not needed:
            value_lists.append([None])
            continue
        if not column.domain.is_finite:
            raise DomainError(
                f"column {schema.name}.{column.name} has an infinite domain; "
                "brute force needs finite domains for every referenced column"
            )
        values = list(column.domain.iter_values())
        total *= max(len(values), 1)
        if total > max_tuples:
            raise DomainError(
                f"potential relation for {schema.name!r} exceeds {max_tuples} tuples"
            )
        value_lists.append(values)
    relation = Relation(schema)
    for combo in itertools.product(*value_lists):
        relation.insert(combo)
    return relation


def brute_force_relevant_sources(db: Database, resolved: ResolvedQuery) -> Set[str]:
    """Compute ``S(Q)`` exactly (Definitions 1 and 2).

    Parameters
    ----------
    db:
        The in-memory database holding the *current* relation instances
        (used for the "existing tuples" side of Definition 2).
    resolved:
        The resolved user query.

    ``Q'`` (query plus schema constraints, Section 3.4) is analyzed, so the
    potential tuples are restricted to legal ones, as the planner does by
    default; each potential relation is capped at ``DEFAULT_MAX_TUPLES``.
    """
    relevant: Set[str] = set()
    for binding in resolved.bindings:
        if binding.schema.source_column is None:
            raise TracError(
                f"table {binding.schema.name!r} has no data source column"
            )
        relevant |= relevant_via(db, resolved, binding)
    return relevant


def relevant_via(db: Database, resolved: ResolvedQuery, binding: RelationBinding) -> Set[str]:
    """Sources relevant via one relation (``S(Q, R_i)`` of Section 4.1.2)."""
    where = resolved.query.where
    if any(b.schema.constraints for b in resolved.bindings):
        from repro.core.constraints import augmented_where

        where = augmented_where(resolved)
    referenced: Set[str] = set()
    if where is not None:
        for ref in ast.column_refs(where):
            if ref.binding_key == binding.key:
                referenced.add(ref.name.lower())
    potential = potential_relation(binding, referenced)

    source_ref = ast.ColumnRef(binding.schema.source_column, qualifier=binding.key)  # type: ignore[arg-type]
    source_ref.binding_key = binding.key
    source_ref.is_source = True

    probe = ast.Query(
        select_items=[ast.SelectItem(source_ref)],
        tables=resolved.query.tables,
        where=where,
        distinct=True,
    )
    probe_resolved = _reuse_resolution(resolved, probe)
    result = execute_query(db, probe_resolved, relation_override={binding.key: potential})
    return {value for (value,) in result.rows if value is not None}  # type: ignore[misc]


def _reuse_resolution(resolved: ResolvedQuery, query: ast.Query) -> ResolvedQuery:
    """Wrap a derived query that shares the original's (already resolved)
    FROM clause and predicate trees."""
    return ResolvedQuery(query, list(resolved.bindings), resolved.catalog)
