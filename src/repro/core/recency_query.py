"""Construction of recency subqueries (the SQL of Theorems 3 and 4).

Given one DNF conjunct and one relation binding ``R_i``, the recency
subquery computes (an upper bound of, and under the theorems' conditions
exactly) the sources relevant via ``R_i``::

    SELECT DISTINCT trac_h.source_id, trac_h.recency
    FROM heartbeat trac_h [, <other relations referenced by the predicates>]
    WHERE Ps'[R_i.c_s -> trac_h.source_id]
      AND Js'[R_i.c_s -> trac_h.source_id]
      AND Po

Rewrites applied:

* every column reference is re-qualified with its binding key, so the
  generated SQL is unambiguous no matter how the user qualified columns;
* references to ``R_i``'s data source column (in ``Ps`` and ``Js``) are
  redirected to the Heartbeat alias — the substitution ``P_s'`` / ``J_s'``
  of Notation 5 and 7;
* other relations appear in the FROM clause only when some retained term
  references them. Unreferenced "other" relations influence the result
  solely through (non-)emptiness (Definition 2 needs an existing tuple in
  every other relation), which the executor checks separately — recorded in
  ``required_nonempty``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog import HEARTBEAT_RECENCY_COLUMN, HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_TABLE
from repro.core.statistics import Columns, sorted_columns
from repro.errors import UnsupportedQueryError
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql
from repro.sqlparser.resolver import RelationBinding, ResolvedQuery

#: Alias used for the Heartbeat table in generated queries.
HEARTBEAT_ALIAS = "trac_h"


def heartbeat_alias_for(resolved: ResolvedQuery) -> str:
    """An alias for Heartbeat that cannot collide with the query's bindings."""
    alias = HEARTBEAT_ALIAS
    taken = {b.key for b in resolved.bindings}
    while alias in taken:
        alias += "_"
    return alias


def rewrite_term(expr: ast.Expr, target: str, h_alias: str) -> ast.Expr:
    """Clone ``expr``, re-qualifying every column and redirecting binding
    ``target``'s source column to the Heartbeat alias."""
    if isinstance(expr, ast.ColumnRef):
        if expr.binding_key is None:
            raise UnsupportedQueryError(
                f"column {expr.display()!r} is unresolved; run the resolver first"
            )
        if expr.binding_key == target and expr.is_source:
            new = ast.ColumnRef(HEARTBEAT_SOURCE_COLUMN, qualifier=h_alias)
            new.binding_key = h_alias
            new.is_source = False
            return new
        new = ast.ColumnRef(expr.name, qualifier=expr.binding_key)
        new.binding_key = expr.binding_key
        new.is_source = expr.is_source
        return new
    if isinstance(expr, ast.Literal):
        return expr
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(
            expr.op, rewrite_term(expr.left, target, h_alias), rewrite_term(expr.right, target, h_alias)
        )
    if isinstance(expr, ast.InList):
        return ast.InList(rewrite_term(expr.expr, target, h_alias), expr.values, expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(
            rewrite_term(expr.expr, target, h_alias),
            rewrite_term(expr.low, target, h_alias),
            rewrite_term(expr.high, target, h_alias),
            expr.negated,
        )
    if isinstance(expr, ast.Like):
        return ast.Like(rewrite_term(expr.expr, target, h_alias), expr.pattern, expr.negated)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(rewrite_term(expr.expr, target, h_alias), expr.negated)
    if isinstance(expr, (ast.And, ast.Or)):
        return type(expr)([rewrite_term(e, target, h_alias) for e in expr.items])
    if isinstance(expr, ast.Not):
        return ast.Not(rewrite_term(expr.expr, target, h_alias))
    raise UnsupportedQueryError(f"cannot rewrite expression {expr!r}")


def build_subquery(
    resolved: ResolvedQuery,
    binding: RelationBinding,
    retained_terms: Sequence[ast.Expr],
    h_alias: str,
) -> Tuple[ast.Query, List[ast.Query]]:
    """Assemble the recency subquery for one (conjunct, relation) pair.

    The semijoin of Theorem 4 is over ``H x R_1 x ... x R_{i-1} x R_{i+1} x
    ... x R_n``, but relations not *connected* to the Heartbeat side by any
    retained predicate influence the answer only through satisfiability of
    their own predicate group (an empty/unsatisfied group empties the cross
    product). We therefore factor the cross product into connected
    components: the component containing Heartbeat becomes the main
    subquery; every other component becomes an existence **guard** —
    ``SELECT 1 ... LIMIT 1`` — that the executor checks before running the
    subquery. Both backends stop a guard at its first witness, so the
    via-``R_i`` recency query costs what the Naive query costs when the
    predicates do not link ``R_i``'s source column to the rest (the cost
    behaviour the paper reports for Q4; counted, not clocked, in
    ``tests/bench/test_paper_shapes.py``).

    Parameters
    ----------
    resolved:
        The resolved user query.
    binding:
        The relation ``R_i`` the subquery targets ("relevant via").
    retained_terms:
        The conjunct's ``Ps + Js + Po`` terms (already filtered by the
        planner; ``Pr``, ``Pm`` and ``Jrm`` never appear here).
    h_alias:
        The Heartbeat alias from :func:`heartbeat_alias_for`.

    Returns
    -------
    (query, guards):
        The subquery AST plus the guard ASTs; the subquery's answer is
        valid (non-vacuous) only when every guard returns a row.
    """
    rewritten = [rewrite_term(term, binding.key, h_alias) for term in retained_terms]
    # The relations each term references; one that references none is Heartbeat's.
    term_keys = [
        {ref.binding_key for ref in ast.column_refs(term)} or {h_alias} for term in rewritten
    ]
    if any(binding.key in keys for keys in term_keys):
        # Retained terms must not reference R_i's regular columns; a source
        # reference was rewritten to the Heartbeat alias above, so any
        # remaining reference indicates a planner bug.
        raise UnsupportedQueryError(
            f"internal error: retained term still references {binding.key!r}"
        )

    others = [b for b in resolved.bindings if b.key != binding.key]
    components = _components(term_keys, [h_alias] + [b.key for b in others])

    def part(nodes: Set[str]):
        """The tables and the WHERE of one component."""
        tables = [ast.TableRef(b.schema.name, b.key) for b in others if b.key in nodes]
        terms = [term for term, keys in zip(rewritten, term_keys) if keys & nodes]
        if not terms:
            return tables, None
        return tables, ast.And(terms) if len(terms) > 1 else terms[0]

    # Heartbeat is the first node, so its component is the first: the main subquery.
    joined, where_expr = part(components[0])
    tables = [ast.TableRef(HEARTBEAT_TABLE, h_alias)] + joined
    guards: List[ast.Query] = []
    for nodes in components[1:]:
        guard_tables, guard_where = part(nodes)
        # Existence check. No ORDER BY, aggregate or DISTINCT, so LIMIT 1 is a
        # row budget on the memory engine as it is on SQLite: the scan, last
        # join step or cross product producing the row stops at the first match.
        guards.append(
            ast.Query([ast.SelectItem(ast.Literal(1))], guard_tables, guard_where, limit=1)
        )

    sid = ast.ColumnRef(HEARTBEAT_SOURCE_COLUMN, qualifier=h_alias)
    sid.binding_key = h_alias
    recency = ast.ColumnRef(HEARTBEAT_RECENCY_COLUMN, qualifier=h_alias)
    recency.binding_key = h_alias
    query = ast.Query(
        select_items=[ast.SelectItem(sid), ast.SelectItem(recency)],
        tables=tables,
        where=where_expr,
        # source_id is unique in Heartbeat, so a heartbeat-only subquery
        # needs no dedup; joins can produce one row per matching partner.
        distinct=len(tables) > 1,
    )
    return query, guards


def _components(term_keys: Sequence[Set[str]], nodes: Sequence[str]) -> List[Set[str]]:
    """``nodes`` partitioned into the classes that co-reference in one term
    links, in first-member order (so the first node is in the first class)."""
    components = [{node} for node in nodes]
    for keys in term_keys:
        linked = [members for members in components if members & keys]
        for members in linked[1:]:
            linked[0] |= members
            components.remove(members)
    return components


#: The Naive method's recency query — every source in Heartbeat — and its text.
ALL_SOURCES_QUERY = ast.Query(
    [ast.SelectItem(ast.ColumnRef(HEARTBEAT_SOURCE_COLUMN)),
     ast.SelectItem(ast.ColumnRef(HEARTBEAT_RECENCY_COLUMN))],
    [ast.TableRef(HEARTBEAT_TABLE)],
)
ALL_SOURCES_SQL = to_sql(ALL_SOURCES_QUERY)


# -- the fetch stage: one fragment per holder of the data, one merge ---------


def fragment_request(plan) -> dict:
    """The fetch request for a :class:`~repro.core.relevance.RelevancePlan`:
    ``{"mode", "subqueries": [{"sql", "guards"}]}``. Plain JSON-able dicts,
    like the fragments that answer it, because both are also the
    federation's wire format."""
    return {
        "mode": plan.mode,
        "subqueries": [
            {"sql": sub.sql, "guards": list(sub.guards)} for sub in plan.subqueries
        ],
    }


def execute_fragment(
    snapshot, request: dict, short_circuit: bool = False, statements: Optional[dict] = None
) -> dict:
    """Run ``request``'s guards and subqueries inside one snapshot; returns
    ``{"mode", "results": [[(source, recency), ...] per subquery], "guards":
    {sql: verdict}}`` (mode ``"all"`` answers with the one all-sources scan).
    The rows are the engine's, NULL source ids dropped;
    :func:`merge_fragments` normalizes them. ``statements`` maps a
    statement's text to the planner's resolution of it
    (``RelevancePlan.statements``), which the snapshot may run instead.

    A guard asks "does this query return rows?" of the *union* of every
    holder's data, so one holder of several must answer unconditionally;
    ``short_circuit`` (skip a subquery once one of its guards failed here)
    is sound only for the sole holder.
    """
    mode = request.get("mode", "focused")
    results: List[Sequence[Sequence[object]]] = []
    guards: Dict[str, bool] = {}
    statements = statements or {}

    def run(sql: str) -> Sequence[Sequence[object]]:
        return snapshot.execute(sql, statement=statements.get(sql)).rows

    if mode == "all":
        results.append(run(ALL_SOURCES_SQL))
    elif mode != "empty":
        for sub in request.get("subqueries", ()):
            held = True
            for guard in sub.get("guards", ()):
                if guard not in guards:
                    guards[guard] = bool(run(guard))
                if short_circuit and not guards[guard]:
                    held = False
                    break
            rows = run(sub["sql"]) if held else ()
            results.append([row for row in rows if row[0] is not None])
    return {"mode": mode, "results": results, "guards": guards}


def merge_fragments(request: dict, fragments: Sequence[dict]) -> Columns:
    """Union fragments into the relevant-source set, returned as two columns
    ``(ids, recencies)``: OR each guard across fragments (the union has rows
    iff some holder does), keep a subquery's rows iff all its guards hold
    globally, sort by source id. Mode ``"all"`` keeps the Heartbeat scan
    order, fragment by fragment; mode ``"empty"`` is two empty columns. A
    fragment shorter than the request — malformed, or cut by
    ``short_circuit`` — contributes nothing for the subqueries it lacks.

    The one place a row is normalized, whoever produced it (a local
    snapshot, a shard's JSON reply): the source id becomes a ``str``, the
    recency a ``float``, and a later row of an id wins."""
    mode = request.get("mode", "focused")
    found: Dict[str, object] = {}
    if mode == "all":
        for fragment in fragments:
            for rows in fragment.get("results", ()):
                for sid, rec in rows:
                    found[str(sid)] = rec
        return list(found), [float(rec) for rec in found.values()]
    if mode == "empty":
        return [], []
    guard_or: Dict[str, bool] = {}
    for fragment in fragments:
        for guard, verdict in fragment.get("guards", {}).items():
            guard_or[guard] = guard_or.get(guard, False) or bool(verdict)
    for index, sub in enumerate(request.get("subqueries", ())):
        if not all(guard_or.get(guard, False) for guard in sub.get("guards", ())):
            continue
        for fragment in fragments:
            results = fragment.get("results", ())
            if index < len(results):
                for sid, rec in results[index]:
                    found[str(sid)] = rec
    return sorted_columns(found)
