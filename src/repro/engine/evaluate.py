"""Query execution against in-memory relations.

The executor handles the full supported dialect. Conjunctive WHERE clauses
get a lightweight plan — per-relation predicate push-down, greedy join
ordering, hash joins on equality join terms — while arbitrary boolean
WHERE clauses fall back to an (incrementally built) cross product with the
predicate applied at the end. Both paths produce identical results; the
planner only changes the work done to get there.

Two execution modes exist for predicates and projections: the *compiled*
mode (default) lowers each expression once per query to closed-over
lambdas via :mod:`repro.engine.compile`, and the *interpreted* mode walks
the AST per row via :mod:`repro.predicates.evaluate`. The interpreted mode
is the semantic oracle; ``tools/fuzz_engine.py`` differentially checks the
two (and SQLite). Select per call with ``execute_query(..., compiled=...)``
or globally with :func:`repro.engine.compile.set_compiled_default` /
``TRAC_INTERPRETED=1``.

``execute_sql`` additionally fronts parse+resolve with the process-wide
resolved-query cache (:mod:`repro.engine.cache`), so repeated SQL strings
— recency subqueries, guards, benchmark loops — skip the parser entirely.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine import compile as compile_mod
from repro.engine.cache import get_cache, resolve_cached
from repro.engine.profile import (
    OP_AGGREGATE,
    OP_CROSS,
    OP_FILTER,
    OP_JOIN,
    OP_LIMIT,
    OP_PROJECT,
    OP_SCAN,
    OP_SORT,
    QueryProfile,
)
from repro.engine.relation import Database, Relation, Row
from repro.errors import EngineError, UnsupportedQueryError
from repro.predicates.dnf import basic_terms_of
from repro.predicates.evaluate import evaluate_predicate
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import ResolvedQuery, resolve

#: An intermediate tuple: binding key -> source row.
_Env = Dict[str, Row]


class QueryResult:
    """Result of executing a query: column names plus rows of tuples.

    ``lineage`` is ``None`` unless the query ran with lineage enabled
    (``execute_sql(..., lineage=True)``); then it is a list parallel to
    ``rows`` of frozensets naming the data sources whose tuples produced
    each row (see :mod:`repro.engine.lineage`).
    """

    __slots__ = ("columns", "rows", "lineage")

    def __init__(
        self,
        columns: List[str],
        rows: List[Tuple[object, ...]],
        lineage: Optional[List[FrozenSet[str]]] = None,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.lineage = lineage

    def scalar(self) -> object:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise EngineError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def column(self, index: int = 0) -> List[object]:
        """All values of one output column."""
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns!r}, rows={len(self.rows)})"


def execute_sql(
    db: Database,
    sql: str,
    telemetry=None,
    compiled: Optional[bool] = None,
    cache: bool = True,
    in_snapshot: bool = False,
    lineage: bool = False,
) -> QueryResult:
    """Parse, resolve and execute a SQL string against ``db``.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, enabled) additionally
    records the scan upper bound — the total base-table rows the executor
    may read for this query — and builds a per-operator
    :class:`~repro.engine.profile.QueryProfile`, stamped with the current
    trace id and recorded into ``telemetry.profiles``; the memory backend
    threads its telemetry through here. ``in_snapshot`` marks the profile
    as snapshot-scoped.

    ``cache`` (default True) routes parse+resolve through the process-wide
    resolved-query cache; pass False for throwaway catalogs (e.g. the
    temp-table shadow database) whose generations would only pollute it.
    ``compiled`` overrides the compiled/interpreted default for this call.
    ``lineage`` (default False) attaches per-row source lineage to the
    result (:attr:`QueryResult.lineage`, see :mod:`repro.engine.lineage`);
    the disabled path never touches the lineage machinery.
    """
    profiling = telemetry is not None and telemetry.enabled
    cache_hit: Optional[bool] = None
    if cache:
        hits_before = get_cache().stats()["hits"] if profiling else 0
        resolved = resolve_cached(sql, db.catalog, telemetry, lineage=lineage)
        if profiling:
            cache_hit = get_cache().stats()["hits"] > hits_before
    else:
        resolved = resolve(parse_query(sql), db.catalog)
    if not profiling:
        return execute_query(db, resolved, compiled=compiled, lineage=lineage)

    from repro.obs import instrument as obs

    scanned = sum(
        len(db.relation(b.schema.name).rows)
        for b in resolved.bindings
        if db.has(b.schema.name)
    )
    telemetry.count(obs.BACKEND_ROWS_SCANNED, scanned, backend="memory")
    profile = QueryProfile(sql)
    profile.cache_hit = cache_hit
    profile.snapshot = in_snapshot
    span = telemetry.tracer.current_span()
    if span is not None and span.trace_id:
        profile.trace_id = span.trace_id_hex
    start = time.perf_counter()
    result = execute_query(
        db, resolved, compiled=compiled, profile=profile, lineage=lineage
    )
    profile.finish(result, time.perf_counter() - start)
    telemetry.profiles.record(profile)
    return result


def execute_query(
    db: Database,
    resolved: ResolvedQuery,
    relation_override: Optional[Dict[str, Relation]] = None,
    trace: Optional[List[str]] = None,
    compiled: Optional[bool] = None,
    profile: Optional[QueryProfile] = None,
    lineage: bool = False,
) -> QueryResult:
    """Execute a resolved query.

    Parameters
    ----------
    db:
        The database providing base relations.
    resolved:
        The resolved query to run.
    relation_override:
        Optional map from *binding key* to a replacement
        :class:`Relation` — how the brute-force oracle substitutes a
        relation by the cross product of its column domains.
    trace:
        Optional list that receives plan-decision messages as execution
        proceeds (push-downs, join order, join methods) — the legacy
        string form of EXPLAIN ANALYZE.
    compiled:
        ``True`` forces the compiled predicate/projection path, ``False``
        the interpreted oracle; ``None`` (default) follows
        :func:`repro.engine.compile.compiled_default`.
    profile:
        Optional :class:`~repro.engine.profile.QueryProfile` that receives
        one structured operator record (rows in/out, wall seconds,
        selectivity) per executed plan step — the structured EXPLAIN
        ANALYZE. ``None`` (default) skips all profiling work.
    lineage:
        When True, attach per-row source lineage to the result
        (:attr:`QueryResult.lineage`); see :mod:`repro.engine.lineage`.
        The default (False) path never touches the lineage machinery.
    """
    if compiled is None:
        compiled = compile_mod.compiled_default()
    query = resolved.query
    relations: Dict[str, Relation] = {}
    for binding in resolved.bindings:
        override = (relation_override or {}).get(binding.key)
        relations[binding.key] = override if override is not None else db.relation(
            binding.schema.name
        )

    index_of = _build_index_map(resolved)
    envs = _join(resolved, relations, index_of, trace, compiled, profile)
    if query.order_by and not (query.has_aggregates or query.group_by or query.distinct):
        t0 = time.perf_counter() if profile is not None else 0.0
        envs = _sort_envs(query.order_by, envs, index_of, compiled)
        if profile is not None:
            profile.add(
                OP_SORT, "rows", len(envs), len(envs),
                time.perf_counter() - t0, "ORDER BY before projection",
            )
    t0 = time.perf_counter() if profile is not None else 0.0
    result = _project(resolved, envs, index_of, compiled, lineage)
    if profile is not None:
        op = OP_AGGREGATE if (query.has_aggregates or query.group_by) else OP_PROJECT
        detail = "aggregate/group" if op == OP_AGGREGATE else (
            "select *" if query.select_items and query.select_items[0].is_star
            else "select list"
        )
        if query.distinct:
            detail += ", distinct"
        profile.add(op, "output", len(envs), len(result.rows),
                    time.perf_counter() - t0, detail)
    if query.order_by and (query.has_aggregates or query.group_by or query.distinct):
        t0 = time.perf_counter() if profile is not None else 0.0
        _sort_rows(query, result)
        if profile is not None:
            profile.add(
                OP_SORT, "output", len(result.rows), len(result.rows),
                time.perf_counter() - t0, "ORDER BY over aggregated output",
            )
    if query.limit is not None:
        before = len(result.rows)
        result.rows = result.rows[: query.limit]
        if result.lineage is not None:
            result.lineage = result.lineage[: query.limit]
        if profile is not None:
            profile.add(OP_LIMIT, "output", before, len(result.rows), 0.0,
                        f"LIMIT {query.limit}")
    if lineage and profile is not None:
        from repro.engine.lineage import annotate_profile, lineage_plan_for

        annotate_profile(profile, lineage_plan_for(resolved), result.lineage)
    return result


def _env_predicate(
    expr: ast.Expr, index_of: Dict[Tuple[str, str], int], compiled: bool
) -> Callable[[_Env], bool]:
    """A reusable env -> bool predicate, compiled or interpreted."""
    if compiled:
        return compile_mod.compile_predicate(expr, index_of)
    return lambda env: evaluate_predicate(expr, _make_lookup(env, index_of))


def _env_scalar(
    expr: ast.Expr, index_of: Dict[Tuple[str, str], int], compiled: bool
) -> Callable[[_Env], object]:
    """A reusable env -> value getter, compiled or interpreted."""
    if compiled:
        return compile_mod.compile_scalar(expr, index_of)
    return lambda env: _scalar_value(expr, _make_lookup(env, index_of))


class _SortKey:
    """SQLite-style ordering: NULL < numbers < text; stable across types."""

    __slots__ = ("rank", "value")

    def __init__(self, value: object) -> None:
        if value is None:
            self.rank, self.value = 0, 0
        elif isinstance(value, bool):
            self.rank, self.value = 1, int(value)
        elif isinstance(value, (int, float)):
            self.rank, self.value = 1, value
        else:
            self.rank, self.value = 2, str(value)

    def __lt__(self, other: "_SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.value < other.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _SortKey)
            and self.rank == other.rank
            and self.value == other.value
        )


def _sort_envs(
    order_by,
    envs: List[_Env],
    index_of: Dict[Tuple[str, str], int],
    compiled: bool = False,
) -> List[_Env]:
    # Stable sorts applied minor-key-first honor mixed ASC/DESC directions.
    out = list(envs)
    for item in reversed(order_by):
        getter = _env_scalar(item.expr, index_of, compiled)

        def key(env, getter=getter):
            return _SortKey(getter(env))

        out.sort(key=key, reverse=item.descending)
    return out


def _sort_rows(query: ast.Query, result: QueryResult) -> None:
    """ORDER BY over aggregated/distinct output: keys must name output
    columns (alias or plain column name)."""
    lowered = [c.lower() for c in result.columns]
    indexes: List[Tuple[int, bool]] = []
    for item in query.order_by:
        if not isinstance(item.expr, ast.ColumnRef):
            raise EngineError("ORDER BY supports column references only")
        name = item.expr.name.lower()
        if name not in lowered:
            raise EngineError(
                f"ORDER BY column {item.expr.display()!r} must appear in the "
                "select list of an aggregated or DISTINCT query"
            )
        indexes.append((lowered.index(name), item.descending))
    if result.lineage is not None:
        # Lineage is positional: co-sort it with the rows it annotates.
        paired = list(zip(result.rows, result.lineage))
        for index, descending in reversed(indexes):
            paired.sort(key=lambda pair: _SortKey(pair[0][index]), reverse=descending)
        result.rows = [row for row, _ in paired]
        result.lineage = [lin for _, lin in paired]
        return
    for index, descending in reversed(indexes):
        result.rows.sort(key=lambda row: _SortKey(row[index]), reverse=descending)


# ---------------------------------------------------------------------------
# Join pipeline
# ---------------------------------------------------------------------------


def _build_index_map(resolved: ResolvedQuery) -> Dict[Tuple[str, str], int]:
    index_of: Dict[Tuple[str, str], int] = {}
    for binding in resolved.bindings:
        for i, column in enumerate(binding.schema.columns):
            index_of[(binding.key, column.name.lower())] = i
    return index_of


def _make_lookup(env: _Env, index_of: Dict[Tuple[str, str], int]) -> Callable[[ast.ColumnRef], object]:
    def lookup(ref: ast.ColumnRef) -> object:
        if ref.binding_key is None:
            raise EngineError(f"unresolved column {ref.display()!r}")
        return env[ref.binding_key][index_of[(ref.binding_key, ref.name.lower())]]

    return lookup


def _term_keys(term: ast.Expr) -> Set[str]:
    keys: Set[str] = set()
    for ref in ast.column_refs(term):
        if ref.binding_key is None:
            raise EngineError(f"unresolved column {ref.display()!r}")
        keys.add(ref.binding_key)
    return keys


def _join(
    resolved: ResolvedQuery,
    relations: Dict[str, Relation],
    index_of: Dict[Tuple[str, str], int],
    trace: Optional[List[str]] = None,
    compiled: bool = False,
    profile: Optional[QueryProfile] = None,
) -> List[_Env]:
    where = resolved.query.where
    conjunctive_terms: Optional[List[ast.Expr]] = None
    if where is None:
        conjunctive_terms = []
    else:
        try:
            conjunctive_terms = basic_terms_of(where)
        except UnsupportedQueryError:
            conjunctive_terms = None

    if conjunctive_terms is not None:
        if trace is not None:
            trace.append("plan: conjunctive (push-down + ordered joins)")
        return _join_conjunctive(
            resolved, relations, index_of, conjunctive_terms, trace, compiled, profile
        )
    if trace is not None:
        trace.append("plan: general boolean (filtered cross product)")
    return _join_general(resolved, relations, index_of, where, compiled, profile)


def _join_general(
    resolved: ResolvedQuery,
    relations: Dict[str, Relation],
    index_of: Dict[Tuple[str, str], int],
    where: Optional[ast.Expr],
    compiled: bool = False,
    profile: Optional[QueryProfile] = None,
) -> List[_Env]:
    keys = [b.key for b in resolved.bindings]
    t0 = time.perf_counter() if profile is not None else 0.0
    predicate = None if where is None else _env_predicate(where, index_of, compiled)
    out: List[_Env] = []
    for combo in itertools.product(*(relations[k].rows for k in keys)):
        env = dict(zip(keys, combo))
        if predicate is None or predicate(env):
            out.append(env)
    if profile is not None:
        combos = 1
        for k in keys:
            combos *= len(relations[k].rows)
        detail = "filtered cross product" if predicate is not None else "cross product"
        profile.add(OP_CROSS, " x ".join(keys), combos, len(out),
                    time.perf_counter() - t0, detail)
    return out


def _join_conjunctive(
    resolved: ResolvedQuery,
    relations: Dict[str, Relation],
    index_of: Dict[Tuple[str, str], int],
    terms: List[ast.Expr],
    trace: Optional[List[str]] = None,
    compiled: bool = False,
    profile: Optional[QueryProfile] = None,
) -> List[_Env]:
    keys = [b.key for b in resolved.bindings]

    # Push single-relation (and constant) terms down to base scans.
    selection: Dict[str, List[ast.Expr]] = {k: [] for k in keys}
    multi_terms: List[ast.Expr] = []
    constant_terms: List[ast.Expr] = []
    for term in terms:
        term_keys = _term_keys(term)
        if not term_keys:
            constant_terms.append(term)
        elif len(term_keys) == 1:
            selection[next(iter(term_keys))].append(term)
        else:
            multi_terms.append(term)

    # A constant contradiction empties the result outright.
    for term in constant_terms:
        if not _env_predicate(term, index_of, compiled)({}):
            if profile is not None:
                profile.add(OP_FILTER, "constant", 0, 0, 0.0,
                            "constant contradiction, result empty")
            return []

    filtered: Dict[str, List[Row]] = {}
    for key in keys:
        rows = relations[key].rows
        preds = selection[key]
        t0 = time.perf_counter() if profile is not None else 0.0
        if preds:
            conj = ast.And(preds) if len(preds) > 1 else preds[0]
            if compiled:
                # Compiled push-down takes the row tuple directly: column
                # indexes are resolved once and no per-row env is built.
                row_pred = compile_mod.compile_row_predicate(conj, key, index_of)
                kept = [row for row in rows if row_pred(row)]
            else:
                kept = []
                for row in rows:
                    env = {key: row}
                    if evaluate_predicate(conj, _make_lookup(env, index_of)):
                        kept.append(row)
            filtered[key] = kept
            if trace is not None:
                trace.append(
                    f"scan {key}: {len(preds)} pushed predicate(s), "
                    f"{len(rows)} -> {len(kept)} rows"
                )
            if profile is not None:
                profile.add(OP_SCAN, key, len(rows), len(kept),
                            time.perf_counter() - t0,
                            f"{len(preds)} pushed predicate(s)")
        else:
            filtered[key] = list(rows)
            if trace is not None:
                trace.append(f"scan {key}: full ({len(rows)} rows)")
            if profile is not None:
                profile.add(OP_SCAN, key, len(rows), len(rows),
                            time.perf_counter() - t0, "full scan")

    # Greedy join order: start with the smallest filtered relation, then
    # repeatedly add the relation connected by an applicable term (preferring
    # hash-joinable equality terms), falling back to the smallest remaining.
    remaining = set(keys)
    start = min(remaining, key=lambda k: len(filtered[k]))
    remaining.discard(start)
    current_keys: Set[str] = {start}
    envs: List[_Env] = [{start: row} for row in filtered[start]]
    pending = list(multi_terms)
    if trace is not None and len(keys) > 1:
        trace.append(f"join order starts at {start} ({len(envs)} rows)")

    while remaining:
        next_key, equi_terms = _pick_next(current_keys, remaining, pending, filtered)
        remaining.discard(next_key)
        t0 = time.perf_counter() if profile is not None else 0.0
        envs_in = len(envs)
        envs = _join_step(envs, next_key, filtered[next_key], equi_terms, index_of)
        current_keys.add(next_key)
        method = f"hash join on {len(equi_terms)} key(s)" if equi_terms else "nested loop"
        if trace is not None:
            trace.append(f"join {next_key}: {method} -> {len(envs)} rows")
        if profile is not None:
            profile.add(OP_JOIN, next_key, envs_in, len(envs),
                        time.perf_counter() - t0,
                        f"{method}, build side {len(filtered[next_key])} rows")
        # Apply every pending term that is now fully bound.
        applicable = [t for t in pending if _term_keys(t) <= current_keys]
        if applicable:
            pending = [t for t in pending if t not in applicable]
            t0 = time.perf_counter() if profile is not None else 0.0
            before = len(envs)
            conj = ast.And(applicable) if len(applicable) > 1 else applicable[0]
            residual = _env_predicate(conj, index_of, compiled)
            envs = [env for env in envs if residual(env)]
            if profile is not None:
                profile.add(OP_FILTER, next_key, before, len(envs),
                            time.perf_counter() - t0,
                            f"{len(applicable)} residual term(s)")
        if not envs:
            return []

    if pending:
        t0 = time.perf_counter() if profile is not None else 0.0
        before = len(envs)
        conj = ast.And(pending) if len(pending) > 1 else pending[0]
        residual = _env_predicate(conj, index_of, compiled)
        envs = [env for env in envs if residual(env)]
        if profile is not None:
            profile.add(OP_FILTER, "residual", before, len(envs),
                        time.perf_counter() - t0,
                        f"{len(pending)} residual term(s)")
    return envs


def _pick_next(
    current_keys: Set[str],
    remaining: Set[str],
    pending: List[ast.Expr],
    filtered: Dict[str, List[Row]],
) -> Tuple[str, List[ast.Comparison]]:
    """Choose the next relation to join and the equality terms usable for a
    hash join against the current intermediate."""
    best: Optional[str] = None
    best_terms: List[ast.Comparison] = []
    for key in remaining:
        equi = _equi_terms(current_keys, key, pending)
        if equi and (best is None or len(filtered[key]) < len(filtered[best])):
            best = key
            best_terms = equi
    if best is not None:
        return best, best_terms
    # No connecting equality term: smallest remaining relation, cross join.
    fallback = min(remaining, key=lambda k: len(filtered[k]))
    return fallback, []


def _equi_terms(
    current_keys: Set[str], candidate: str, pending: List[ast.Expr]
) -> List[ast.Comparison]:
    out: List[ast.Comparison] = []
    for term in pending:
        if not isinstance(term, ast.Comparison) or term.op != "=":
            continue
        if not isinstance(term.left, ast.ColumnRef) or not isinstance(term.right, ast.ColumnRef):
            continue
        left_key, right_key = term.left.binding_key, term.right.binding_key
        if left_key == candidate and right_key in current_keys:
            out.append(term)
        elif right_key == candidate and left_key in current_keys:
            out.append(term)
    return out


def _join_step(
    envs: List[_Env],
    key: str,
    rows: List[Row],
    equi_terms: List[ast.Comparison],
    index_of: Dict[Tuple[str, str], int],
) -> List[_Env]:
    if not equi_terms:
        return [dict(env, **{key: row}) for env in envs for row in rows]

    # Hash join: build on the new relation, probe with the intermediate.
    new_side: List[ast.ColumnRef] = []
    old_side: List[ast.ColumnRef] = []
    for term in equi_terms:
        if term.left.binding_key == key:  # type: ignore[union-attr]
            new_side.append(term.left)  # type: ignore[arg-type]
            old_side.append(term.right)  # type: ignore[arg-type]
        else:
            new_side.append(term.right)  # type: ignore[arg-type]
            old_side.append(term.left)  # type: ignore[arg-type]

    new_indexes = [index_of[(key, ref.name.lower())] for ref in new_side]
    table: Dict[Tuple[object, ...], List[Row]] = {}
    for row in rows:
        hash_key = tuple(row[i] for i in new_indexes)
        if any(v is None for v in hash_key):
            continue  # NULL never joins
        table.setdefault(hash_key, []).append(row)

    # Probe-side (binding key, column index) pairs are resolved once, not
    # per intermediate tuple.
    old_indexes = [
        (ref.binding_key, index_of[(ref.binding_key, ref.name.lower())])
        for ref in old_side
    ]
    out: List[_Env] = []
    for env in envs:
        probe = tuple(env[k][i] for k, i in old_indexes)
        if any(v is None for v in probe):
            continue
        for row in table.get(probe, ()):  # type: ignore[arg-type]
            merged = dict(env)
            merged[key] = row
            out.append(merged)
    return out


# ---------------------------------------------------------------------------
# Projection and aggregation
# ---------------------------------------------------------------------------


def _project(
    resolved: ResolvedQuery,
    envs: List[_Env],
    index_of: Dict[Tuple[str, str], int],
    compiled: bool = False,
    lineage: bool = False,
) -> QueryResult:
    query = resolved.query

    if query.select_items and query.select_items[0].is_star:
        return _project_star(resolved, envs, lineage)

    if query.has_aggregates or query.group_by:
        return _project_aggregates(resolved, envs, index_of, compiled, lineage)

    columns = [_output_name(item) for item in query.select_items]
    rows: List[Tuple[object, ...]] = []
    if compiled:
        project_row = compile_mod.compile_projection(
            [item.expr for item in query.select_items], index_of
        )
        rows = [project_row(env) for env in envs]
    else:
        for env in envs:
            lookup = _make_lookup(env, index_of)
            rows.append(
                tuple(_scalar_value(item.expr, lookup) for item in query.select_items)  # type: ignore[arg-type]
            )
    lineages = _env_lineages(resolved, envs) if lineage else None
    if query.distinct:
        if lineages is not None:
            rows, lineages = _distinct_with_lineage(rows, lineages)
        else:
            rows = _distinct(rows)
    return QueryResult(columns, rows, lineages)


def _scalar_value(expr: ast.Expr, lookup: Callable[[ast.ColumnRef], object]) -> object:
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.ColumnRef):
        return lookup(expr)
    raise EngineError(f"cannot project expression {expr!r}")


def _project_star(
    resolved: ResolvedQuery, envs: List[_Env], lineage: bool = False
) -> QueryResult:
    columns: List[str] = []
    for binding in resolved.bindings:
        prefix = f"{binding.key}." if len(resolved.bindings) > 1 else ""
        columns.extend(f"{prefix}{c.name}" for c in binding.schema.columns)
    rows: List[Tuple[object, ...]] = []
    for env in envs:
        row: List[object] = []
        for binding in resolved.bindings:
            row.extend(env[binding.key])
        rows.append(tuple(row))
    lineages = _env_lineages(resolved, envs) if lineage else None
    if resolved.query.distinct:
        if lineages is not None:
            rows, lineages = _distinct_with_lineage(rows, lineages)
        else:
            rows = _distinct(rows)
    return QueryResult(columns, rows, lineages)


def _project_aggregates(
    resolved: ResolvedQuery,
    envs: List[_Env],
    index_of: Dict[Tuple[str, str], int],
    compiled: bool = False,
    lineage: bool = False,
) -> QueryResult:
    query = resolved.query
    group_exprs = list(query.group_by)

    plain_items = [
        item
        for item in query.select_items
        if not isinstance(item.expr, (ast.AggregateCall, ast.Literal))
    ]
    for item in plain_items:
        if item.expr not in group_exprs:
            raise EngineError(
                f"column {_output_name(item)!r} must appear in GROUP BY "
                "when aggregates are present"
            )

    group_getters = [_env_scalar(e, index_of, compiled) for e in group_exprs]
    groups: Dict[Tuple[object, ...], List[_Env]] = {}
    order: List[Tuple[object, ...]] = []
    for env in envs:
        group_key = tuple(getter(env) for getter in group_getters)
        if group_key not in groups:
            groups[group_key] = []
            order.append(group_key)
        groups[group_key].append(env)

    if not group_exprs and not groups:
        # Aggregates over an empty input produce a single row.
        groups[()] = []
        order.append(())

    columns = [_output_name(item) for item in query.select_items]
    probes = None
    if lineage:
        from repro.engine.lineage import env_lineage, lineage_plan_for, union_lineage

        probes = lineage_plan_for(resolved).probes
    rows: List[Tuple[object, ...]] = []
    lineages: Optional[List[FrozenSet[str]]] = [] if lineage else None
    for group_key in order:
        member_envs = groups[group_key]
        out_row: List[object] = []
        for item in query.select_items:
            expr = item.expr
            if isinstance(expr, ast.AggregateCall):
                out_row.append(_aggregate(expr, member_envs, index_of, compiled))
            elif isinstance(expr, ast.Literal):
                out_row.append(expr.value)
            else:
                out_row.append(group_key[group_exprs.index(expr)])  # type: ignore[arg-type]
        rows.append(tuple(out_row))
        if lineages is not None:
            # An aggregate row derives from every member of its group.
            lineages.append(
                union_lineage(env_lineage(env, probes) for env in member_envs)
            )
    if query.distinct:
        if lineages is not None:
            rows, lineages = _distinct_with_lineage(rows, lineages)
        else:
            rows = _distinct(rows)
    return QueryResult(columns, rows, lineages)


def _aggregate(
    call: ast.AggregateCall,
    envs: List[_Env],
    index_of: Dict[Tuple[str, str], int],
    compiled: bool = False,
) -> object:
    if call.argument is None:  # COUNT(*)
        return len(envs)
    getter = _env_scalar(call.argument, index_of, compiled)
    values: List[object] = []
    for env in envs:
        value = getter(env)
        if value is not None:
            values.append(value)
    if call.distinct:
        values = list(dict.fromkeys(values))
    if call.func == "COUNT":
        return len(values)
    if not values:
        return None
    if call.func == "SUM":
        return sum(_require_number(v) for v in values)
    if call.func == "AVG":
        return sum(_require_number(v) for v in values) / len(values)
    if call.func == "MIN":
        return min(values)  # type: ignore[type-var]
    if call.func == "MAX":
        return max(values)  # type: ignore[type-var]
    raise EngineError(f"unknown aggregate {call.func!r}")


def _require_number(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EngineError(f"SUM/AVG over non-numeric value {value!r}")
    return value


def _output_name(item: ast.SelectItem) -> str:
    if item.alias:
        return item.alias
    expr = item.expr
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Literal):
        return str(expr.value)
    if isinstance(expr, ast.AggregateCall):
        if expr.argument is None:
            return f"{expr.func}(*)"
        return f"{expr.func}({expr.argument.display()})"  # type: ignore[union-attr]
    return repr(expr)


def _distinct(rows: List[Tuple[object, ...]]) -> List[Tuple[object, ...]]:
    seen: Set[Tuple[object, ...]] = set()
    out: List[Tuple[object, ...]] = []
    for row in rows:
        if row in seen:
            continue
        seen.add(row)
        out.append(row)
    return out


def _env_lineages(
    resolved: ResolvedQuery, envs: List[_Env]
) -> List[FrozenSet[str]]:
    from repro.engine.lineage import env_lineage, lineage_plan_for

    probes = lineage_plan_for(resolved).probes
    return [env_lineage(env, probes) for env in envs]


def _distinct_with_lineage(
    rows: List[Tuple[object, ...]], lineages: List[FrozenSet[str]]
) -> Tuple[List[Tuple[object, ...]], List[FrozenSet[str]]]:
    """DISTINCT that unions the lineages of the duplicates it collapses."""
    position: Dict[Tuple[object, ...], int] = {}
    out_rows: List[Tuple[object, ...]] = []
    merged: List[Set[str]] = []
    for row, lineage in zip(rows, lineages):
        at = position.get(row)
        if at is None:
            position[row] = len(out_rows)
            out_rows.append(row)
            merged.append(set(lineage))
        else:
            merged[at] |= lineage
    return out_rows, [frozenset(s) for s in merged]
