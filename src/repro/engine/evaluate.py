"""Query execution against in-memory relations.

The executor handles the full supported dialect. Conjunctive WHERE clauses
get a lightweight plan — per-relation predicate push-down (a key lookup
where :meth:`Relation.lookup` answers), greedy join ordering, hash joins on
equality join terms — while arbitrary boolean WHERE clauses fall back to an
(incrementally built) cross product with the predicate applied at the end.
Both paths produce identical results; the planner only changes the work
done to get there.

What cuts across the operators — relations, column index map, expression
lowering, profile, lineage probes, row budget, output binding — is fixed
once per query in :class:`_Execution`, whose methods are the operators.

``LIMIT n`` is a **row budget** when the output is the join output projected
one-to-one in pipeline order (no ``ORDER BY``, aggregate, ``GROUP BY`` or
``DISTINCT``): the operator that produces the final tuples — a single-relation
scan, the last join step (hash or nested loop) with its residual filter, the
general path's filtered cross product — stops at its *n*-th row
(:meth:`_Execution.take`), so a ``SELECT 1 ... LIMIT 1`` existence guard
costs its first witness. Build sides, earlier join steps and the scans a join
order is chosen from are needed whole and still materialise. Any other query
has no budget and ``run()``'s final slice is the one enforcement; with one,
the rows are the first *n* the pipeline would have produced anyway.

The **output binding** is the one relation every select item reads, when no
other relation can show in the output: no aggregate, ``GROUP BY``, ``ORDER
BY`` or lineage, and one relation or ``DISTINCT``. Alone, its scanned rows
go straight to a projection over the bare row, with no env per row. In a
join whose terms touching it are all ``col = col`` links to other bindings,
the query is Theorem 4's semijoin: one set of the others' link keys (one
relation's scanned rows read by an ``itemgetter``, several joined greedily;
NULL never joins) keeps its scanned rows whose key is in it. One ``join``
operator, ``semijoin on k key(s)``; any other query runs the env pipeline.

Two lowerings exist: *compiled* (default) turns each expression once per
query into closed-over lambdas (:mod:`repro.engine.compile`); *interpreted*
(:class:`_Interpreted`) walks the AST per row and is the semantic oracle
that ``tools/fuzz_engine.py`` differentially checks against it (and
SQLite). The oracle is selected per call, ``execute_query(...,
compiled=False)``; there is no process-wide switch.

The profile is the execution's only record of itself: ``execute_query``
finishes the one it is given and returns it as :attr:`QueryResult.profile`,
and both EXPLAIN forms are renderings of it.

``execute_sql`` additionally fronts parse+resolve with the process-wide
resolved-query cache (:mod:`repro.engine.cache`), so repeated SQL strings
— recency subqueries, guards, benchmark loops — skip the parser entirely.
"""

from __future__ import annotations

import itertools
import math
import time
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.engine import compile as compile_mod
from repro.engine.cache import get_cache
from repro.engine.compile import Env as _Env, IndexMap as _IndexMap
from repro.engine.lineage import annotate_profile, env_lineage, lineage_plan_for, union_lineage
from repro.engine.profile import (
    OP_AGGREGATE,
    OP_CROSS,
    OP_FILTER,
    OP_JOIN,
    OP_LIMIT,
    OP_PROJECT,
    OP_SCAN,
    OP_SORT,
    PIPELINE_CONJUNCTIVE,
    PIPELINE_GENERAL,
    QueryProfile,
)
from repro.engine.relation import Database, Relation, Row
from repro.errors import EngineError, UnsupportedQueryError
from repro.predicates.dnf import basic_terms_of
from repro.predicates.evaluate import _scalar, evaluate_predicate
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import ResolvedQuery, resolve


class QueryResult:
    """Result of executing a query: column names plus rows of tuples.

    ``lineage`` is ``None`` unless the query ran with lineage enabled
    (``execute_sql(..., lineage=True)``); then it is a list parallel to
    ``rows`` of frozensets naming the data sources whose tuples produced
    each row (see :mod:`repro.engine.lineage`).

    ``profile`` is the :class:`~repro.engine.profile.QueryProfile` the
    execution recorded, or ``None`` when it ran unprofiled (telemetry off,
    or a backend that does not profile, e.g. SQLite).
    """

    __slots__ = ("columns", "rows", "lineage", "profile")

    def __init__(
        self,
        columns: List[str],
        rows: List[Tuple[object, ...]],
        lineage: Optional[List[FrozenSet[str]]] = None,
    ) -> None:
        self.columns = columns
        self.rows = rows
        self.lineage = lineage
        self.profile: Optional[QueryProfile] = None

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
    compiled: bool = True,
    cache: bool = True,
    in_snapshot: bool = False,
    lineage: bool = False,
    statement: Optional[ResolvedQuery] = None,
) -> QueryResult:
    """Parse, resolve and execute a SQL string against ``db``.

    ``telemetry`` (a :class:`repro.obs.Telemetry`, enabled) additionally
    builds a per-operator :class:`~repro.engine.profile.QueryProfile`,
    stamped with the current trace id, attached to the result and recorded
    into ``telemetry.profiles``, and counts the base-table rows the
    profile's scans read; the memory backend threads its telemetry through
    here. ``in_snapshot`` marks the profile as snapshot-scoped.

    ``cache`` (default True) routes parse+resolve through the process-wide
    resolved-query cache; pass False for throwaway catalogs (e.g. the
    temp-table shadow database) whose generations would only pollute it.
    ``compiled=False`` runs this call on the interpreted oracle.
    ``lineage`` (default False) attaches per-row source lineage to the
    result (:attr:`QueryResult.lineage`, see :mod:`repro.engine.lineage`).
    ``statement``, the planner's resolution of ``sql``, replaces parsing it
    on a cache miss while it is current.
    """
    cache_hit: Optional[bool] = None
    if cache:
        resolved, cache_hit = get_cache().lookup(sql, db.catalog, telemetry, statement)
    else:
        resolved = resolve(parse_query(sql), db.catalog)
    if telemetry is None or not telemetry.enabled:
        return execute_query(db, resolved, compiled=compiled, lineage=lineage)
    from repro.obs import instrument as obs

    profile = QueryProfile(sql)
    profile.cache_hit = cache_hit
    profile.snapshot = in_snapshot
    span = telemetry.tracer.current_span()
    if span is not None and span.trace_id:
        profile.trace_id = span.trace_id_hex
    result = execute_query(db, resolved, compiled=compiled, profile=profile, lineage=lineage)
    scanned = sum(op.rows_in for op in profile.operators if op.op == OP_SCAN)
    telemetry.count(obs.BACKEND_ROWS_SCANNED, scanned, backend="memory")
    telemetry.profiles.record(profile)
    return result


def execute_query(
    db: Database,
    resolved: ResolvedQuery,
    relation_override: Optional[Dict[str, Relation]] = None,
    compiled: bool = True,
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
    compiled:
        ``True`` (default) runs the compiled predicate/projection path,
        ``False`` the interpreted oracle.
    profile:
        Optional :class:`~repro.engine.profile.QueryProfile` that receives
        one structured operator record (rows in/out, wall seconds,
        selectivity) per executed plan step plus the join pipeline that
        ran, is finished with the query-level totals and comes back as
        :attr:`QueryResult.profile`. ``None`` (default) skips all
        profiling work.
    lineage:
        When True, attach per-row source lineage to the result
        (:attr:`QueryResult.lineage`); see :mod:`repro.engine.lineage`.
    """
    return _Execution(db, resolved, relation_override, compiled, profile, lineage).run()


class _Interpreted:
    """The oracle's lowering: the five entry points of
    :mod:`repro.engine.compile`, each walking the AST per row."""

    @staticmethod
    def compile_predicate(expr: ast.Expr, index_of: _IndexMap) -> Callable[[_Env], bool]:
        return lambda env: evaluate_predicate(expr, _make_lookup(env, index_of))

    @staticmethod
    def compile_scalar(expr: ast.Expr, index_of: _IndexMap) -> Callable[[_Env], object]:
        return lambda env: _scalar(expr, _make_lookup(env, index_of))

    @staticmethod
    def compile_row_predicate(
        expr: ast.Expr, binding_key: str, index_of: _IndexMap
    ) -> Callable[[Row], bool]:
        return lambda row: evaluate_predicate(
            expr, _make_lookup({binding_key: row}, index_of)
        )

    @staticmethod
    def compile_projection(
        exprs: Sequence[ast.Expr], index_of: _IndexMap
    ) -> Callable[[_Env], Tuple[object, ...]]:
        getters = [_Interpreted.compile_scalar(expr, index_of) for expr in exprs]
        return lambda env: tuple(getter(env) for getter in getters)

    @staticmethod
    def compile_row_projection(
        exprs: Sequence[ast.Expr], binding_key: str, index_of: _IndexMap
    ) -> Callable[[Row], Tuple[object, ...]]:
        project = _Interpreted.compile_projection(exprs, index_of)
        return lambda row: project({binding_key: row})


class _SortKey:
    """SQLite-style ordering: NULL < numbers < text; stable across types."""

    __slots__ = ("rank", "value")

    def __init__(self, value: object) -> None:
        if value is None:
            self.rank, self.value = 0, 0
        elif isinstance(value, (int, float)):
            self.rank, self.value = 1, value
        else:
            self.rank, self.value = 2, str(value)

    def __lt__(self, other: "_SortKey") -> bool:
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.value < other.value  # type: ignore[operator]


def _sorted_by(items, keys: List[Tuple[Callable, bool]]) -> list:
    """``items`` ordered by ``(getter, descending)`` keys, major key first.
    Stable sorts applied minor-key-first honor mixed ASC/DESC directions."""
    out = list(items)
    for getter, descending in reversed(keys):
        out.sort(key=lambda item, getter=getter: _SortKey(getter(item)), reverse=descending)
    return out


def _build_index_map(resolved: ResolvedQuery) -> _IndexMap:
    index_of: _IndexMap = {}
    for binding in resolved.bindings:
        for i, column in enumerate(binding.schema.columns):
            index_of[(binding.key, column.name.lower())] = i
    return index_of


def _make_lookup(env: _Env, index_of: _IndexMap) -> Callable[[ast.ColumnRef], object]:
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


def _conjoin(terms: List[ast.Expr]) -> ast.Expr:
    return ast.And(terms) if len(terms) > 1 else terms[0]


class _Execution:
    """One query execution: what is fixed once, and the operators over it.

    ``lower`` is the expression lowering — :mod:`repro.engine.compile` or
    :class:`_Interpreted` — chosen here and nowhere else; ``lineage_plan``
    holds the lineage probes, or ``None`` on a lineage-free execution;
    ``budget`` is the row budget and ``output`` the output binding (module
    docstring) or ``None``; the join hands on envs once it clears ``output``;
    :meth:`clock` / :meth:`record` are the only way an operator reports
    itself, and cost nothing when there is no profile. A new cross-cutting
    concern is one more field here, not one more parameter on every operator.
    """

    def __init__(
        self,
        db: Database,
        resolved: ResolvedQuery,
        relation_override: Optional[Dict[str, Relation]],
        compiled: bool,
        profile: Optional[QueryProfile],
        lineage: bool,
    ) -> None:
        self.resolved = resolved
        self.query = resolved.query
        self.keys = [b.key for b in resolved.bindings]
        self.relations: Dict[str, Relation] = {}
        for binding in resolved.bindings:
            override = (relation_override or {}).get(binding.key)
            self.relations[binding.key] = (
                override if override is not None else db.relation(binding.schema.name)
            )
        self.index_of = _build_index_map(resolved)
        self.lower = compile_mod if compiled else _Interpreted
        self.profile = profile
        self.lineage_plan = lineage_plan_for(resolved) if lineage else None
        query = self.query
        # Aggregation and DISTINCT reshape the joined tuples; otherwise they
        # project one-to-one, in pipeline order.
        self.reshaped = bool(query.has_aggregates or query.group_by or query.distinct)
        # The row budget: LIMIT, when the first n joined tuples are the answer
        # (LIMIT 0 takes none: there is no row to stop at).
        self.budget = None if query.order_by or self.reshaped else query.limit or None
        self.output = None if lineage else _output_binding(query, self.keys)

    # -- profiling -----------------------------------------------------------

    def clock(self) -> float:
        return time.perf_counter() if self.profile is not None else 0.0

    def record(
        self, op: str, target: str, rows_in: int, rows_out: int, since: float, detail: str,
        available: Optional[int] = None,
    ) -> None:
        """One operator record, timed from ``since`` (a :meth:`clock` value)."""
        if self.profile is not None:
            self.profile.add(
                op, target, rows_in, rows_out, time.perf_counter() - since, detail, available
            )

    def take(
        self, op: str, target: str, source: Iterable, available: int, since: float,
        detail: str, keep: Optional[Callable] = None, through: Optional[Callable] = None,
    ) -> list:
        """A lazy operator: the items of ``source`` — sent ``through`` an
        expansion, if any — that pass ``keep``, and under a row budget only
        the first ``budget`` of them, drawing no more of ``source`` than
        finding those takes. A budgeted record's rows in are the rows it
        examined (counted for a profile only); when the budget cut it short
        it says so, and how many were ``available``."""
        counting = self.budget and self.profile is not None
        drawn = 0

        def counted() -> Iterable:
            nonlocal drawn
            for drawn, item in enumerate(source, 1):
                yield item

        items = counted() if counting else source
        if through is not None:
            items = through(items)
        if keep is not None:
            items = filter(keep, items)
        out = list(itertools.islice(items, self.budget))
        stopped = len(out) == self.budget
        self.record(
            op, target, drawn if counting else available, len(out), since,
            f"{detail}, stopped at LIMIT {self.budget}" if stopped else detail,
            available if stopped else None,
        )
        return out

    # -- the plan --------------------------------------------------------------

    def run(self) -> QueryResult:
        query = self.query
        started = self.clock()
        joined = self.join()
        # ORDER BY sorts the joined tuples when they project one-to-one,
        # the output rows when aggregation or DISTINCT reshapes them.
        if query.order_by and not self.reshaped:
            joined = self.sort_envs(joined)
        result = self.project(joined)
        if query.order_by and self.reshaped:
            self.sort_output(result)
        if query.limit is not None:
            t0 = self.clock()
            before = len(result.rows)
            result.rows = result.rows[: query.limit]
            if result.lineage is not None:
                result.lineage = result.lineage[: query.limit]
            self.record(OP_LIMIT, "output", before, len(result.rows), t0,
                        f"LIMIT {query.limit}")
        profile = self.profile
        if profile is not None:
            if self.lineage_plan is not None:
                annotate_profile(profile, self.lineage_plan, result.lineage)
            profile.pipeline = self.pipeline
            profile.finish(result, time.perf_counter() - started)
            result.profile = profile
        return result

    def sort_envs(self, envs: List[_Env]) -> List[_Env]:
        t0 = self.clock()
        out = _sorted_by(envs, [
            (self.lower.compile_scalar(item.expr, self.index_of), item.descending)
            for item in self.query.order_by
        ])
        self.record(OP_SORT, "rows", len(out), len(out), t0, "ORDER BY before projection")
        return out

    def sort_output(self, result: QueryResult) -> None:
        """ORDER BY over aggregated/distinct output: keys must name output
        columns (alias or plain column name)."""
        t0 = self.clock()
        rows = result.rows
        lowered = [c.lower() for c in result.columns]
        keys: List[Tuple[Callable, bool]] = []
        for item in self.query.order_by:
            if not isinstance(item.expr, ast.ColumnRef):
                raise EngineError("ORDER BY supports column references only")
            name = item.expr.name.lower()
            if name not in lowered:
                raise EngineError(
                    f"ORDER BY column {item.expr.display()!r} must appear in the "
                    "select list of an aggregated or DISTINCT query"
                )
            keys.append((lambda at, i=lowered.index(name): rows[at][i], item.descending))
        # Lineage is positional: one index permutation co-sorts it with the
        # rows it annotates.
        order = _sorted_by(range(len(rows)), keys)
        result.rows = [rows[at] for at in order]
        if result.lineage is not None:
            result.lineage = [result.lineage[at] for at in order]
        self.record(OP_SORT, "output", len(rows), len(rows), t0,
                    "ORDER BY over aggregated output")

    # -- join pipeline -------------------------------------------------------

    def join(self) -> list:
        where = self.query.where
        try:
            terms = [] if where is None else basic_terms_of(where)
        except UnsupportedQueryError:
            terms = None
        if terms is None:
            self.pipeline = PIPELINE_GENERAL
            self.output = None
            return self._join_general(where)
        self.pipeline = PIPELINE_CONJUNCTIVE
        return self._join_conjunctive(terms)

    def _join_general(self, where: ast.Expr) -> List[_Env]:
        keys = self.keys
        t0 = self.clock()
        predicate = self.lower.compile_predicate(where, self.index_of)
        sides = [self.relations[k].rows for k in keys]
        envs = (dict(zip(keys, combo)) for combo in itertools.product(*sides))
        return self.take(OP_CROSS, " x ".join(keys), envs, math.prod(map(len, sides)), t0,
                         "filtered cross product", keep=predicate)

    def _join_conjunctive(self, terms: List[ast.Expr]) -> list:
        keys = self.keys

        # Push single-relation (and constant) terms down to base scans.
        selection: Dict[str, List[ast.Expr]] = {k: [] for k in keys}
        pending: List[ast.Expr] = []
        for term in terms:
            term_keys = _term_keys(term)
            if len(term_keys) > 1:
                pending.append(term)
            elif term_keys:
                selection[next(iter(term_keys))].append(term)
            elif not self.lower.compile_predicate(term, self.index_of)({}):
                # A constant contradiction empties the result outright.
                self.record(OP_FILTER, "constant", 0, 0, self.clock(),
                            "constant contradiction, result empty")
                return []

        filtered = {key: self._scan(key, selection[key]) for key in keys}
        out = self.output
        if out is not None:
            if len(keys) == 1:
                return filtered[out]
            links = [term for term in pending if out in _term_keys(term)]
            if all(_is_equi(term) for term in links):
                return self._semijoin(filtered, links, pending)
            self.output = None
        return self._join_ordered(keys, filtered, pending)

    def _join_ordered(
        self, keys: List[str], filtered: Dict[str, List[Row]], pending: List[ast.Expr]
    ) -> List[_Env]:
        # Greedy join order: start with the smallest filtered relation, then
        # repeatedly add the relation connected by an applicable term (preferring
        # hash-joinable equality terms), falling back to the smallest remaining.
        remaining = set(keys)
        start = min(remaining, key=lambda k: len(filtered[k]))
        remaining.discard(start)
        current_keys: Set[str] = {start}
        envs: List[_Env] = [{start: row} for row in filtered[start]]

        while remaining:
            next_key, equi_terms = _pick_next(current_keys, remaining, pending, filtered)
            remaining.discard(next_key)
            t0 = self.clock()
            build = filtered[next_key]
            current_keys.add(next_key)
            method = f"hash join on {len(equi_terms)} key(s)" if equi_terms else "nested loop"
            detail = f"{method}, build side {len(build)} rows"
            # Every pending term that is now fully bound applies to this step.
            applicable = [t for t in pending if _term_keys(t) <= current_keys]
            residual = None
            if applicable:
                pending = [t for t in pending if t not in applicable]
                residual = self.lower.compile_predicate(_conjoin(applicable), self.index_of)
            if self.budget and not remaining:
                # The last step's output is final: probe, join and residual
                # filter run as one lazy operator (the build side, like every
                # earlier step, was needed whole).
                if applicable:
                    detail += f", {len(applicable)} residual term(s)"
                return self.take(
                    OP_JOIN, next_key, envs, len(envs), t0, detail, keep=residual,
                    through=lambda probe: _join_step(
                        probe, next_key, build, equi_terms, self.index_of),
                )
            envs_in = len(envs)
            envs = list(_join_step(envs, next_key, build, equi_terms, self.index_of))
            self.record(OP_JOIN, next_key, envs_in, len(envs), t0, detail)
            if applicable:
                t0, joined = self.clock(), envs
                envs = [env for env in joined if residual(env)]
                self.record(OP_FILTER, next_key, len(joined), len(envs), t0,
                            f"{len(applicable)} residual term(s)")
            if not envs:
                return []
        # Every multi-relation term was bound by the last step at the latest.
        return envs

    def _semijoin(
        self, filtered: Dict[str, List[Row]], links: List[ast.Comparison], terms: List[ast.Expr]
    ) -> List[Row]:
        """The output binding's rows with a partner in the join of the others
        (under the pending ``terms`` other than ``links``, which tie the sides).
        One other binding is its scanned rows, keyed by one ``itemgetter``."""
        out = self.output
        others = [k for k in self.keys if k != out]
        refs = [sorted((t.left, t.right), key=lambda r: r.binding_key != out) for t in links]
        mine = [self.index_of[(out, ref.name.lower())] for ref, _ in refs]
        theirs = [(r.binding_key, self.index_of[(r.binding_key, r.name.lower())]) for _, r in refs]
        key_of = itemgetter(*mine) if mine else lambda row: ()
        if len(others) == 1:  # then every pending term is a link
            partners = filtered[others[0]]
            get = itemgetter(*[i for _, i in theirs]) if theirs else key_of
        else:
            partners = self._join_ordered(others, filtered, [t for t in terms if t not in links])
            get = ((lambda env, k=theirs[0][0], i=theirs[0][1]: env[k][i]) if len(theirs) == 1
                   else lambda env: tuple([env[k][i] for k, i in theirs]))
        t0, rows = self.clock(), filtered[out]
        found = set(map(get, partners))
        # NULL never joins, as in a hash join (one key is a bare value, k a tuple).
        if len(mine) == 1:
            found.discard(None)
        else:
            found = {key for key in found if None not in key}
        kept = [row for row in rows if key_of(row) in found]
        self.record(OP_JOIN, out, len(rows), len(kept), t0,
                    f"semijoin on {len(mine)} key(s), build side {len(partners)} rows")
        return kept

    def _scan(self, key: str, preds: List[ast.Expr]) -> List[Row]:
        relation = self.relations[key]
        rows = relation.rows
        t0 = self.clock()
        keep, detail = None, "full scan"
        if preds:
            # The push-down predicate takes the row tuple directly: no
            # per-row env flows through the scan. On a keyed relation it
            # re-checks the rows a key lookup found, in position order.
            keep = self.lower.compile_row_predicate(_conjoin(preds), key, self.index_of)
            detail = f"{len(preds)} pushed predicate(s)"
            found = relation.keyed and self._lookup(relation, key, preds, keep)
            if found:
                rows, keep, how = found
                detail = f"{how}, {detail}"
        if self.budget and len(self.keys) == 1:
            # The only relation: its scan produces the final rows.
            return self.take(OP_SCAN, key, rows, len(rows), t0, detail, keep=keep)
        kept = list(rows) if keep is None else [row for row in rows if keep(row)]
        # An index complement (pushed terms, none left to pass) read them all.
        read = len(relation) if preds and keep is None else len(rows)
        self.record(OP_SCAN, key, read, len(kept), t0, detail)
        return kept

    def _lookup(
        self, relation: Relation, key: str, preds: List[ast.Expr], keep: Callable
    ) -> Optional[Tuple[List[Row], Optional[Callable], str]]:
        """``(rows, the check left for them, how)`` through ``relation``'s key
        index: the candidates of a pushed ``col = c`` / ``col IN (c, ...)``,
        or what the only pushed ``col <> c`` / ``col NOT IN (c, ...)`` keeps
        (see :mod:`repro.engine.relation`); ``None`` when no term is one."""
        for term in preds:
            if isinstance(term, ast.InList):
                ref, literals, negated = term.expr, term.values, term.negated
            elif isinstance(term, ast.Comparison) and term.op in ("=", "<>"):
                ref, literals, negated = term.left, (term.right,), term.op == "<>"
                if isinstance(ref, ast.Literal):  # c = col
                    ref, literals = term.right, (term.left,)
            else:
                continue
            if isinstance(ref, ast.ColumnRef) and all(isinstance(v, ast.Literal) for v in literals):
                column = self.index_of[(key, ref.name.lower())]
                values = [v.value for v in literals]
                if not negated:
                    rows = relation.lookup(column, values)
                    if rows is not None:
                        return rows, keep, "index lookup"
                elif len(preds) == 1 and None not in values:
                    rows = relation.complement(column, values)
                    if rows is not None:
                        return rows, None, "index complement"
        return None

    # -- projection and aggregation ------------------------------------------

    def project(self, joined: list) -> QueryResult:
        query = self.query
        t0 = self.clock()
        op, detail = OP_PROJECT, "select list"
        if query.select_items and query.select_items[0].is_star:
            detail = "select *"
            bindings = self.resolved.bindings
            prefixed = len(bindings) > 1
            columns = [
                f"{b.key}.{c.name}" if prefixed else c.name
                for b in bindings
                for c in b.schema.columns
            ]
            rows = joined if self.output is not None else [
                tuple(itertools.chain.from_iterable(env[key] for key in self.keys))
                for env in joined
            ]
            lineages = self.env_lineages(joined)
        else:
            columns = [_output_name(item) for item in query.select_items]
            if query.has_aggregates or query.group_by:
                op, detail = OP_AGGREGATE, "aggregate/group"
                rows, lineages = self._aggregate_groups(joined)
            else:
                exprs = [item.expr for item in query.select_items]
                project_row = (
                    self.lower.compile_row_projection(exprs, self.output, self.index_of)
                    if self.output is not None
                    else self.lower.compile_projection(exprs, self.index_of)
                )
                # A pass-through's output is the rows, copied: never a relation's list.
                rows = list(joined if project_row is None else map(project_row, joined))
                lineages = self.env_lineages(joined)
        if query.distinct:
            detail += ", distinct"
            rows, lineages = _distinct(rows, lineages)
        self.record(op, "output", len(joined), len(rows), t0, detail)
        return QueryResult(columns, rows, lineages)

    def env_lineages(self, envs: List[_Env]) -> Optional[List[FrozenSet[str]]]:
        if self.lineage_plan is None:
            return None
        probes = self.lineage_plan.probes
        return [env_lineage(env, probes) for env in envs]

    def _aggregate_groups(
        self, envs: List[_Env]
    ) -> Tuple[List[Tuple[object, ...]], Optional[List[FrozenSet[str]]]]:
        query = self.query
        group_exprs = list(query.group_by)
        for item in query.select_items:
            if isinstance(item.expr, (ast.AggregateCall, ast.Literal)):
                continue
            if item.expr not in group_exprs:
                raise EngineError(
                    f"column {_output_name(item)!r} must appear in GROUP BY "
                    "when aggregates are present"
                )

        group_getters = [
            self.lower.compile_scalar(e, self.index_of) for e in group_exprs
        ]
        # Dicts keep insertion order: groups come out in first-seen order.
        groups: Dict[Tuple[object, ...], List[_Env]] = {}
        for env in envs:
            group_key = tuple(getter(env) for getter in group_getters)
            groups.setdefault(group_key, []).append(env)
        if not group_exprs and not groups:
            # Aggregates over an empty input produce a single row.
            groups[()] = []

        rows: List[Tuple[object, ...]] = []
        for group_key, member_envs in groups.items():
            out_row: List[object] = []
            for item in query.select_items:
                expr = item.expr
                if isinstance(expr, ast.AggregateCall):
                    out_row.append(self._aggregate(expr, member_envs))
                elif isinstance(expr, ast.Literal):
                    out_row.append(expr.value)
                else:
                    out_row.append(group_key[group_exprs.index(expr)])  # type: ignore[arg-type]
            rows.append(tuple(out_row))
        if self.lineage_plan is None:
            return rows, None
        # An aggregate row derives from every member of its group.
        return rows, [
            union_lineage(self.env_lineages(member_envs))
            for member_envs in groups.values()
        ]

    def _aggregate(self, call: ast.AggregateCall, envs: List[_Env]) -> object:
        if call.argument is None:  # COUNT(*)
            return len(envs)
        getter = self.lower.compile_scalar(call.argument, self.index_of)
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
    if best is None:
        # No connecting equality term: smallest remaining relation, cross join.
        best = min(remaining, key=lambda k: len(filtered[k]))
    return best, best_terms


def _equi_terms(
    current_keys: Set[str], candidate: str, pending: List[ast.Expr]
) -> List[ast.Comparison]:
    """``pending``'s ``col = col`` terms between ``candidate`` and a bound key."""
    bound = current_keys | {candidate}
    return [t for t in pending if _is_equi(t) and candidate in _term_keys(t) <= bound]


def _is_equi(term: ast.Expr) -> bool:
    """``col = col`` — on a pending term, an equality between two bindings."""
    return isinstance(term, ast.Comparison) and term.op == "=" and all(
        isinstance(side, ast.ColumnRef) for side in (term.left, term.right))


def _output_binding(query: ast.Query, keys: List[str]) -> Optional[str]:
    """The output binding (module docstring), or ``None``."""
    if query.has_aggregates or query.group_by or query.order_by:
        return None
    if len(keys) == 1:
        return keys[0]
    if not query.distinct or any(item.is_star for item in query.select_items):
        return None
    read = {ref.binding_key for item in query.select_items for ref in ast.column_refs(item.expr)}
    return read.pop() if len(read) == 1 else None


def _join_step(
    envs: Iterable[_Env],
    key: str,
    rows: List[Row],
    equi_terms: List[ast.Comparison],
    index_of: _IndexMap,
) -> Iterable[_Env]:
    """``envs`` joined to ``rows`` under ``key``, lazily and in probe order
    (the caller materialises every step but a budgeted last one)."""
    # Hash join: build on the new relation, probe with the intermediate.
    # Each equality term is oriented as (new relation's ref, bound ref). With
    # no term every row shares the empty key and the probe is a nested loop.
    sides: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = [
        (t.left, t.right) if t.left.binding_key == key else (t.right, t.left)  # type: ignore
        for t in equi_terms
    ]
    new_indexes = [index_of[(key, new.name.lower())] for new, _ in sides]
    table: Dict[Tuple[object, ...], List[Row]] = {}
    for row in rows:
        hash_key = tuple(row[i] for i in new_indexes)
        if any(v is None for v in hash_key):
            continue  # NULL never joins
        table.setdefault(hash_key, []).append(row)

    # Probe-side (binding key, column index) pairs are resolved once, not
    # per intermediate tuple.
    old_indexes = [
        (old.binding_key, index_of[(old.binding_key, old.name.lower())])
        for _, old in sides
    ]
    for env in envs:
        probe = tuple(env[k][i] for k, i in old_indexes)
        if any(v is None for v in probe):
            continue
        for row in table.get(probe, ()):  # type: ignore[arg-type]
            merged = dict(env)
            merged[key] = row
            yield merged


def _require_number(value: object) -> float:
    if not isinstance(value, (int, float)):
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


def _distinct(
    rows: List[Tuple[object, ...]], lineages: Optional[List[FrozenSet[str]]]
) -> Tuple[List[Tuple[object, ...]], Optional[List[FrozenSet[str]]]]:
    """DISTINCT, first occurrence kept; with lineage, each kept row carries
    the union of the lineages of the duplicates it stands for."""
    if lineages is None:
        return list(dict.fromkeys(rows)), None
    position: Dict[Tuple[object, ...], int] = {}
    merged: List[Set[str]] = []
    for row, lineage in zip(rows, lineages):
        at = position.setdefault(row, len(position))
        if at == len(merged):
            merged.append(set(lineage))
        else:
            merged[at] |= lineage
    return list(position), [frozenset(s) for s in merged]
