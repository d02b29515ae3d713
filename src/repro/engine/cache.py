"""The resolved-query cache: parse + resolve once per (SQL, catalog state).

A report runs its plan's generated subquery and guard statements, and
``trac stats`` / the bench sweeps repeat user queries verbatim. This module
keeps a process-wide LRU of :class:`ResolvedQuery` objects keyed by
``(catalog.identity, sql)``. The planner's statements skip the text: it
resolves the trees it built (:func:`resolve_statement`,
``RelevancePlan.statements``), and a lookup that misses on one's text stores
that resolution, while it is current, instead of parsing the text.

A resolution depends only on the schemas of the tables it references, so it
records their ``(table, generation)`` pairs (``ResolvedQuery.generations``,
see :meth:`repro.catalog.Catalog.table_generation`) and a hit is served only
while every one still matches (``ResolvedQuery.is_current``). This gives:

* a schema change to a referenced table bumps that table's generation,
  so stale resolutions can never be served;
* a schema change to an *unreferenced* table leaves every dependency
  generation untouched, so hot entries survive it;
* two different catalogs never collide, even when they contain tables
  with the same names, because ``catalog.identity`` is drawn once per
  catalog and never reused.

Cached :class:`ResolvedQuery` objects are shared, which is safe because
resolution annotates the tree once and everything downstream (executor,
relevance planner, constraints) treats resolved trees as read-only.

A text miss is not always a parse. Texts that differ only in their
literals — the same query asked of other sources — share a *shape*
(:func:`repro.sqlparser.lexer.shape_key`: the text around the literals,
their types and which of them are equal). The first text of a shape is
parsed and resolved and becomes its *template*; a later one is bound into a
copy of the template's tree, its literals substituted by slot
(``Query.literals``, recorded by the parser), keeping the template's
bindings, generations and lineage plan (``ResolvedQuery.rebound``). A slot
can only hold an ``ast.Literal``; a value the tree keeps elsewhere (LIMIT's
count, LIKE's pattern) must equal the template's, or the text is parsed.
The bound resolution remembers its template (``bound_from``), so the
planner can re-bind the template's relevance plan rather than build one.
Templates live in this cache, under the same lock, ``maxsize`` (their own
least-recently-used order beside the texts') and ``is_current`` check;
``maxsize == 0`` disables them too. ``hits`` / ``misses`` / :meth:`stats`
count texts: a bound text is a miss.

Every cached resolution carries its
:class:`~repro.engine.lineage.LineagePlan` (the per-binding source-column
probes) as ``lineage_plan``, so lineage-on and lineage-off executions of
one SQL share one entry. Relevance plans ride the same way
(``ResolvedQuery.relevance_plans``, filled by
:func:`repro.core.relevance.memoized_relevance_plan`): whatever is derived
from a resolution is retired with it, so no second cache needs validating.

Hits and misses are counted on the cache itself (always, cheaply) and
additionally recorded as telemetry counters when a live
:class:`~repro.obs.Telemetry` is passed. Those counters are process-wide
and move under other threads, so a query profile records the verdict
:meth:`ResolvedQueryCache.lookup` returns for *its* lookup. The
process-wide cache holds :data:`DEFAULT_MAXSIZE` entries; a throwaway
catalog opts out per call (``execute_sql(..., cache=False)``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.catalog import Catalog
from repro.engine.lineage import build_lineage_plan
from repro.sqlparser import ast
from repro.sqlparser.lexer import shape_key
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import ResolvedQuery, resolve

DEFAULT_MAXSIZE = 256


class ResolvedQueryCache:
    """A thread-safe LRU of resolved queries keyed by (catalog identity,
    SQL), validated by the referenced tables' schema generations, beside
    an LRU of shape templates keyed by (catalog identity, shape)."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.maxsize = max(0, int(maxsize))
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], ResolvedQuery]" = OrderedDict()
        #: (catalog identity, shape key) -> (template resolution, its literals).
        self._shapes: "OrderedDict[tuple, Tuple[ResolvedQuery, list]]" = OrderedDict()

    def resolve(
        self, sql: str, catalog: Catalog, telemetry: Optional[object] = None
    ) -> ResolvedQuery:
        """Parse + resolve ``sql`` against ``catalog``, through the cache."""
        return self.lookup(sql, catalog, telemetry)[0]

    def lookup(
        self,
        sql: str,
        catalog: Catalog,
        telemetry: Optional[object] = None,
        statement: Optional[ResolvedQuery] = None,
    ) -> Tuple[ResolvedQuery, bool]:
        """:meth:`resolve` plus whether this lookup was served from the
        cache (always False when caching is disabled). ``statement``, the
        planner's resolution of ``sql``, stands in for parsing it on a miss."""
        if statement is not None and not statement.is_current(catalog):
            statement = None
        if self.maxsize == 0:
            return statement or resolve_statement(parse_query(sql), catalog), False
        key = (catalog.identity, sql)
        with self._lock:
            cached = self._current(self._entries, key, catalog)
            if cached is not None:
                self.hits += 1
        if cached is not None:
            self._record(telemetry, hit=True)
            return cached, True
        resolved = statement or self._bind_or_parse(sql, catalog)
        with self._lock:
            self.misses += 1
            evicted = self._store(self._entries, key, resolved)
        self._record(telemetry, hit=False)
        if evicted and telemetry is not None and getattr(telemetry, "enabled", False):
            from repro.obs.events import EVT_CACHE_EVICTED

            for identity, evicted_sql in evicted:
                telemetry.emit(
                    EVT_CACHE_EVICTED,
                    severity="debug",
                    catalog=identity,
                    sql=evicted_sql[:200],
                )
        return resolved, False

    def _bind_or_parse(self, sql: str, catalog: Catalog) -> ResolvedQuery:
        """A text miss: bind ``sql``'s literals into the template of its
        shape, or parse and resolve it and make it that shape's template."""
        shape = shape_key(sql)
        if shape is None:
            return resolve_statement(parse_query(sql), catalog)
        key = (catalog.identity, shape[0])
        with self._lock:
            template = self._current(self._shapes, key, catalog)
        if template is not None:
            bound = _bind(template[0], template[1], shape[1])
            if bound is not None:
                return bound
        resolved = resolve_statement(parse_query(sql), catalog)
        with self._lock:
            self._store(self._shapes, key, (resolved, shape[1]))
        return resolved

    def _current(self, entries: "OrderedDict", key: tuple, catalog: Catalog):
        """``entries[key]`` refreshed as most recently used, or None; an
        entry whose resolution is no longer current is dropped (generations
        are unique, so it can never be valid again). Caller holds the lock."""
        entry = entries.get(key)
        if entry is None:
            return None
        resolved = entry if isinstance(entry, ResolvedQuery) else entry[0]
        if not resolved.is_current(catalog):
            del entries[key]
            return None
        entries.move_to_end(key)
        return entry

    def _store(self, entries: "OrderedDict", key: tuple, entry) -> list:
        """Insert ``entry``, evicting least recently used keys down to
        ``maxsize``; returns the evicted keys. Caller holds the lock."""
        entries[key] = entry
        evicted = []
        while len(entries) > self.maxsize:
            evicted.append(entries.popitem(last=False)[0])
        return evicted

    @staticmethod
    def _record(telemetry: Optional[object], hit: bool) -> None:
        if telemetry is not None and getattr(telemetry, "enabled", False):
            from repro.obs import instrument as obs

            telemetry.count(obs.QUERY_CACHE_HITS if hit else obs.QUERY_CACHE_MISSES)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._shapes.clear()
            self.hits = 0
            self.misses = 0
        from repro.obs import instrument as obs

        tel = obs.get_default()
        if tel.enabled:
            from repro.obs.events import EVT_CACHE_CLEARED

            tel.emit(EVT_CACHE_CLEARED, severity="debug", dropped=dropped)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "maxsize": self.maxsize,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ResolvedQueryCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def resolve_statement(query: ast.Query, catalog: Catalog) -> ResolvedQuery:
    """Resolve ``query`` (annotating it in place) with its lineage plan: a
    cache entry, whether parsed from text or built by the planner."""
    resolved = resolve(query, catalog)
    resolved.lineage_plan = build_lineage_plan(resolved)
    return resolved


def _bind(template: ResolvedQuery, literals: list, values: list) -> Optional[ResolvedQuery]:
    """``template`` with ``values`` bound into its literal slots, or None
    when a value that is no slot (LIMIT's count, LIKE's pattern) differs."""
    memo: Dict[int, object] = {}
    for node, literal, value in zip(template.query.literals, literals, values):
        if node is not None:
            memo[id(node)] = ast.Literal(value)
        elif value != literal:
            return None
    return template.rebound(ast.substitute_query(template.query, memo), (template, memo))


_global_cache = ResolvedQueryCache()


def get_cache() -> ResolvedQueryCache:
    """The process-wide resolved-query cache."""
    return _global_cache


def resolve_cached(
    sql: str, catalog: Catalog, telemetry: Optional[object] = None
) -> ResolvedQuery:
    """Module-level convenience over :meth:`ResolvedQueryCache.resolve`."""
    return _global_cache.resolve(sql, catalog, telemetry)


__all__ = [
    "ResolvedQueryCache",
    "DEFAULT_MAXSIZE",
    "get_cache",
    "resolve_cached",
    "resolve_statement",
]
