"""The resolved-query cache: parse + resolve once per (SQL, catalog state).

Every recency report re-executes the same generated subquery and guard SQL
strings (and ``trac stats`` / the bench sweeps repeat user queries
verbatim), and each execution used to pay a full lex + parse + resolve.
This module keeps a process-wide LRU of :class:`ResolvedQuery` objects
keyed by ``(catalog.identity, sql)``.

The cache used to key on ``catalog.generation`` — a ticket bumped on
*every* catalog mutation — which meant registering table ``U`` evicted
(by unreachability) every cached query over unrelated table ``T``.
Resolution only depends on the schemas of the tables a query actually
references, so entries now validate per *referenced table*: each entry
records the ``(table, generation)`` pairs it was resolved against (see
:meth:`repro.catalog.Catalog.table_generation`) and a hit is served only
while every one still matches. This gives:

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

Every cached resolution carries its
:class:`~repro.engine.lineage.LineagePlan` (the per-binding source-column
probes) as ``lineage_plan``: a pure function of the bindings, microseconds
to build, so lineage-on and lineage-off executions of one SQL share one
entry and only the former read it. Relevance plans ride the same way
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
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import ResolvedQuery, resolve

DEFAULT_MAXSIZE = 256


class ResolvedQueryCache:
    """A thread-safe LRU of resolved queries keyed by (catalog identity,
    SQL), validated by the referenced tables' schema generations."""

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE) -> None:
        self.maxsize = max(0, int(maxsize))
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, str], Tuple[ResolvedQuery, Tuple[Tuple[str, int], ...]]]" = (
            OrderedDict()
        )

    @staticmethod
    def _dependencies(
        resolved: ResolvedQuery, catalog: Catalog
    ) -> Tuple[Tuple[str, int], ...]:
        """The (table, generation) pairs this resolution depends on."""
        names = {b.schema.name.lower() for b in resolved.bindings}
        return tuple(
            (name, catalog.table_generation(name)) for name in sorted(names)
        )

    def resolve(
        self, sql: str, catalog: Catalog, telemetry: Optional[object] = None
    ) -> ResolvedQuery:
        """Parse + resolve ``sql`` against ``catalog``, through the cache."""
        return self.lookup(sql, catalog, telemetry)[0]

    def lookup(
        self, sql: str, catalog: Catalog, telemetry: Optional[object] = None
    ) -> Tuple[ResolvedQuery, bool]:
        """:meth:`resolve` plus whether this lookup was served from the
        cache (always False when caching is disabled)."""
        if self.maxsize == 0:
            return self._resolve_fresh(sql, catalog), False
        key = (catalog.identity, sql)
        cached: Optional[ResolvedQuery] = None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                resolved_entry, deps = entry
                if all(
                    catalog.table_generation(name) == generation
                    for name, generation in deps
                ):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    cached = resolved_entry
                else:
                    # A referenced table's schema changed: this resolution
                    # can never be valid again (generations are unique).
                    del self._entries[key]
        if cached is not None:
            self._record(telemetry, hit=True)
            return cached, True
        resolved = self._resolve_fresh(sql, catalog)
        evicted = []
        with self._lock:
            self.misses += 1
            self._entries[key] = (resolved, self._dependencies(resolved, catalog))
            while len(self._entries) > self.maxsize:
                evicted.append(self._entries.popitem(last=False)[0])
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

    @staticmethod
    def _resolve_fresh(sql: str, catalog: Catalog) -> ResolvedQuery:
        resolved = resolve(parse_query(sql), catalog)
        resolved.lineage_plan = build_lineage_plan(resolved)
        return resolved

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
]
