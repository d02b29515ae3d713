"""The materialized-report maintenance layer.

Every recency report used to recompute its relevant-source set by running
the plan's heartbeat subqueries from scratch — a full Heartbeat scan per
subquery per report — even though heartbeats arrive as a *stream* and
monitoring queries repeat with identical predicate structure. This module
keeps those sets materialized and maintains them in O(affected entries)
per mutation, so a repeated query pays a dictionary copy instead of a
scan.

Eligibility (the "streamable" criterion)
----------------------------------------
An entry can be maintained from the heartbeat stream alone when relevance
membership is a pure function of ``source_id``. That is exactly the case
when every subquery of a ``focused`` plan:

* scans only the Heartbeat table (no joined relations),
* carries no existence guards, and
* references only ``trac_h.source_id`` in its WHERE clause.

Then a source is relevant iff *any* subquery's WHERE accepts its id, which
:func:`repro.predicates.evaluate.evaluate_predicate` can decide without
touching the SQL engine. Plans with joins, guards, ``all``/``empty`` mode
or the naive method bypass the fast path entirely (the reporter records
the ``bypass`` verdict).

Keying and invalidation
-----------------------
Entries are keyed by the tuple of subquery SQL strings — the canonical
form the DNF classifier and subquery builder produce. This replaces the
old whole-``catalog.generation`` flush for schema-compatible changes: a
schema change that alters planning yields *different* subquery SQL, so the
stale entry is simply never looked up again and ages out of the LRU, while
entries over untouched predicates keep serving hits. Data-level
invalidation is event-driven: the backend's change listeners call straight
into this maintainer, and heartbeat *deletes* in particular remove the
tombstoned source from every materialized set before the next lookup can
observe it.

Statistics
----------
Entries hold sets, not statistics: the report's z-score split recomputes
mean/σ from the materialized values with the same ``mean_stddev``
arithmetic as the from-scratch path, because a streaming accumulator sums
in another order and rounds differently, and the differential oracle
demands byte-identical reports. That scan is O(k) over the
already-materialized relevant set, not O(N) over Heartbeat.

Consistency model
-----------------
Mutations and reports are assumed to come from one writer thread (the
simulator poll loop and its reporter), which is how every backend consumer
in this codebase works. Registration stores a from-scratch result computed
in a snapshot; with a single writer no mutation can interleave between
snapshot and registration. Rows with non-string source ids or
non-numeric recencies cannot be mirrored faithfully (the from-scratch path
keys by ``str(sid)`` per *row*); observing one degrades the maintainer —
every lookup bypasses until the table is cleared or resynced clean.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog import HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_TABLE
from repro.core.statistics import SourceRecency, sorted_recencies
from repro.errors import TracError
from repro.obs import instrument as obs
from repro.obs.events import EVT_INCREMENTAL_INVALIDATED
from repro.predicates.evaluate import evaluate_predicate
from repro.sqlparser import ast

DEFAULT_MAXSIZE = 64

#: Invalidation reasons (label values on the invalidations counter).
REASON_DELETE = "delete"
REASON_CLEARED = "cleared"
REASON_RESYNC = "resync"
REASON_DEGRADED = "degraded"


def plan_streamable(plan: object) -> bool:
    """Whether ``plan``'s relevant-source set is a pure function of the
    heartbeat stream (see module docstring for the criterion)."""
    if getattr(plan, "mode", None) != "focused" or not plan.subqueries:
        return False
    for sub in plan.subqueries:
        if sub.guards:
            return False
        query = sub.query
        if len(query.tables) != 1:
            return False
        table = query.tables[0]
        if table.name.lower() != HEARTBEAT_TABLE:
            return False
        h_alias = table.alias or table.name
        if query.where is None:
            continue
        for ref in ast.column_refs(query.where):
            if ref.binding_key != h_alias:
                return False
            if ref.name.lower() != HEARTBEAT_SOURCE_COLUMN:
                return False
    return True


def _keyed_by_source(key_columns: Sequence[str]) -> bool:
    return len(key_columns) == 1 and key_columns[0].lower() == HEARTBEAT_SOURCE_COLUMN


class _Entry:
    """One materialized relevant-source set.

    ``membership`` caches the per-source verdict of the entry's WHERE
    clauses; it is seeded from the *oracle* result at registration (so the
    engine's own WHERE semantics decide every source present at that
    point) and extended by :func:`evaluate_predicate` for sources first
    seen later. ``sources`` maps each member id to its latest recency —
    exactly the dict the from-scratch merge builds, and materialization is
    the merge's own :func:`~repro.core.statistics.sorted_recencies`.
    """

    __slots__ = ("wheres", "sources", "membership")

    def __init__(self, wheres: Sequence[Optional[ast.Expr]]) -> None:
        self.wheres = list(wheres)
        self.sources: Dict[str, float] = {}
        self.membership: Dict[str, bool] = {}

    def _member(self, source_id: str) -> bool:
        cached = self.membership.get(source_id)
        if cached is not None:
            return cached
        member = any(
            where is None or evaluate_predicate(where, lambda ref: source_id)
            for where in self.wheres
        )
        self.membership[source_id] = member
        return member

    def upsert(self, source_id: str, recency: float) -> None:
        if self._member(source_id):
            self.sources[source_id] = recency

    def remove(self, source_id: str) -> None:
        self.membership.pop(source_id, None)
        self.sources.pop(source_id, None)

    def materialize(self) -> List[SourceRecency]:
        return sorted_recencies(self.sources)


class IncrementalMaintainer:
    """Maintains materialized relevant-source sets off a backend's
    change-listener stream.

    Parameters
    ----------
    backend:
        A backend exposing ``add_change_listener`` (currently
        :class:`~repro.backends.memory.MemoryBackend`) whose ``db``
        attribute holds the live relations.
    maxsize:
        LRU capacity in entries (distinct plan structures).
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` follows the
        process-wide default. Counters, the maintenance-latency histogram
        and invalidation events are recorded only when it is enabled; the
        plain integer counters on the maintainer itself are always kept.
    """

    def __init__(
        self,
        backend: object,
        maxsize: int = DEFAULT_MAXSIZE,
        telemetry: Optional[object] = None,
    ) -> None:
        if not hasattr(backend, "add_change_listener"):
            raise TracError(
                f"backend {type(backend).__name__} does not publish change "
                "events; incremental maintenance needs MemoryBackend"
            )
        self.backend = backend
        self.maxsize = max(1, int(maxsize))
        self.telemetry = telemetry
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.updates = 0
        self.invalidations = 0
        self._entries: "OrderedDict[Tuple[str, ...], _Entry]" = OrderedDict()
        self._hb: Dict[str, float] = {}
        self._degraded = False
        self.resync(_initial=True)
        backend.add_change_listener(self)

    # -- lookup / registration (reporter side) ------------------------------

    @staticmethod
    def _key(plan: object) -> Tuple[str, ...]:
        return tuple(sub.sql for sub in plan.subqueries)

    def fetch(self, plan: object) -> Tuple[str, Optional[List[SourceRecency]]]:
        """Look ``plan`` up; returns ``(verdict, sources)`` where verdict
        is ``"hit"`` (sources materialized), ``"miss"`` (eligible but not
        yet registered) or ``"bypass"`` (ineligible / degraded)."""
        if self._degraded or not plan_streamable(plan):
            self.bypasses += 1
            self._record_lookup("bypass")
            return "bypass", None
        entry = self._entries.get(self._key(plan))
        if entry is None:
            self.misses += 1
            self._record_lookup("miss")
            return "miss", None
        self._entries.move_to_end(self._key(plan))
        self.hits += 1
        self._record_lookup("hit")
        return "hit", entry.materialize()

    def register(self, plan: object, sources: Sequence[SourceRecency]) -> None:
        """Seed an entry for ``plan`` from a from-scratch ``sources``
        result just computed against the backend's current state."""
        if self._degraded or not plan_streamable(plan):
            return
        entry = _Entry([sub.query.where for sub in plan.subqueries])
        for source in sources:
            entry.sources[source.source_id] = source.recency
        members = set(entry.sources)
        entry.membership = {sid: sid in members for sid in self._hb}
        self._entries[self._key(plan)] = entry
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    # -- backend change-listener interface ----------------------------------

    def heartbeat_rows_upserted(
        self, key_columns: Optional[Sequence[str]], rows: Sequence[Sequence[object]]
    ) -> None:
        """Rows landed in Heartbeat: appended (``key_columns`` is ``None``)
        or upserted under ``key_columns``."""
        started = time.perf_counter()
        if key_columns is None or _keyed_by_source(key_columns):
            for row in rows:
                self._apply(row[0], row[1])
        else:
            # Keyed by something other than source_id: per-source last-wins
            # cannot be tracked precisely, so rebuild from the table.
            self.resync()
        self._record_maintenance(started)

    def heartbeat_rows_deleted(
        self, key_columns: Sequence[str], keys: Sequence[Sequence[object]]
    ) -> None:
        started = time.perf_counter()
        if _keyed_by_source(key_columns):
            if not self._degraded:
                for key in keys:
                    source_id = key[0]
                    if not isinstance(source_id, str):
                        continue  # cannot match a (non-degraded) str mirror
                    self._hb.pop(source_id, None)
                    for entry in self._entries.values():
                        entry.remove(source_id)
                self.updates += 1
            self._invalidated(REASON_DELETE, keys=len(keys))
        else:
            self.resync()
        self._record_maintenance(started)

    def heartbeat_cleared(self) -> None:
        self._hb.clear()
        self._degraded = False
        for entry in self._entries.values():
            entry.sources.clear()
        self._invalidated(REASON_CLEARED)

    # -- maintenance core ----------------------------------------------------

    def _apply(self, source_id: object, recency: object) -> None:
        if self._degraded or source_id is None:
            return
        if not isinstance(source_id, str):
            self._degrade()
            return
        try:
            value = float(recency)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            self._degrade()
            return
        self._hb[source_id] = value
        for entry in self._entries.values():
            entry.upsert(source_id, value)
        self.updates += 1

    def resync(self, _initial: bool = False) -> None:
        """Rebuild the heartbeat mirror from the live relation and drop all
        entries (they re-register from the oracle on the next miss)."""
        relation = self.backend.db.relation(HEARTBEAT_TABLE)
        mirror: Dict[str, float] = {}
        degraded = False
        for row in relation.rows:
            source_id, recency = row[0], row[1]
            if source_id is None:
                continue  # the from-scratch path skips NULL ids too
            if not isinstance(source_id, str):
                degraded = True
                break
            try:
                mirror[source_id] = float(recency)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                degraded = True
                break
        self._degraded = degraded
        self._hb = {} if degraded else mirror
        self._entries.clear()
        if not _initial:
            self._invalidated(REASON_DEGRADED if degraded else REASON_RESYNC)

    def _degrade(self) -> None:
        self._degraded = True
        self._hb = {}
        self._entries.clear()
        self._invalidated(REASON_DEGRADED)

    # -- stats / telemetry ---------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded

    def stats(self) -> Dict[str, object]:
        lookups = self.hits + self.misses + self.bypasses
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "updates": self.updates,
            "invalidations": self.invalidations,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "degraded": self._degraded,
        }

    def _record_lookup(self, outcome: str) -> None:
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            if outcome == "hit":
                tel.count(obs.INCREMENTAL_HITS)
            else:
                tel.count(obs.INCREMENTAL_MISSES, outcome=outcome)

    def _record_maintenance(self, started: float) -> None:
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.observe(obs.INCREMENTAL_MAINTENANCE_SECONDS, time.perf_counter() - started)

    def _invalidated(self, reason: str, **attrs: object) -> None:
        self.invalidations += 1
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.INCREMENTAL_INVALIDATIONS, reason=reason)
            tel.emit(
                EVT_INCREMENTAL_INVALIDATED, severity="debug", reason=reason, **attrs
            )


__all__ = [
    "IncrementalMaintainer",
    "plan_streamable",
    "DEFAULT_MAXSIZE",
]
