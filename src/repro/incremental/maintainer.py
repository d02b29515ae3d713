"""The materialized-report maintenance layer.

Every recency report recomputes its relevant-source set by running the
plan's heartbeat subqueries — a key lookup for ``IN``, a scan of every
Heartbeat row for ``NOT IN`` — even though monitoring queries repeat with
identical predicate structure. This module remembers, per plan, *which
Heartbeat positions are members* of that set, and reads their recencies
from the Heartbeat relation of the snapshot the report runs in: the paper
computes a report's recency inside the user query's snapshot (Section
3.2), and a hit does too.

Eligibility (the "streamable" criterion)
----------------------------------------
Membership can be decided row by row when it is a pure function of
``source_id``. That is exactly the case when every subquery of a
``focused`` plan:

* scans only the Heartbeat table (no joined relations),
* carries no existence guards, and
* references only ``trac_h.source_id`` in its WHERE clause.

Then a source is relevant iff *any* subquery's WHERE accepts its id, which
:func:`repro.predicates.evaluate.evaluate_predicate` can decide without
touching the SQL engine. Plans with joins, guards, ``all``/``empty`` mode
or the naive method bypass the fast path entirely (the reporter records
the ``bypass`` verdict).

Entries
-------
Entries are keyed by the tuple of subquery SQL strings — the canonical
form the DNF classifier and subquery builder produce — so a schema change
that alters planning yields a key that is never looked up again and ages
out of the LRU. An entry is three things: the Heartbeat key index it was
built against (``Relation.keyed[1]``), how many positions it has decided,
and its members as ``(source id, position)`` pairs sorted by id.

:mod:`repro.engine.relation`'s rules make that enough. An upsert
overwrites in place, so within one index object a position always holds
the same source; ``insert`` appends; a delete, a ``clear`` or a re-key
rebinds the index. So ``relation.keyed[1] is entry.index`` is the whole
validity test, and it holds for a snapshot view too, which borrows its
parent's index. On a mismatch — or a snapshot shorter than the entry has
decided — the entry is dropped and the verdict is ``miss``.

Registration seeds the members from the oracle's own ids through the key
index, so the engine's WHERE semantics decide every source present at
that point; positions appended later are decided by ``evaluate_predicate``.
A bag Heartbeat (loaded by ``insert_rows``) keeps the last position per
id, as ``merge_fragments`` does. A source id that is not a string is left
to the engine, whose answer ``str`` reshapes: a Heartbeat holding one at
registration leaves the plan unregistered, and a position appended with
one drops the entry.

Statistics
----------
Entries hold positions, not statistics: the report's z-score split
recomputes mean/σ from the snapshot's values with the same ``mean_stddev``
arithmetic as the from-scratch path, because a streaming accumulator sums
in another order and rounds differently, and the differential oracle
demands byte-identical reports.

Concurrency
-----------
``fetch`` extends entries, so one reporter thread uses a maintainer at a
time. The rows it reads are the snapshot's, immutable while it is open.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends.memory import MemoryBackend
from repro.catalog import HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_TABLE
from repro.core.statistics import Columns
from repro.errors import TracError
from repro.obs import instrument as obs
from repro.predicates.evaluate import evaluate_predicate
from repro.sqlparser import ast

DEFAULT_MAXSIZE = 64

#: A Heartbeat row is ``(source_id, recency)``; it is keyed on the first.
_SOURCE_KEY = (0,)
_ID_TYPES = {str, type(None)}


def plan_streamable(plan: object) -> bool:
    """Whether ``plan``'s relevant-source set is a pure function of the
    Heartbeat's source ids (see module docstring for the criterion)."""
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


def _string_ids(rows: Sequence[Sequence[object]]) -> bool:
    """Whether every source id in ``rows`` is a string or NULL: then the
    oracle's ids are the rows' own, and the key index finds them."""
    return set(map(type, map(itemgetter(0), rows))) <= _ID_TYPES


class _Entry:
    """One plan's members: ``(source id, position)`` pairs sorted by id,
    for the first ``decided`` positions under key index ``index``."""

    __slots__ = ("wheres", "index", "decided", "members")

    def __init__(
        self,
        wheres: Sequence[Optional[ast.Expr]],
        index: Dict[tuple, List[int]],
        decided: int,
        members: List[Tuple[str, int]],
    ) -> None:
        self.wheres = list(wheres)
        self.index = index
        self.decided = decided
        self.members = members

    def _member(self, source_id: str) -> bool:
        return any(
            where is None or evaluate_predicate(where, lambda ref: source_id)
            for where in self.wheres
        )

    def extend(self, rows: Sequence[Sequence[object]]) -> bool:
        """Decide the positions past ``decided``; False when one holds a
        source id only the engine can judge (not a string)."""
        members = self.members
        for position in range(self.decided, len(rows)):
            source_id = rows[position][0]
            if source_id is None:
                continue  # the from-scratch path drops NULL ids too
            if not isinstance(source_id, str):
                return False
            at = bisect_left(members, (source_id,))
            if at < len(members) and members[at][0] == source_id:
                members[at] = (source_id, position)  # a bag's later row wins
            elif self._member(source_id):
                members.insert(at, (source_id, position))
        self.decided = len(rows)
        return True


class IncrementalMaintainer:
    """Remembers which Heartbeat positions are each plan's relevant
    sources (see the module docstring).

    Parameters
    ----------
    backend:
        The :class:`~repro.backends.memory.MemoryBackend` the reporter
        reads; ``fetch`` without a snapshot reads its live ``db``.
    maxsize:
        LRU capacity in entries (distinct plan structures).
    telemetry:
        Optional :class:`~repro.obs.Telemetry`; ``None`` follows the
        process-wide default. Lookup counters are recorded only when it is
        enabled; the plain integer counters on the maintainer itself are
        always kept.
    """

    def __init__(
        self,
        backend: object,
        maxsize: int = DEFAULT_MAXSIZE,
        telemetry: Optional[object] = None,
    ) -> None:
        if not isinstance(backend, MemoryBackend):
            raise TracError(
                f"incremental maintenance needs a MemoryBackend, not {type(backend).__name__}"
            )
        self.backend = backend
        self.maxsize = max(1, int(maxsize))
        self.telemetry = telemetry
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        #: Positions decided after registration.
        self.updates = 0
        self._entries: "OrderedDict[Tuple[str, ...], _Entry]" = OrderedDict()

    @staticmethod
    def _key(plan: object) -> Tuple[str, ...]:
        return tuple(sub.sql for sub in plan.subqueries)

    def _heartbeat(self, snapshot: Optional[object]):
        return (self.backend if snapshot is None else snapshot).db.relation(HEARTBEAT_TABLE)

    def fetch(
        self, plan: object, snapshot: Optional[object] = None
    ) -> Tuple[str, Optional[Columns]]:
        """Look ``plan`` up in ``snapshot`` (the backend's live rows when
        ``None``); returns ``(verdict, sources)`` where verdict is ``"hit"``
        (sources read from the snapshot as id-sorted ``(ids, recencies)``
        columns), ``"miss"`` (eligible but not registered, or the entry no
        longer matches the Heartbeat) or ``"bypass"`` (ineligible)."""
        if not plan_streamable(plan):
            self.bypasses += 1
            self._record_lookup("bypass")
            return "bypass", None
        key = self._key(plan)
        entry = self._entries.get(key)
        if entry is not None:
            relation = self._heartbeat(snapshot)
            keyed, rows = relation.keyed, relation.rows
            decided = entry.decided
            if (
                keyed is not None
                and keyed[1] is entry.index
                and decided <= len(rows)
                and entry.extend(rows)
            ):
                self.updates += len(rows) - decided
                self._entries.move_to_end(key)
                self.hits += 1
                self._record_lookup("hit")
                members = entry.members
                recencies = [float(rows[p][1]) for _, p in members]
                return "hit", (list(map(itemgetter(0), members)), recencies)
            del self._entries[key]
        self.misses += 1
        self._record_lookup("miss")
        return "miss", None

    def register(self, plan: object, ids: Sequence[str], snapshot: Optional[object] = None):
        """Seed an entry for ``plan`` from ``ids``, the source ids of the
        from-scratch result just computed in ``snapshot`` (the live rows
        when ``None``)."""
        if not plan_streamable(plan):
            return
        relation = self._heartbeat(snapshot)
        keyed, rows = relation.keyed, relation.rows
        if keyed is None or keyed[0] != _SOURCE_KEY or not _string_ids(rows):
            return
        index, limit = keyed[1], len(rows)
        members = [(sid, max(p for p in index[(sid,)] if p < limit)) for sid in ids]
        members.sort()
        wheres = [sub.query.where for sub in plan.subqueries]
        self._entries[self._key(plan)] = _Entry(wheres, index, limit, members)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def stats(self) -> Dict[str, object]:
        lookups = self.hits + self.misses + self.bypasses
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "updates": self.updates,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def _record_lookup(self, outcome: str) -> None:
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            if outcome == "hit":
                tel.count(obs.INCREMENTAL_HITS)
            else:
                tel.count(obs.INCREMENTAL_MISSES, outcome=outcome)


__all__ = [
    "IncrementalMaintainer",
    "plan_streamable",
    "DEFAULT_MAXSIZE",
]
