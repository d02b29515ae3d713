"""A delegating backend wrapper that injects write failures.

One :class:`FaultyBackend` wraps the shared monitoring backend *per
sniffer*: the supervisor sets the wrapper's ``(source, now)`` context before
each poll, and the wrapper consults the :class:`~repro.faults.plan.FaultPlan`
on every write the sniffer performs. Reads and snapshots always pass
through untouched — the fault model is about the load path, not the query
path (queries run against whatever state the faults left behind).

Failure atomicity mirrors a real loader: a failed ``upsert_rows`` aborts
the poll before the sniffer advances its offset, so the next successful
poll re-reads and re-applies the whole batch (at-least-once delivery); a
failed ``upsert_heartbeat`` loses only the recency advance, which a later
poll repairs.
"""

from __future__ import annotations

from typing import ContextManager, Iterable, List, Optional, Sequence

from repro.backends.base import Backend, Snapshot
from repro.engine.evaluate import QueryResult
from repro.faults.plan import FaultPlan


class FaultyBackend(Backend):
    """Wraps ``inner`` and raises :class:`~repro.faults.plan.InjectedFault`
    from write calls when ``plan`` says so."""

    kind = "faulty"

    def __init__(self, inner: Backend, plan: FaultPlan) -> None:
        self.catalog = inner.catalog  # not Backend.__init__: telemetry is inner's
        self.inner = inner
        self.plan = plan
        self._source: Optional[str] = None
        self._now = 0.0

    @property
    def telemetry(self):
        """The wrapped backend's telemetry, read live (it is settable later)."""
        return self.inner.telemetry

    def set_context(self, source: str, now: float) -> None:
        """Bind fault decisions to the sniffer about to use this wrapper."""
        self._source = source
        self._now = now

    def _check(self, op: str) -> None:
        if self._source is not None:
            self.plan.check_backend(self._source, self._now, op)

    # -- write path (fault-injected) ----------------------------------------

    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        self._check("apply")
        self.inner.insert_rows(table, rows)

    def upsert_rows(
        self, table: str, key_columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        self._check("apply")
        self.inner.upsert_rows(table, key_columns, rows)

    def delete_rows(
        self, table: str, key_columns: Sequence[str], keys: Iterable[Sequence[object]]
    ) -> None:
        self._check("apply")
        self.inner.delete_rows(table, key_columns, keys)

    def upsert_heartbeat(self, source_id: str, recency: float) -> None:
        self._check("heartbeat")
        self.inner.upsert_heartbeat(source_id, recency)

    # -- pass-through --------------------------------------------------------

    def create_tables(self) -> None:
        self.inner.create_tables()

    def delete_all(self, table: str) -> None:
        self.inner.delete_all(table)

    def execute(self, sql: str) -> QueryResult:
        return self.inner.execute(sql)

    def snapshot(self) -> ContextManager[Snapshot]:
        return self.inner.snapshot()

    def persist_temp_table(self, temp_name: str, permanent_name: str) -> None:
        self.inner.persist_temp_table(temp_name, permanent_name)

    def drop_temp_table(self, name: str) -> None:
        self.inner.drop_temp_table(name)

    def list_temp_tables(self) -> List[str]:
        return self.inner.list_temp_tables()

    def close(self) -> None:
        # The wrapper does not own the shared inner backend; never close it.
        pass

    def __repr__(self) -> str:
        return f"FaultyBackend({self.inner!r}, source={self._source!r})"
