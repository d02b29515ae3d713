"""The backend interface.

A backend owns a catalog, stores rows for every cataloged table (including
the system Heartbeat table) and can open a :class:`Snapshot` — a context
within which every query sees one consistent database state. The recency
reporter runs the user query and the generated recency query inside a single
snapshot, which is exactly the consistency requirement of Section 3.2.
"""

from __future__ import annotations

import abc
from typing import ContextManager, Iterable, List, Optional, Sequence, Tuple

from repro.catalog import (
    HEARTBEAT_RECENCY_COLUMN,
    HEARTBEAT_SOURCE_COLUMN,
    HEARTBEAT_TABLE,
    Catalog,
)
from repro.engine.evaluate import QueryResult
from repro.errors import BackendError

#: The two ops of a :data:`Write`.
UPSERT, DELETE = "upsert", "delete"
#: One keyed write of :meth:`Backend.apply_poll`: ``(op, table, key columns,
#: values)`` — the row an ``UPSERT`` lands, the key a ``DELETE`` removes.
Write = Tuple[str, str, Tuple[str, ...], Tuple[object, ...]]
_HEARTBEAT_KEY = (HEARTBEAT_SOURCE_COLUMN,)


class Snapshot(abc.ABC):
    """A consistent view of the database.

    All ``execute`` calls made through one snapshot observe the same state,
    regardless of concurrent writes through the owning backend.
    """

    @abc.abstractmethod
    def execute(self, sql: str, lineage: bool = False, statement=None) -> QueryResult:
        """Run a SELECT inside the snapshot.

        ``lineage=True`` requests per-row source lineage on the result
        (:attr:`~repro.engine.evaluate.QueryResult.lineage`). Backends
        that cannot produce it (e.g. SQLite, which runs the SQL natively)
        degrade gracefully by returning ``lineage=None``; callers must
        treat missing lineage as "unattributed", never as an error.
        ``statement`` is the planner's resolution of ``sql``: a backend
        that resolves SQL itself may run it instead of parsing ``sql``,
        one that runs the text natively (SQLite) ignores it.
        """

    @abc.abstractmethod
    def create_temp_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        """Materialize a session temp table visible to later queries.

        Temp tables survive the snapshot (they belong to the session, per
        Section 4.3) but are not part of the monitored catalog.
        """


class Backend(abc.ABC):
    """Storage backend interface. See the package docstring.

    ``telemetry`` is an optional :class:`~repro.obs.Telemetry` override for
    this backend's counters (queries, rows, snapshots). Left as ``None``
    (the default, also settable later: ``backend.telemetry = tel``), the
    backend follows the process-wide default of :mod:`repro.obs`.
    """

    #: Label value used for this backend's metrics.
    kind = "backend"

    def __init__(self, catalog: Catalog, telemetry: Optional[object] = None) -> None:
        self.catalog = catalog
        self.telemetry = telemetry

    # -- schema and data -----------------------------------------------------

    @abc.abstractmethod
    def create_tables(self) -> None:
        """Create every cataloged table (idempotent)."""

    @abc.abstractmethod
    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        """Bulk-append rows into ``table``."""

    @abc.abstractmethod
    def delete_all(self, table: str) -> None:
        """Remove every row of ``table``."""

    def apply_poll(
        self, writes: Sequence[Write], source_id: Optional[str], recency: Optional[float]
    ) -> None:
        """Apply one sniffer poll as one write: ``writes`` in order, then
        (unless ``recency`` is ``None``) ``source_id``'s Heartbeat entry.

        The heartbeat protocol's "load and timestamp move together" (§3.1):
        a snapshot sees the whole poll or none of it. Sniffers and WAL replay
        call this; the per-call methods below are for bulk loads and probes.
        A NaN ``recency``, which would be stored as NULL, is refused."""
        if recency != recency:
            raise BackendError(f"source {source_id!r} polled a NaN recency")
        if recency is not None:  # the Heartbeat entry is the poll's last keyed write
            writes = [*writes, (UPSERT, HEARTBEAT_TABLE, _HEARTBEAT_KEY, (source_id, recency))]
        self._apply(writes)

    @abc.abstractmethod
    def _apply(self, writes: Sequence[Write]) -> None:
        """Apply ``writes`` in order as one transaction. An ``UPSERT``
        replaces any row with equal key columns — "the scheduler *updates*
        its tuple for that job" (Section 4.2); where the replacing row lands
        in an unordered scan is not part of the contract. SQLite rolls back
        writes that fail partway; the memory backend's fail only when
        malformed (an unknown table or column, a row of the wrong width)."""

    def upsert_rows(
        self, table: str, key_columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        """Insert rows, replacing any existing row with equal key columns."""
        key = tuple(key_columns)
        self._apply([(UPSERT, table, key, tuple(row)) for row in rows])

    def delete_rows(
        self, table: str, key_columns: Sequence[str], keys: Iterable[Sequence[object]]
    ) -> None:
        """Delete rows whose key columns equal any of ``keys``."""
        key = tuple(key_columns)
        self._apply([(DELETE, table, key, tuple(k)) for k in keys])

    def upsert_heartbeat(self, source_id: str, recency: float) -> None:
        """Set the recency timestamp of ``source_id`` (insert or update)."""
        self.apply_poll((), source_id, recency)

    # -- querying -------------------------------------------------------------

    @abc.abstractmethod
    def execute(self, sql: str) -> QueryResult:
        """Run a single SELECT outside any explicit snapshot."""

    @abc.abstractmethod
    def snapshot(self) -> ContextManager[Snapshot]:
        """Open a consistent read snapshot (used as a context manager)."""

    @abc.abstractmethod
    def persist_temp_table(self, temp_name: str, permanent_name: str) -> None:
        """Copy a session temp table into a permanent table.

        Section 4.3: "The user can decide whether to copy it to a permanent
        table before the end of a session." The permanent table survives
        session close and carries the temp table's (sid, recency) columns.
        """

    @abc.abstractmethod
    def drop_temp_table(self, name: str) -> None:
        """Discard a session temp table if it exists."""

    @abc.abstractmethod
    def list_temp_tables(self) -> List[str]:
        """Names of session temp tables currently alive."""

    # -- convenience -----------------------------------------------------------

    def heartbeat_rows(self) -> List[Tuple[str, float]]:
        """All (source_id, recency) pairs currently in the Heartbeat table."""
        result = self.execute(
            f"SELECT {HEARTBEAT_SOURCE_COLUMN}, {HEARTBEAT_RECENCY_COLUMN} "
            f"FROM {HEARTBEAT_TABLE}"
        )
        return [(str(sid), float(rec)) for sid, rec in result.rows]

    def row_count(self, table: str) -> int:
        return int(self.execute(f"SELECT COUNT(*) FROM {table}").scalar())  # type: ignore[arg-type]

    def close(self) -> None:
        """Release resources. Default: nothing to do."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def copy_tables(source: Backend, into: Backend) -> Backend:
    """Replace every cataloged table of ``into`` with ``source``'s rows;
    returns ``into``. The one bulk copy between backends, in both directions:
    SQLite file → memory engine (which profiles, attributes rows and serves
    concurrent readers from CoW snapshots) and live memory engine → SQLite
    file (``trac simulate --db``, written once at exit).

    Every table is read inside **one** ``source.snapshot()``: a simulator
    writing beside the copy must not leave ``into`` holding ``heartbeat``
    from one instant and the job tables from another (the paper's rule that
    user query and recency query read one snapshot starts here).
    """
    into.create_tables()
    with source.snapshot() as snapshot:
        for schema in source.catalog:
            rows = snapshot.execute(f"SELECT * FROM {schema.name}").rows
            into.delete_all(schema.name)
            if rows:
                into.insert_rows(schema.name, rows)
    return into
