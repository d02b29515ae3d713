"""SQLite backend.

Maps the dialect of :mod:`repro.sqlparser` (which is valid SQLite SQL)
straight onto a ``sqlite3`` connection. Snapshot consistency comes from
SQLite's transaction isolation: in WAL mode a read transaction sees the
database as of its first read, while independent writer connections (the
log sniffers) continue committing. This mirrors the PostgreSQL MVCC
behaviour the prototype relied on.

Indexes are created on every data source column plus the Heartbeat key,
matching the B-tree indexes of Section 5.2.
"""

from __future__ import annotations

import contextlib
import re
import sqlite3
import threading
import time
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.backends.base import DELETE, Backend, Snapshot, Write
from repro.obs import instrument as obs
from repro.catalog import HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_TABLE, Catalog
from repro.engine.evaluate import QueryResult
from repro.errors import BackendError

_VALID_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_name(name: str) -> str:
    """Guard identifiers we interpolate into DDL."""
    if not _VALID_NAME.match(name):
        raise BackendError(f"invalid identifier {name!r}")
    return name


class _SQLiteSnapshot(Snapshot):
    def __init__(self, backend: "SQLiteBackend") -> None:
        self._backend = backend

    def execute(self, sql: str, lineage: bool = False, statement=None) -> QueryResult:
        # SQLite runs the SQL natively and cannot attribute rows to
        # sources; results degrade gracefully to ``lineage=None``.
        return self._backend._run_select(sql)

    def create_temp_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        self._backend._create_temp_table(name, columns, rows)


class SQLiteBackend(Backend):
    """Backend over a ``sqlite3`` database (file or in-memory).

    Parameters
    ----------
    catalog:
        Table schemas to create.
    path:
        Database file path, or ``":memory:"`` (default). WAL mode — and with
        it true snapshot-vs-writer concurrency — needs a file path; the
        in-memory database still provides consistent snapshots against
        writes made through *this* backend, which is what the single-process
        simulator uses.
    """

    kind = "sqlite"

    def __init__(
        self, catalog: Catalog, path: str = ":memory:", telemetry: Optional[object] = None
    ) -> None:
        super().__init__(catalog, telemetry)
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.isolation_level = None  # explicit transaction control
        self._lock = threading.RLock()
        self._temp_tables: List[str] = []
        self._statements: dict = {}  # (table, key columns) -> _keyed_sql
        self._in_snapshot = False
        if path != ":memory:":
            self._conn.execute("PRAGMA journal_mode=WAL")
        self.create_tables()
        self._save_catalog()

    # -- schema -----------------------------------------------------------

    def create_tables(self) -> None:
        with self._lock:
            for schema in self.catalog:
                columns = ", ".join(
                    f"{_check_name(c.name)} "
                    f"{'REAL' if c.sql_type == 'TIMESTAMP' else c.sql_type}"
                    for c in schema.columns
                )
                self._conn.execute(
                    f"CREATE TABLE IF NOT EXISTS {_check_name(schema.name)} ({columns})"
                )
                # The Heartbeat's source column gets the UNIQUE index below.
                if schema.source_column is not None and schema.name != HEARTBEAT_TABLE:
                    index = f"idx_{schema.name}_{schema.source_column}".lower()
                    self._conn.execute(
                        f"CREATE INDEX IF NOT EXISTS {_check_name(index)} "
                        f"ON {_check_name(schema.name)} ({_check_name(schema.source_column)})"
                    )
            self._conn.execute(
                f"CREATE UNIQUE INDEX IF NOT EXISTS idx_heartbeat_source "
                f"ON {HEARTBEAT_TABLE} ({HEARTBEAT_SOURCE_COLUMN})"
            )
            self._conn.commit()

    def _save_catalog(self) -> None:
        """Persist the catalog inside the database so the file is
        self-describing (used by :meth:`open` and the CLI)."""
        from repro.catalog.serialize import catalog_to_json

        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS trac_catalog (payload TEXT)"
            )
            self._conn.execute("DELETE FROM trac_catalog")
            self._conn.execute(
                "INSERT INTO trac_catalog VALUES (?)", (catalog_to_json(self.catalog),)
            )
            self._conn.commit()

    @classmethod
    def open(cls, path: str) -> "SQLiteBackend":
        """Open an existing monitoring database, rebuilding its catalog
        from the embedded ``trac_catalog`` metadata.

        Raises
        ------
        BackendError
            If the file carries no TRAC catalog.
        """
        from repro.catalog.serialize import catalog_from_json

        probe = sqlite3.connect(path)
        try:
            row = probe.execute("SELECT payload FROM trac_catalog").fetchone()
        except sqlite3.Error as exc:
            raise BackendError(
                f"{path!r} is not a TRAC monitoring database (no trac_catalog): {exc}"
            ) from exc
        finally:
            probe.close()
        if row is None:
            raise BackendError(f"{path!r} has an empty trac_catalog table")
        return cls(catalog_from_json(row[0]), path)

    # -- data -------------------------------------------------------------

    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        schema = self.catalog.get(table)
        placeholders = ", ".join("?" for _ in schema.columns)
        sql = f"INSERT INTO {_check_name(schema.name)} VALUES ({placeholders})"
        with self._lock:
            self._conn.executemany(sql, [tuple(r) for r in rows])
            self._conn.commit()

    def _keyed_sql(self, table: str, key_columns: Tuple[str, ...]) -> Tuple[List[int], str, str]:
        """``(key positions, DELETE by key, INSERT a row)`` for ``table``
        keyed by ``key_columns`` (built once per pair)."""
        sql = self._statements.get((table, key_columns))
        if sql is None:
            schema = self.catalog.get(table)
            where = " AND ".join(f"{_check_name(schema.column(k).name)} = ?" for k in key_columns)
            name, marks = _check_name(schema.name), ", ".join("?" for _ in schema.columns)
            sql = self._statements[table, key_columns] = (
                [schema.column_index(k) for k in key_columns],
                f"DELETE FROM {name} WHERE {where}",
                f"INSERT INTO {name} VALUES ({marks})",
            )
        return sql

    def delete_all(self, table: str) -> None:
        schema = self.catalog.get(table)
        with self._lock:
            self._conn.execute(f"DELETE FROM {_check_name(schema.name)}")
            self._conn.commit()

    def _apply(self, writes: Sequence[Write]) -> None:
        conn = self._conn
        with self._lock:
            # A savepoint is the poll's one transaction, or nests in an open
            # snapshot's: all or nothing either way. Row by row, a key the
            # writes carry twice ends as its last row.
            conn.execute("SAVEPOINT poll")
            try:
                for op, table, key_columns, values in writes:
                    key_indexes, delete_sql, insert_sql = self._keyed_sql(table, key_columns)
                    if op == DELETE:
                        conn.execute(delete_sql, values)
                    else:
                        conn.execute(delete_sql, [values[i] for i in key_indexes])
                        conn.execute(insert_sql, values)
            except BaseException:
                conn.execute("ROLLBACK TO poll")
                conn.execute("RELEASE poll")
                raise
            conn.execute("RELEASE poll")  # outside a snapshot: the poll's one commit

    # -- querying -----------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        return self._run_select(sql)

    def _run_select(self, sql: str) -> QueryResult:
        with self._lock:
            try:
                cursor = self._conn.execute(sql)
            except sqlite3.Error as exc:
                raise BackendError(f"SQLite error for {sql!r}: {exc}") from exc
            columns = [d[0] for d in cursor.description] if cursor.description else []
            rows = [tuple(row) for row in cursor.fetchall()]
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.BACKEND_QUERIES, backend=self.kind)
            tel.count(obs.BACKEND_ROWS_RETURNED, len(rows), backend=self.kind)
        return QueryResult(columns, rows)

    @contextlib.contextmanager
    def snapshot(self) -> Iterator[Snapshot]:
        with self._lock:
            if self._in_snapshot:
                raise BackendError("nested snapshots are not supported")
            self._in_snapshot = True
            # BEGIN starts a deferred transaction: the snapshot is pinned at
            # the first read and held until COMMIT.
            self._conn.execute("BEGIN")
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.SNAPSHOTS_OPENED, backend=self.kind)
        opened = time.perf_counter()
        try:
            yield _SQLiteSnapshot(self)
        finally:
            with self._lock:
                try:
                    self._conn.execute("COMMIT")
                except sqlite3.Error:
                    self._conn.execute("ROLLBACK")
                self._in_snapshot = False
            if tel.enabled:
                tel.count(obs.SNAPSHOTS_CLOSED, backend=self.kind)
                tel.observe(obs.SNAPSHOT_SECONDS, time.perf_counter() - opened, backend=self.kind)

    # -- temp tables ---------------------------------------------------------

    def _create_temp_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        column_sql = ", ".join(_check_name(c) for c in columns)
        with self._lock:
            self._conn.execute(f"CREATE TEMP TABLE {_check_name(name)} ({column_sql})")
            placeholders = ", ".join("?" for _ in columns)
            self._conn.executemany(
                f"INSERT INTO {name} VALUES ({placeholders})", [tuple(r) for r in rows]
            )
            self._temp_tables.append(name)

    def persist_temp_table(self, temp_name: str, permanent_name: str) -> None:
        if temp_name not in self._temp_tables:
            raise BackendError(f"no session temp table {temp_name!r}")
        with self._lock:
            self._conn.execute(
                f"CREATE TABLE {_check_name(permanent_name)} AS "
                f"SELECT * FROM {_check_name(temp_name)}"
            )
            self._conn.commit()

    def drop_temp_table(self, name: str) -> None:
        with self._lock:
            self._conn.execute(f"DROP TABLE IF EXISTS {_check_name(name)}")
            self._temp_tables = [t for t in self._temp_tables if t != name]

    def list_temp_tables(self) -> List[str]:
        return list(self._temp_tables)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            self._conn.close()
