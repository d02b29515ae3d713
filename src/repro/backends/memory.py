"""Pure-Python backend over the mini relational engine."""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.backends.base import Backend, Snapshot
from repro.catalog import HEARTBEAT_TABLE, Catalog
from repro.engine import Database, execute_sql
from repro.engine.evaluate import QueryResult
from repro.errors import BackendError, LexerError
from repro.obs import instrument as obs
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.tokens import TokenType


class _MemorySnapshot(Snapshot):
    """A frozen view of the database's row lists (copy-on-write)."""

    def __init__(self, backend: "MemoryBackend", frozen: Database) -> None:
        self._backend = backend
        self._frozen = frozen

    def execute(self, sql: str, lineage: bool = False) -> QueryResult:
        return self._backend._execute_on(
            self._frozen, sql, in_snapshot=True, lineage=lineage
        )

    def create_temp_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        self._backend._store_temp_table(name, columns, rows)


class MemoryBackend(Backend):
    """Backend storing rows in :class:`repro.engine.Database` relations.

    Session temp tables are kept in a side dictionary and consulted during
    query execution, mirroring how real engines resolve temp names before
    permanent ones.

    Thread safety
    -------------
    Mutations and snapshot open/close serialize on one backend lock: the
    engine's copy-on-write share counting (``Relation.share`` /
    ``release_share``) is deliberately unsynchronized, so the backend is
    the layer that makes ``snapshot()`` safe against concurrent ingest.
    Queries running *inside* an open snapshot never take the lock — a
    frozen view's row lists are immutable by construction (writers copy),
    which is what lets the serving front end run hundreds of concurrent
    readers against one backend while a simulator keeps writing.

    ``cow_snapshots`` (default True) opens snapshots as O(#tables)
    copy-on-write views; ``False`` restores the pre-fast-path O(#rows)
    deep copy and exists for baseline measurements
    (``tools/check_fastpath_speedup.py``).

    Change listeners
    ----------------
    Components that maintain derived state (the incremental report
    maintainer in :mod:`repro.incremental`) register via
    :meth:`add_change_listener` and are notified synchronously from every
    mutation, *after* the rows have landed. Listeners are duck-typed; each
    notification calls the listener method of the same name when present:

    * ``heartbeat_upserted(source_id, recency)``
    * ``heartbeat_rows_inserted(rows)``
    * ``heartbeat_rows_upserted(key_columns, rows)``
    * ``heartbeat_rows_deleted(key_columns, keys)`` — deletes emit an
      explicit invalidation event so materialized sets can never serve a
      tombstoned source
    * ``heartbeat_cleared()``
    * ``table_changed(table)`` for non-heartbeat mutations

    With no listeners registered every notify site is a single falsy
    check, so the write path stays as fast as before.
    """

    kind = "memory"

    def __init__(
        self,
        catalog: Catalog,
        telemetry: Optional[object] = None,
        cow_snapshots: bool = True,
    ) -> None:
        super().__init__(catalog, telemetry)
        self.db = Database(catalog)
        self._temp: Dict[str, Tuple[List[str], List[Tuple[object, ...]]]] = {}
        #: Lower-cased ``_temp`` names, intersected with a query's identifiers.
        self._temp_names: Set[str] = set()
        self._cow_snapshots = cow_snapshots
        self._heartbeat_index: Dict[str, int] = {}
        self._heartbeat_index_valid = True
        self._listeners: List[object] = []
        # Serializes writers against snapshot open/close (see class
        # docstring). RLock: a change listener may call back into reads.
        self._mutate_lock = threading.RLock()

    # -- change listeners ----------------------------------------------------

    def add_change_listener(self, listener: object) -> None:
        """Register ``listener`` for mutation notifications (see class
        docstring for the event vocabulary)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_change_listener(self, listener: object) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, event: str, *args: object) -> None:
        for listener in self._listeners:
            method = getattr(listener, event, None)
            if method is not None:
                method(*args)

    # -- schema / data -------------------------------------------------------

    def create_tables(self) -> None:
        for schema in self.catalog:
            if not self.db.has(schema.name):
                self.db.add_table(schema)

    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        heartbeat = table.lower() == HEARTBEAT_TABLE
        if self._listeners and heartbeat:
            rows = [tuple(r) for r in rows]
        with self._mutate_lock:
            self.db.insert_many(table, rows)
            if heartbeat:
                self._heartbeat_index_valid = False
            if self._listeners:
                if heartbeat:
                    self._notify("heartbeat_rows_inserted", rows)
                else:
                    self._notify("table_changed", table)

    def upsert_rows(
        self,
        table: str,
        key_columns: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> None:
        relation = self.db.relation(table)
        key_indexes = [relation.schema.column_index(k) for k in key_columns]
        heartbeat = table.lower() == HEARTBEAT_TABLE
        if self._listeners and heartbeat:
            rows = [tuple(r) for r in rows]
        with self._mutate_lock:
            for row in rows:
                row = tuple(row)
                key = tuple(row[i] for i in key_indexes)
                relation.delete_where(
                    lambda r, key=key: tuple(r[i] for i in key_indexes) == key
                )
                relation.insert(row)
            if heartbeat:
                self._heartbeat_index_valid = False
            if self._listeners:
                if heartbeat:
                    self._notify("heartbeat_rows_upserted", tuple(key_columns), rows)
                else:
                    self._notify("table_changed", table)

    def delete_rows(
        self,
        table: str,
        key_columns: Sequence[str],
        keys: Iterable[Sequence[object]],
    ) -> None:
        relation = self.db.relation(table)
        key_indexes = [relation.schema.column_index(k) for k in key_columns]
        wanted = {tuple(k) for k in keys}
        with self._mutate_lock:
            relation.delete_where(lambda r: tuple(r[i] for i in key_indexes) in wanted)
            if table.lower() == HEARTBEAT_TABLE:
                # Deleting shifts positions; the index is rebuilt lazily on the
                # next upsert_heartbeat (previously it silently went stale).
                self._heartbeat_index_valid = False
                if self._listeners:
                    # Deletes must be announced eagerly: a lazily rebuilt index
                    # is fine for the backend itself, but any materialized set
                    # downstream would keep serving the tombstoned source.
                    self._notify(
                        "heartbeat_rows_deleted", tuple(key_columns), sorted(wanted)
                    )
            elif self._listeners:
                self._notify("table_changed", table)

    def delete_all(self, table: str) -> None:
        relation = self.db.relation(table)
        with self._mutate_lock:
            relation.clear()
            if table.lower() == HEARTBEAT_TABLE:
                self._heartbeat_index.clear()
                self._heartbeat_index_valid = True
                if self._listeners:
                    self._notify("heartbeat_cleared")
            elif self._listeners:
                self._notify("table_changed", table)

    def upsert_heartbeat(self, source_id: str, recency: float) -> None:
        relation = self.db.relation(HEARTBEAT_TABLE)
        with self._mutate_lock:
            if not self._heartbeat_index_valid:
                self._heartbeat_index = {
                    str(row[0]): position for position, row in enumerate(relation.rows)
                }
                self._heartbeat_index_valid = True
            position = self._heartbeat_index.get(source_id)
            if position is None:
                self._heartbeat_index[source_id] = len(relation.rows)
                relation.insert((source_id, recency))
            else:
                relation.replace_row(position, (source_id, recency))
            if self._listeners:
                self._notify("heartbeat_upserted", source_id, recency)

    # -- querying ---------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        return self._execute_on(self.db, sql)

    def _execute_on(
        self,
        db: Database,
        sql: str,
        in_snapshot: bool = False,
        lineage: bool = False,
    ) -> QueryResult:
        tel = obs.resolve(self.telemetry)
        if self._references_temp_table(sql):
            # Temp tables carry no source column, so lineage over them
            # would be vacuous; the shadow-database path skips it.
            result = self._execute_with_temp(db, sql)
        else:
            result = execute_sql(db, sql, telemetry=tel, in_snapshot=in_snapshot, lineage=lineage)
        if tel.enabled:
            tel.count(obs.BACKEND_QUERIES, backend=self.kind)
            tel.count(obs.BACKEND_ROWS_RETURNED, len(result.rows), backend=self.kind)
        return result

    def _references_temp_table(self, sql: str) -> bool:
        """Whether ``sql`` names a session temp table as an identifier.

        Matching on lexer tokens (not raw substrings) keeps a temp name
        like ``rep_norm_1`` from misfiring on ``rep_norm_10`` or on string
        literals that happen to contain it.
        """
        if not self._temp_names:
            return False
        try:
            tokens = tokenize(sql)
        except LexerError:
            return False  # let the normal path raise the real parse error
        identifiers: Set[str] = {
            token.value.lower()
            for token in tokens
            if token.type is TokenType.IDENTIFIER and isinstance(token.value, str)
        }
        return not identifiers.isdisjoint(self._temp_names)

    def _execute_with_temp(self, db: Database, sql: str) -> QueryResult:
        # Queries over temp tables are rare (a user inspecting a recency
        # report); support the simple form SELECT ... FROM <temp_table>.
        # Base tables are attached as CoW shares, not copied.
        from repro.catalog import Column, TableSchema
        from repro.catalog.catalog import Catalog as _Catalog

        extended = _Catalog()
        for schema in db.catalog:
            if schema.name.lower() != HEARTBEAT_TABLE:
                extended.add(schema)
        shadow = Database(extended)
        shared: List[Tuple[object, object]] = []
        with self._mutate_lock:
            for name in shadow.tables():
                if db.has(name):
                    source = db.relation(name)
                    view = source.share()
                    shadow.attach(name, view)
                    shared.append((source, view))
        for name, (columns, rows) in self._temp.items():
            schema = TableSchema(name, [Column(c, "TEXT") for c in columns])
            shadow.add_table(schema, rows)
        try:
            return execute_sql(shadow, sql, cache=False)
        finally:
            with self._mutate_lock:
                for source, view in shared:
                    source.release_share(view)

    @contextlib.contextmanager
    def snapshot(self) -> Iterator[Snapshot]:
        tel = obs.resolve(self.telemetry)
        enabled = tel.enabled
        if enabled:
            tel.count(obs.SNAPSHOTS_OPENED, backend=self.kind)
            opened = time.perf_counter()
        with self._mutate_lock:
            frozen = self.db.snapshot_view() if self._cow_snapshots else self.db.copy()
        try:
            yield _MemorySnapshot(self, frozen)
        finally:
            if self._cow_snapshots:
                with self._mutate_lock:
                    self.db.release_view(frozen)
            if enabled:
                tel.count(obs.SNAPSHOTS_CLOSED, backend=self.kind)
                tel.observe(obs.SNAPSHOT_SECONDS, time.perf_counter() - opened, backend=self.kind)

    # -- temp tables ---------------------------------------------------------------

    def _store_temp_table(
        self, name: str, columns: Sequence[str], rows: Iterable[Sequence[object]]
    ) -> None:
        if name.lower() in self._temp_names:
            raise BackendError(f"temp table {name!r} already exists")
        self._temp[name] = (list(columns), [tuple(r) for r in rows])
        self._temp_names.add(name.lower())

    def persist_temp_table(self, temp_name: str, permanent_name: str) -> None:
        from repro.catalog import Column, TableSchema

        if temp_name not in self._temp:
            raise BackendError(f"no session temp table {temp_name!r}")
        columns, rows = self._temp[temp_name]
        schema = TableSchema(permanent_name, [Column(c, "TEXT") for c in columns])
        if self.catalog.has(permanent_name):
            raise BackendError(f"table {permanent_name!r} already exists")
        self.db.add_table(schema, rows)

    def drop_temp_table(self, name: str) -> None:
        if self._temp.pop(name, None) is not None:
            self._temp_names.discard(name.lower())

    def list_temp_tables(self) -> List[str]:
        return list(self._temp)
