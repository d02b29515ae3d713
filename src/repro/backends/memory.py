"""Pure-Python backend over the mini relational engine."""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.backends.base import DELETE, Backend, Snapshot, Write
from repro.catalog import HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_TABLE, Catalog
from repro.engine import Database, execute_sql
from repro.engine.evaluate import QueryResult
from repro.errors import BackendError, LexerError
from repro.obs import instrument as obs
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.tokens import TokenType


class _MemorySnapshot(Snapshot):
    """A frozen view of the database's row lists (copy-on-write); ``db``
    is that view, as the backend's ``db`` is the live database."""

    def __init__(self, backend: "MemoryBackend", frozen: Database) -> None:
        self._backend = backend
        self.db = frozen

    def execute(self, sql: str, lineage: bool = False, statement=None) -> QueryResult:
        return self._backend._execute_on(self.db, sql, True, lineage, statement)

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

    Snapshots are O(#tables) copy-on-write views
    (:meth:`Database.snapshot_view` / :meth:`Database.release_view`); no
    row is copied unless a writer touches a table a snapshot still shares.

    Writes
    ------
    Every keyed write — a poll's ``apply_poll``, ``upsert_rows``,
    ``delete_rows``, ``upsert_heartbeat`` — is one lock hold over a loop of
    :meth:`Relation.upsert` / :meth:`Relation.delete_keys`, whose key
    index is derived from the call's ``key_columns`` (see
    :mod:`repro.engine.relation`); the Heartbeat is keyed on its source
    column from construction, so a bulk load is indexed too.
    """

    kind = "memory"

    def __init__(self, catalog: Catalog, telemetry: Optional[object] = None) -> None:
        super().__init__(catalog, telemetry)
        self.db = Database(catalog)
        heartbeat = self.db.relation(HEARTBEAT_TABLE)
        heartbeat.index_on((heartbeat.schema.column_index(HEARTBEAT_SOURCE_COLUMN),))
        self._temp: Dict[str, Tuple[List[str], List[Tuple[object, ...]]]] = {}
        #: Lower-cased ``_temp`` names, intersected with a query's identifiers.
        self._temp_names: Set[str] = set()
        # Serializes writers against snapshot open/close (see class docstring).
        self._mutate_lock = threading.Lock()

    # -- schema / data -------------------------------------------------------

    def create_tables(self) -> None:
        for schema in self.catalog:
            if not self.db.has(schema.name):
                self.db.add_table(schema)

    def insert_rows(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        with self._mutate_lock:
            self.db.insert_many(table, rows)

    def delete_all(self, table: str) -> None:
        relation = self.db.relation(table)
        with self._mutate_lock:
            relation.clear()

    def _apply(self, writes: Sequence[Write]) -> None:
        db = self.db
        with self._mutate_lock:  # one hold: a snapshot sees the poll whole
            for op, table, key_columns, values in writes:
                relation = db.relation(table)
                key_indexes = tuple(relation.schema.column_index(k) for k in key_columns)
                if op == DELETE:
                    relation.delete_keys(key_indexes, [values])
                else:
                    relation.upsert(key_indexes, values)

    # -- querying ---------------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        return self._execute_on(self.db, sql)

    def _execute_on(
        self,
        db: Database,
        sql: str,
        in_snapshot: bool = False,
        lineage: bool = False,
        statement=None,
    ) -> QueryResult:
        tel = obs.resolve(self.telemetry)
        if self._references_temp_table(sql):
            # Temp tables carry no source column, so lineage over them
            # would be vacuous; the shadow-database path skips it.
            result = self._execute_with_temp(db, sql)
        else:
            result = execute_sql(db, sql, tel, in_snapshot=in_snapshot, lineage=lineage,
                                 statement=statement)
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
        # Base tables are a snapshot view of ``db``, not copied, under a
        # catalog of their own that the temp tables join.
        from repro.catalog import Column, TableSchema

        with self._mutate_lock:
            shadow = db.snapshot_view()
        shadow.catalog = Catalog(db.catalog.monitored_tables())
        for name, (columns, rows) in self._temp.items():
            shadow.add_table(TableSchema(name, [Column(c, "TEXT") for c in columns]), rows)
        try:
            return execute_sql(shadow, sql, cache=False)
        finally:
            with self._mutate_lock:
                db.release_view(shadow)

    @contextlib.contextmanager
    def snapshot(self) -> Iterator[Snapshot]:
        tel = obs.resolve(self.telemetry)
        enabled = tel.enabled
        if enabled:
            tel.count(obs.SNAPSHOTS_OPENED, backend=self.kind)
            opened = time.perf_counter()
        with self._mutate_lock:
            frozen = self.db.snapshot_view()
        try:
            yield _MemorySnapshot(self, frozen)
        finally:
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
