"""Backend behaviour shared across implementations, plus SQLite-specific
snapshot-isolation tests."""

import contextlib
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, Column, FiniteDomain, MemoryBackend, SQLiteBackend, TableSchema
from repro.backends.base import UPSERT
from repro.errors import BackendError
from repro.grid.events import EventKind, LogEvent
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import event_writes


def tiny_catalog():
    return Catalog(
        [
            TableSchema(
                "t",
                [Column("s", "TEXT", FiniteDomain({"a", "b"})), Column("x", "INTEGER")],
                source_column="s",
            )
        ]
    )


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    if request.param == "memory":
        yield MemoryBackend(tiny_catalog())
    else:
        b = SQLiteBackend(tiny_catalog())
        yield b
        b.close()


class TestCrud:
    def test_insert_and_count(self, backend):
        backend.insert_rows("t", [("a", 1), ("b", 2)])
        assert backend.row_count("t") == 2

    def test_execute_select(self, backend):
        backend.insert_rows("t", [("a", 1), ("b", 2)])
        result = backend.execute("SELECT s FROM t WHERE x > 1")
        assert result.rows == [("b",)]

    def test_delete_all(self, backend):
        backend.insert_rows("t", [("a", 1)])
        backend.delete_all("t")
        assert backend.row_count("t") == 0

    def test_upsert_rows_replaces_by_key(self, backend):
        backend.insert_rows("t", [("a", 1)])
        backend.upsert_rows("t", ("s",), [("a", 99), ("b", 2)])
        result = {s: x for s, x in backend.execute("SELECT s, x FROM t").rows}
        assert result == {"a": 99, "b": 2}
        assert backend.row_count("t") == 2

    def test_upsert_keeps_the_last_row_of_a_key_the_call_carries_twice(self, backend):
        backend.upsert_rows("t", ("s",), [("a", 1), ("b", 2), ("a", 3)])
        assert sorted(backend.execute("SELECT s, x FROM t").rows) == [("a", 3), ("b", 2)]

    def test_upsert_collapses_a_bag_to_one_row(self, backend):
        """Rows loaded by ``insert_rows`` stay a bag until their key is upserted."""
        backend.insert_rows("t", [("a", 1), ("a", 2), ("a", 3), ("b", 4)])
        assert backend.row_count("t") == 4
        backend.upsert_rows("t", ("s",), [("a", 9)])
        assert sorted(backend.execute("SELECT s, x FROM t").rows) == [("a", 9), ("b", 4)]

    def test_upsert_composite_key(self, backend):
        backend.insert_rows("t", [("a", 1), ("a", 2)])
        backend.upsert_rows("t", ("s", "x"), [("a", 1)])
        assert backend.row_count("t") == 2

    def test_delete_rows_by_key(self, backend):
        backend.insert_rows("t", [("a", 1), ("b", 2)])
        backend.delete_rows("t", ("s",), [("a",)])
        assert backend.execute("SELECT s FROM t").rows == [("b",)]


class TestHeartbeat:
    def test_upsert_heartbeat_inserts(self, backend):
        backend.upsert_heartbeat("a", 100.0)
        assert dict(backend.heartbeat_rows()).get("a") == 100.0

    def test_upsert_heartbeat_updates(self, backend):
        backend.upsert_heartbeat("a", 100.0)
        backend.upsert_heartbeat("a", 200.0)
        assert dict(backend.heartbeat_rows()).get("a") == 200.0
        assert len(backend.heartbeat_rows()) == 1

    def test_heartbeat_rows(self, backend):
        backend.upsert_heartbeat("a", 1.0)
        backend.upsert_heartbeat("b", 2.0)
        assert sorted(backend.heartbeat_rows()) == [("a", 1.0), ("b", 2.0)]

    def test_a_nan_recency_is_refused_whole(self, backend):
        """Stored, a NaN is NULL: the write would land a recency no report
        can read, so the poll is refused, naming its source, and lands nothing."""
        backend.upsert_heartbeat("a", 1.0)
        with pytest.raises(BackendError, match="'b'"):
            backend.apply_poll([(UPSERT, "t", ("s",), ("b", 7))], "b", float("nan"))
        assert backend.heartbeat_rows() == [("a", 1.0)]
        assert backend.row_count("t") == 0


class TestSnapshots:
    def test_queries_inside_snapshot(self, backend):
        backend.insert_rows("t", [("a", 1)])
        with backend.snapshot() as snap:
            assert snap.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_memory_snapshot_isolated_from_later_writes(self):
        backend = MemoryBackend(tiny_catalog())
        backend.insert_rows("t", [("a", 1)])
        with backend.snapshot() as snap:
            backend.insert_rows("t", [("b", 2)])
            assert snap.execute("SELECT COUNT(*) FROM t").scalar() == 1
        assert backend.row_count("t") == 2

    def test_sqlite_snapshot_isolated_from_concurrent_writer(self, tmp_path):
        """The Section 3.2 consistency requirement: a snapshot must not see
        writes committed by another connection after the snapshot started."""
        backend = SQLiteBackend(tiny_catalog(), str(tmp_path / "db.sqlite"))
        backend.insert_rows("t", [("a", 1)])
        writer = sqlite3.connect(backend.path)
        try:
            with backend.snapshot() as snap:
                before = snap.execute("SELECT COUNT(*) FROM t").scalar()
                writer.execute("INSERT INTO t VALUES ('b', 2)")
                writer.commit()
                after = snap.execute("SELECT COUNT(*) FROM t").scalar()
                assert before == after == 1
            assert backend.row_count("t") == 2
        finally:
            writer.close()
            backend.close()

    def test_nested_snapshot_rejected_sqlite(self):
        backend = SQLiteBackend(tiny_catalog())
        try:
            with backend.snapshot():
                with pytest.raises(BackendError):
                    with backend.snapshot():
                        pass
        finally:
            backend.close()


class TestTempTables:
    def test_create_and_query_temp_table(self, backend):
        with backend.snapshot() as snap:
            snap.create_temp_table("sys_temp_a99", ("sid", "recency"), [("a", 1.0)])
        assert "sys_temp_a99" in backend.list_temp_tables()
        result = backend.execute("SELECT sid FROM sys_temp_a99")
        assert result.rows == [("a",)]

    def test_drop_temp_table(self, backend):
        with backend.snapshot() as snap:
            snap.create_temp_table("sys_temp_a98", ("sid",), [])
        backend.drop_temp_table("sys_temp_a98")
        assert "sys_temp_a98" not in backend.list_temp_tables()

    def test_drop_missing_temp_table_is_noop(self, backend):
        backend.drop_temp_table("never_created")


class TestSqliteSpecifics:
    def test_invalid_identifier_rejected(self):
        backend = SQLiteBackend(tiny_catalog())
        try:
            with pytest.raises(BackendError):
                with backend.snapshot() as snap:
                    snap.create_temp_table("bad; DROP TABLE t", ("sid",), [])
        finally:
            backend.close()

    def test_bad_sql_raises_backend_error(self):
        backend = SQLiteBackend(tiny_catalog())
        try:
            with pytest.raises(BackendError):
                backend.execute("SELECT nonsense FROM nowhere")
        finally:
            backend.close()

    def test_source_column_index_created(self):
        backend = SQLiteBackend(tiny_catalog())
        try:
            rows = backend._conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()
            names = {r[0] for r in rows}
            assert "idx_t_s" in names
            heartbeat = backend._conn.execute("PRAGMA index_list(heartbeat)").fetchall()
            assert [(row[1], row[2]) for row in heartbeat] == [("idx_heartbeat_source", 1)]
            (column,) = backend._conn.execute("PRAGMA index_info(idx_heartbeat_source)")
            assert column[2] == "source_id"
        finally:
            backend.close()

    def test_timestamp_maps_to_real_in_ddl(self):
        schema = TableSchema("t", [Column("s", "TEXT"), Column("ts", "TIMESTAMP")])
        with SQLiteBackend(Catalog([schema])) as backend:
            columns = backend._conn.execute("PRAGMA table_info(t)").fetchall()
        assert [(row[1], row[2]) for row in columns] == [("s", "TEXT"), ("ts", "REAL")]

    def test_context_manager_closes(self):
        with SQLiteBackend(tiny_catalog()) as backend:
            backend.insert_rows("t", [("a", 1)])

    @pytest.mark.parametrize("in_snapshot", [False, True])
    def test_a_poll_failing_partway_lands_nothing(self, in_snapshot):
        """A statement failing mid-poll rolls the whole poll back — also
        inside an open snapshot, whose own transaction later commits."""
        backend = SQLiteBackend(tiny_catalog())
        backend.insert_rows("t", [("b", 1)])
        # The second write deletes b's row, then its short INSERT fails.
        writes = [(UPSERT, "t", ("s",), ("a", 1)), (UPSERT, "t", ("s",), ("b",))]
        try:
            with contextlib.ExitStack() as stack:
                if in_snapshot:
                    stack.enter_context(backend.snapshot())
                with pytest.raises(sqlite3.ProgrammingError):
                    backend.apply_poll(writes, "a", 5.0)
            assert backend.execute("SELECT s, x FROM t").rows == [("b", 1)]
            assert backend.heartbeat_rows() == []
            backend.apply_poll(writes[:1], "a", 5.0)  # the connection writes on
            assert sorted(backend.execute("SELECT s, x FROM t").rows) == [("a", 1), ("b", 1)]
            assert backend.heartbeat_rows() == [("a", 5.0)]
        finally:
            backend.close()


MACHINES = ("m1", "m2", "m3")
_JOB = {"job_id": st.sampled_from(["j1", "j2", "j3"])}
_PAYLOADS = {
    EventKind.MACHINE_STATE: {"value": st.sampled_from(["idle", "busy"])},
    EventKind.NEIGHBOR_ADDED: {"neighbor": st.sampled_from(MACHINES)},
    EventKind.JOB_SUBMITTED: _JOB,
    EventKind.JOB_SCHEDULED: {**_JOB, "remote_machine": st.sampled_from(MACHINES)},
    EventKind.JOB_STARTED: _JOB,
    EventKind.JOB_COMPLETED: _JOB,
    EventKind.JOB_SUSPENDED: _JOB,
    EventKind.HEARTBEAT: {},
}
_events = st.lists(
    st.sampled_from(list(_PAYLOADS)).flatmap(
        lambda kind: st.tuples(
            st.just(kind), st.sampled_from(MACHINES), st.fixed_dictionaries(_PAYLOADS[kind])
        )
    ),
    max_size=40,
)


class TestSameContent:
    @given(_events)
    @settings(max_examples=60, deadline=None)
    def test_memory_and_sqlite_hold_the_same_rows_for_one_event_sequence(self, events):
        """What a sniffer does — one ``apply_poll`` of an event's writes and
        the heartbeat it publishes — leaves both backends with the same sorted
        tables; scan order is not compared (memory overwrites in place, SQLite
        re-inserts)."""
        catalog = monitoring_catalog(MACHINES)
        contents = []
        for backend in (MemoryBackend(catalog), SQLiteBackend(catalog)):
            with backend:
                for tick, (kind, source, payload) in enumerate(events):
                    writes = event_writes([LogEvent(float(tick), source, kind, payload)])
                    backend.apply_poll(writes, source, float(tick))
                contents.append(
                    {
                        schema.name: sorted(
                            backend.execute(f"SELECT * FROM {schema.name}").rows, key=repr
                        )
                        for schema in catalog
                    }
                )
        assert contents[0] == contents[1]
        assert len(contents[0]["heartbeat"]) == len({source for _, source, _ in events})


class TestInfiniteLiterals:
    """A literal that overflows to infinity reaches every backend as text
    that lexes back: the generated subquery carries ``1e999``, not ``inf``."""

    SQL = "SELECT t.a FROM t, u WHERE t.a = u.c AND u.d < 1e999"

    @staticmethod
    def _catalog():
        return Catalog(
            [
                TableSchema("t", [Column("a", "TEXT"), Column("x", "INTEGER")], source_column="a"),
                TableSchema(
                    "u",
                    [Column("s", "TEXT"), Column("c", "TEXT"), Column("d", "REAL")],
                    source_column="s",
                ),
            ]
        )

    def _report(self, backend):
        from repro.core.report import RecencyReporter

        backend.insert_rows("t", [("m1", 1), ("m2", 2)])
        backend.insert_rows("u", [("m3", "m1", 5.0), ("m3", "m2", float("inf"))])
        for i, source in enumerate(("m1", "m2", "m3")):
            backend.upsert_heartbeat(source, 100.0 + i)
        report = RecencyReporter(backend).report(self.SQL)
        return sorted(report.result.rows), report.relevant_source_ids

    def test_memory_and_sqlite_give_equal_reports(self):
        memory = self._report(MemoryBackend(self._catalog()))
        sqlite_backend = SQLiteBackend(self._catalog())
        try:
            assert self._report(sqlite_backend) == memory
        finally:
            sqlite_backend.close()
        assert memory[0] == [("m1",)]
