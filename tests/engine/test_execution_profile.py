"""The one profile is the contract: it rides on the result, the ring is a
copy, and compiled and interpreted executions record the same operators."""

import inspect
import threading

import pytest

from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core.report import RecencyReporter
from repro.engine import Database, execute_query, execute_sql
from repro.engine.profile import profile_query
from repro.obs.instrument import Telemetry
from tests.engine.test_vs_sqlite import CURATED, ROWS1, ROWS2, make_catalog

USER_SQL = "SELECT t1.s FROM t1 WHERE t1.x > 1"


def make_db() -> Database:
    db = Database(make_catalog())
    db.insert_many("t1", ROWS1)
    db.insert_many("t2", ROWS2)
    return db


def shape(profile):
    return [
        (op.op, op.target, op.rows_in, op.rows_out, op.detail)
        for op in profile.operators
    ]


@pytest.mark.parametrize("sql", CURATED + ["SELECT DISTINCT s FROM t1 ORDER BY s LIMIT 2"])
def test_compiled_and_interpreted_record_the_same_operators(sql):
    db = make_db()
    compiled = profile_query(db, sql, compiled=True)
    interpreted = profile_query(db, sql, compiled=False)
    assert shape(compiled) == shape(interpreted)
    assert compiled.pipeline == interpreted.pipeline
    assert (compiled.rows, compiled.columns) == (interpreted.rows, interpreted.columns)


def test_execute_query_has_no_trace_parameter():
    assert "trace" not in inspect.signature(execute_query).parameters


class TestProfileRidesOnTheResult:
    def test_profiled_result_carries_the_newest_ring_entry(self):
        tel = Telemetry()
        db = make_db()
        execute_sql(db, "SELECT s FROM t1", telemetry=tel)
        result = execute_sql(db, USER_SQL, telemetry=tel)
        assert result.profile is tel.profiles.last()
        assert result.profile.sql == USER_SQL
        assert result.profile.rows == len(result.rows)
        assert result.profile.total_seconds > 0

    def test_unprofiled_and_sqlite_results_carry_none(self):
        assert execute_sql(make_db(), USER_SQL).profile is None
        backend = SQLiteBackend(make_catalog(), telemetry=Telemetry())
        try:
            backend.insert_rows("t1", ROWS1)
            assert backend.execute(USER_SQL).profile is None
        finally:
            backend.close()

    def test_traced_report_gets_the_user_query_profile(self, monkeypatch):
        tel = Telemetry()
        backend = MemoryBackend(make_catalog(), telemetry=tel)
        backend.insert_rows("t1", ROWS1)
        backend.insert_rows("t2", ROWS2)
        for source in "abc":
            backend.upsert_heartbeat(source, 100.0)
        for _ in range(tel.profiles.capacity + 5):  # ring at capacity
            backend.execute("SELECT s FROM t2")
        assert len(tel.profiles) == tel.profiles.capacity

        stop = threading.Event()

        def other_sql():
            while not stop.is_set():
                backend.execute("SELECT y FROM t2 WHERE y > 1")

        def forbidden():
            raise AssertionError("the report path copied the profile ring")

        monkeypatch.setattr(tel.profiles, "snapshot", forbidden)
        noise = threading.Thread(target=other_sql)
        noise.start()
        try:
            reports = [
                RecencyReporter(backend, telemetry=tel).report(USER_SQL)
                for _ in range(20)
            ]
        finally:
            stop.set()
            noise.join(timeout=10)
        assert not noise.is_alive()
        for report in reports:
            assert report.profile is report.result.profile
            assert report.profile.sql == USER_SQL
            assert report.profile.trace_id == report.telemetry.trace_id_hex
            assert report.to_dict()["profile"]["sql"] == USER_SQL
