"""Per-operator query profiles: EXPLAIN ANALYZE as structured data."""

import json

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database
from repro.engine.profile import (
    OP_AGGREGATE,
    OP_FILTER,
    OP_JOIN,
    OP_LIMIT,
    OP_PROJECT,
    OP_SCAN,
    OP_SORT,
    QueryProfile,
    profile_query,
)


@pytest.fixture()
def db():
    catalog = Catalog()
    catalog.add(
        TableSchema(
            "activity",
            [Column("mach_id", "TEXT"), Column("state", "TEXT"), Column("t", "REAL")],
        )
    )
    catalog.add(
        TableSchema("routing", [Column("mach_id", "TEXT"), Column("neighbor", "TEXT")])
    )
    database = Database(catalog)
    database.insert_many(
        "activity",
        [(f"m{i % 4 + 1}", "busy" if i % 3 else "idle", float(i)) for i in range(24)],
    )
    database.insert_many(
        "routing", [(f"m{i % 4 + 1}", f"m{(i + 1) % 4 + 1}") for i in range(8)]
    )
    return database


class TestOperators:
    def test_scan_records_pushdown_selectivity(self, db):
        profile = profile_query(db, "SELECT mach_id FROM activity WHERE state = 'idle'")
        scans = [op for op in profile.operators if op.op == OP_SCAN]
        assert len(scans) == 1
        scan = scans[0]
        assert scan.target == "activity"
        assert scan.rows_in == 24
        assert 0 < scan.rows_out < 24
        assert scan.selectivity == scan.rows_out / scan.rows_in
        assert "pushed predicate" in scan.detail

    def test_join_and_projection_operators(self, db):
        profile = profile_query(
            db,
            "SELECT a.mach_id, r.neighbor FROM activity a, routing r "
            "WHERE a.mach_id = r.mach_id",
        )
        ops = [op.op for op in profile.operators]
        assert OP_SCAN in ops and OP_JOIN in ops and OP_PROJECT in ops
        join = next(op for op in profile.operators if op.op == OP_JOIN)
        assert join.rows_out > 0
        assert "build side" in join.detail

    def test_sort_and_limit_operators(self, db):
        profile = profile_query(
            db, "SELECT mach_id, t FROM activity ORDER BY t DESC LIMIT 5"
        )
        ops = [op.op for op in profile.operators]
        assert OP_SORT in ops and OP_LIMIT in ops
        limit = next(op for op in profile.operators if op.op == OP_LIMIT)
        assert limit.rows_out == 5
        assert profile.rows == 5

    def test_aggregate_operator(self, db):
        profile = profile_query(
            db, "SELECT state, COUNT(*) FROM activity GROUP BY state"
        )
        agg = next(op for op in profile.operators if op.op == OP_AGGREGATE)
        assert agg.rows_in == 24
        assert agg.rows_out == profile.rows

    def test_residual_filter_operator(self, db):
        profile = profile_query(
            db,
            "SELECT a.mach_id FROM activity a, routing r "
            "WHERE a.mach_id = r.mach_id AND a.mach_id <> r.neighbor",
        )
        assert any(op.op == OP_FILTER for op in profile.operators)


class TestProfileShape:
    def test_totals_and_serialization(self, db):
        profile = profile_query(db, "SELECT mach_id FROM activity")
        assert profile.rows == 24
        assert profile.columns == ["mach_id"]
        assert profile.total_seconds > 0
        doc = profile.to_dict()
        json.dumps(doc)  # must be JSON-serializable as-is
        assert doc["sql"] == "SELECT mach_id FROM activity"
        assert len(doc["operators"]) == len(profile.operators)
        for op_doc in doc["operators"]:
            assert set(op_doc) == {
                "op", "target", "rows_in", "rows_out", "seconds",
                "selectivity", "detail",
            }

    def test_operator_seconds_sum_close_to_total(self, db):
        profile = profile_query(
            db, "SELECT state, COUNT(*) FROM activity GROUP BY state ORDER BY state"
        )
        assert sum(op.seconds for op in profile.operators) <= profile.total_seconds * 1.5

    def test_render_is_aligned_text(self, db):
        text = profile_query(db, "SELECT mach_id FROM activity LIMIT 3").render()
        lines = text.splitlines()
        assert lines[0].startswith("profile:")
        assert "operator" in lines[1] and "rows_in" in lines[1]
        assert lines[-1].lstrip().startswith("total: 3 row(s)")

    def test_selectivity_none_when_no_input(self):
        profile = QueryProfile("SELECT 1")
        op = profile.add(OP_FILTER, "constant", 0, 0, 0.0)
        assert op.selectivity is None


class TestExplainAnalyze:
    def test_explain_analyze_returns_profile_render(self, db):
        text = profile_query(db, "SELECT mach_id FROM activity LIMIT 2").render()
        assert text.startswith("profile:")
        assert "scan" in text


class TestTelemetryCapture:
    def test_execute_sql_records_profile_when_enabled(self, db):
        from repro.engine.evaluate import execute_sql
        from repro.obs.instrument import Telemetry

        tel = Telemetry()
        execute_sql(db, "SELECT mach_id FROM activity", telemetry=tel)
        assert len(tel.profiles) == 1
        profile = tel.profiles.last()
        assert profile.sql == "SELECT mach_id FROM activity"
        assert profile.cache_hit is False
        execute_sql(db, "SELECT mach_id FROM activity", telemetry=tel)
        assert tel.profiles.last().cache_hit is True

    def test_no_profiling_work_without_telemetry(self, db):
        from repro.engine.evaluate import execute_sql

        result = execute_sql(db, "SELECT mach_id FROM activity")
        assert len(result.rows) == 24

    def test_profile_log_is_bounded(self):
        from repro.obs.instrument import ProfileLog

        log = ProfileLog(capacity=4)
        for i in range(10):
            profile = QueryProfile(f"q{i}")
            log.record(profile)
        assert len(log) == 4
        assert log.total == 10
        assert [p.sql for p in log.snapshot()] == ["q6", "q7", "q8", "q9"]
