"""Engine EXPLAIN trace tests: the plan decisions a profile records."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database
from repro.engine.profile import PIPELINE_CONJUNCTIVE, PIPELINE_GENERAL, profile_query


@pytest.fixture
def db():
    t1 = TableSchema(
        "t1", [Column("s", "TEXT"), Column("x", "INTEGER")], source_column="s"
    )
    t2 = TableSchema(
        "t2", [Column("s", "TEXT"), Column("y", "INTEGER")], source_column="s"
    )
    database = Database(Catalog([t1, t2]))
    database.insert_many("t1", [("a", 1), ("b", 2), ("c", 3)])
    database.insert_many("t2", [("a", 1), ("b", 2)])
    return database


def plan(db, sql):
    """The profile and its operators by ``(op, target)``."""
    profile = profile_query(db, sql)
    return profile, {(op.op, op.target): op for op in profile.operators}


class TestExplain:
    def test_conjunctive_plan_reported(self, db):
        profile, ops = plan(db, "SELECT s FROM t1 WHERE x > 1")
        assert profile.pipeline == PIPELINE_CONJUNCTIVE
        scan = ops["scan", "t1"]
        assert (scan.detail, scan.rows_in, scan.rows_out) == ("1 pushed predicate(s)", 3, 2)
        assert profile.rows == 2

    def test_full_scan_reported(self, db):
        _, ops = plan(db, "SELECT s FROM t1")
        scan = ops["scan", "t1"]
        assert (scan.detail, scan.rows_in) == ("full scan", 3)

    def test_hash_join_reported(self, db):
        _, ops = plan(db, "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s")
        # The smaller side (t2) starts the join order, so t1 is joined in.
        assert ops["join", "t1"].detail.startswith("hash join on 1 key(s)")

    def test_nested_loop_reported(self, db):
        _, ops = plan(db, "SELECT t1.s FROM t1, t2 WHERE t1.x < t2.y")
        assert any(op.detail.startswith("nested loop") for (kind, _), op in ops.items()
                   if kind == "join")

    def test_general_boolean_plan(self, db):
        profile, _ = plan(db, "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s OR t1.x = 1")
        assert profile.pipeline == PIPELINE_GENERAL

    def test_pushdown_selectivity_visible(self, db):
        _, ops = plan(db, "SELECT t1.s FROM t1, t2 WHERE t1.x > 2 AND t1.s = t2.s")
        assert (ops["scan", "t1"].rows_in, ops["scan", "t1"].rows_out) == (3, 1)

    def test_trace_does_not_change_results(self, db):
        from repro.engine import execute_sql

        sql = "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s"
        plain = execute_sql(db, sql)
        profile, _ = plan(db, sql)
        assert profile.rows == len(plain.rows)
