"""Engine EXPLAIN trace tests: the profile's plan rendering."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database
from repro.engine.profile import profile_query


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


class TestExplain:
    def test_conjunctive_plan_reported(self, db):
        text = profile_query(db, "SELECT s FROM t1 WHERE x > 1").render_plan()
        assert "plan: conjunctive" in text
        assert "scan t1: 1 pushed predicate(s), 3 -> 2 rows" in text
        assert "result: 2 row(s)" in text

    def test_full_scan_reported(self, db):
        text = profile_query(db, "SELECT s FROM t1").render_plan()
        assert "scan t1: full (3 rows)" in text

    def test_hash_join_reported(self, db):
        text = profile_query(db, "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s").render_plan()
        assert "hash join on 1 key(s)" in text
        assert "join order starts at t2" in text  # smaller side first

    def test_nested_loop_reported(self, db):
        text = profile_query(db, "SELECT t1.s FROM t1, t2 WHERE t1.x < t2.y").render_plan()
        assert "nested loop" in text

    def test_general_boolean_plan(self, db):
        text = profile_query(db, "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s OR t1.x = 1").render_plan()
        assert "plan: general boolean" in text

    def test_pushdown_selectivity_visible(self, db):
        text = profile_query(
            db, "SELECT t1.s FROM t1, t2 WHERE t1.x > 2 AND t1.s = t2.s"
        ).render_plan()
        assert "3 -> 1 rows" in text

    def test_trace_does_not_change_results(self, db):
        from repro.engine import execute_sql

        sql = "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s"
        plain = execute_sql(db, sql)
        explained = profile_query(db, sql).render_plan()
        assert f"result: {len(plain.rows)} row(s)" in explained
