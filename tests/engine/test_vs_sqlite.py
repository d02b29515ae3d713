"""Differential tests: the mini engine must agree with SQLite.

The property test generates random rows and random conjunctive/disjunctive
queries over a small schema and asserts both executors produce identical
multisets of rows.
"""

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql


def make_catalog():
    return Catalog(
        [
            TableSchema(
                "t1",
                [
                    Column("s", "TEXT", FiniteDomain({"a", "b", "c"})),
                    Column("x", "INTEGER"),
                    Column("v", "TEXT"),
                ],
                source_column="s",
            ),
            TableSchema(
                "t2",
                [
                    Column("s", "TEXT", FiniteDomain({"a", "b", "c"})),
                    Column("y", "INTEGER"),
                ],
                source_column="s",
            ),
        ]
    )


def run_sqlite(rows1, rows2, sql):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t1 (s TEXT, x INTEGER, v TEXT)")
    conn.execute("CREATE TABLE t2 (s TEXT, y INTEGER)")
    conn.executemany("INSERT INTO t1 VALUES (?,?,?)", rows1)
    conn.executemany("INSERT INTO t2 VALUES (?,?)", rows2)
    out = conn.execute(sql).fetchall()
    conn.close()
    return out


def run_engine(rows1, rows2, sql):
    db = Database(make_catalog())
    db.insert_many("t1", rows1)
    db.insert_many("t2", rows2)
    return execute_sql(db, sql).rows


def assert_same(rows1, rows2, sql):
    expected = Counter(run_sqlite(rows1, rows2, sql))
    actual = Counter(tuple(r) for r in run_engine(rows1, rows2, sql))
    assert actual == expected, f"engine disagrees with SQLite for {sql!r}"


ROWS1 = [("a", 1, "p"), ("b", 2, "q"), ("c", 3, "p"), ("a", 2, None)]
ROWS2 = [("a", 1), ("b", 2), ("c", 9)]


CURATED = [
    "SELECT s FROM t1",
    "SELECT s, x FROM t1 WHERE x > 1",
    "SELECT s FROM t1 WHERE v = 'p' AND x < 3",
    "SELECT s FROM t1 WHERE v = 'p' OR x = 2",
    "SELECT s FROM t1 WHERE s IN ('a', 'c')",
    "SELECT s FROM t1 WHERE s NOT IN ('a')",
    "SELECT s FROM t1 WHERE x BETWEEN 1 AND 2",
    "SELECT s FROM t1 WHERE v IS NULL",
    "SELECT s FROM t1 WHERE v IS NOT NULL",
    "SELECT s FROM t1 WHERE v LIKE 'p%'",
    "SELECT s FROM t1 WHERE NOT (x = 1 OR x = 2)",
    "SELECT DISTINCT v FROM t1",
    "SELECT COUNT(*) FROM t1",
    "SELECT COUNT(v) FROM t1",
    "SELECT COUNT(DISTINCT v) FROM t1",
    "SELECT SUM(x) FROM t1",
    "SELECT AVG(x) FROM t1 WHERE x > 0",
    "SELECT MIN(x), MAX(x) FROM t1",
    "SELECT v, COUNT(*) FROM t1 GROUP BY v",
    "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s",
    "SELECT t1.s, t2.y FROM t1, t2 WHERE t1.s = t2.s AND t2.y > 1",
    "SELECT t1.s FROM t1, t2 WHERE t1.x = t2.y",
    "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s OR t1.x = t2.y",
    "SELECT COUNT(*) FROM t1, t2 WHERE t1.s = t2.s",
    "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s AND t1.v = 'p' AND t2.y < 5",
]


class TestCuratedQueries:
    @pytest.mark.parametrize("sql", CURATED)
    def test_agreement(self, sql):
        assert_same(ROWS1, ROWS2, sql)

    def test_empty_tables(self):
        assert_same([], [], "SELECT t1.s FROM t1, t2 WHERE t1.s = t2.s")
        assert_same([], [], "SELECT COUNT(*) FROM t1")


# ---------------------------------------------------------------------------
# Property-based differential testing
# ---------------------------------------------------------------------------

_row1 = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.none(), st.integers(0, 5)),
    st.one_of(st.none(), st.sampled_from(["p", "q"])),
)
_row2 = st.tuples(st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(0, 5)))

_atoms = st.sampled_from(
    [
        "t1.x = 2",
        "t1.x > 1",
        "t1.x <= 3",
        "t1.v = 'p'",
        "t1.v <> 'q'",
        "t1.s IN ('a', 'b')",
        "t1.s NOT IN ('c')",
        "t1.x BETWEEN 1 AND 4",
        "t1.v IS NULL",
        "t1.v IS NOT NULL",
        "t1.v LIKE 'p%'",
        "t2.y = 2",
        "t2.y > 0",
        "t1.s = t2.s",
        "t1.x = t2.y",
        "t1.x < t2.y",
    ]
)

_where = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=6,
)


class TestDifferentialProperty:
    @given(
        st.lists(_row1, max_size=6),
        st.lists(_row2, max_size=5),
        _where,
    )
    @settings(max_examples=200, deadline=None)
    def test_join_queries_agree(self, rows1, rows2, where):
        sql = f"SELECT t1.s, t1.x, t2.y FROM t1, t2 WHERE {where}"
        assert_same(rows1, rows2, sql)

    @given(st.lists(_row1, max_size=8), _where)
    @settings(max_examples=150, deadline=None)
    def test_single_table_count_agrees(self, rows1, where):
        if "t2." in where:
            where = f"({where.replace('t2.y', 't1.x').replace('t2.s', 't1.s')})"
        sql = f"SELECT COUNT(*) FROM t1 WHERE {where}"
        assert_same(rows1, [], sql)
