"""One ``=``: every path of the memory engine answers as SQLite does on the
values SQLite would store — a bool is its integer and a NaN is NULL.

Each case runs four ways, which must return equal rows: the memory engine's
compiled path, its interpreter (``compiled=False``), its env pipeline
(``lineage=True``, which runs a ``DISTINCT`` join as a hash join instead of
a semijoin), and SQLite. The reports at the end hold Theorem 1 where the
planner and the engine must agree on what ``=`` means: every source of a
row the query returns is reported relevant, on both backends.
"""

import math
from collections import Counter

import pytest

from repro import Catalog, Column, MemoryBackend, SQLiteBackend, TableSchema
from repro.catalog import FiniteDomain, IntegerDomain
from repro.core.report import RecencyReporter
from repro.engine import execute_sql

NAN = math.nan  # one object in both tables: Python's ``==`` holds it equal to itself

CATALOG = Catalog(
    [
        TableSchema("a", [Column("s", "TEXT"), Column("k", "INTEGER")], source_column="s"),
        TableSchema("b", [Column("s", "TEXT"), Column("k", "INTEGER")], source_column="s"),
    ]
)

BOOLS = {"a": [("x", True), ("y", 1.0)], "b": [("z", 1)]}
NANS = {"a": [("x", 1.0), ("z", NAN)], "b": [("x", 2.0), ("z", NAN)]}

CASES = [
    (BOOLS, "SELECT DISTINCT a.s FROM a, b WHERE a.k = b.k"),
    (BOOLS, "SELECT a.s FROM a WHERE a.k = 1"),
    (BOOLS, "SELECT a.s FROM a WHERE a.k IN (1, 2)"),
    (NANS, "SELECT a.s FROM a WHERE a.k <> 1"),
    (NANS, "SELECT a.s FROM a WHERE a.k NOT IN (1)"),
    (NANS, "SELECT a.s FROM a WHERE a.k IS NULL"),
    (NANS, "SELECT COUNT(a.k) FROM a"),
    (NANS, "SELECT a.s, a.k FROM a ORDER BY a.k"),
    (NANS, "SELECT DISTINCT a.s FROM a, b WHERE a.k = b.k"),
]


def _loaded(make, catalog, tables):
    backend = make(catalog)
    for table, rows in tables.items():
        backend.insert_rows(table, rows)
    return backend


@pytest.mark.parametrize(
    "tables, sql", CASES, ids=[("bool: " if t is BOOLS else "nan: ") + sql for t, sql in CASES]
)
def test_the_memory_engine_answers_as_sqlite(tables, sql):
    memory = _loaded(MemoryBackend, CATALOG, tables)
    sqlite = _loaded(SQLiteBackend, CATALOG, tables)
    try:
        runs = {
            "compiled": execute_sql(memory.db, sql, cache=False).rows,
            "interpreted": execute_sql(memory.db, sql, compiled=False, cache=False).rows,
            "lineage": execute_sql(memory.db, sql, lineage=True, cache=False).rows,
            "sqlite": sqlite.execute(sql).rows,
        }
    finally:
        sqlite.close()
    # An ORDER BY answers a list; the others a bag.
    answer = list if "ORDER BY" in sql else Counter
    assert {name: answer(rows) for name, rows in runs.items()} == dict.fromkeys(
        runs, answer(runs["sqlite"])
    )


def _bounded_catalog():
    return Catalog(
        [
            TableSchema(
                "t",
                [
                    Column("src", "TEXT", FiniteDomain({"s1", "s2"})),
                    Column("n", "INTEGER", IntegerDomain(0, 3)),
                ],
                source_column="src",
            )
        ]
    )


@pytest.mark.parametrize("make", [MemoryBackend, SQLiteBackend])
@pytest.mark.parametrize(
    "sql",
    ["SELECT t.src FROM t WHERE t.n = TRUE", "SELECT t.src FROM t WHERE t.n IN (TRUE, 5)"],
)
def test_a_report_names_the_source_of_every_row_it_returns(make, sql):
    backend = _loaded(make, _bounded_catalog(), {"t": [("s1", 1), ("s2", 2)]})
    for i, source in enumerate(("s1", "s2")):
        backend.upsert_heartbeat(source, 100.0 + i)
    try:
        report = RecencyReporter(backend, create_temp_tables=False).report(sql)
    finally:
        backend.close()
    assert report.result.rows == [("s1",)]
    assert report.relevant_source_ids >= {"s1"}
