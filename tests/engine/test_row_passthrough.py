"""A select list that is its one relation's columns in schema order (the
Heartbeat subquery's ``SELECT trac_h.source_id, trac_h.recency``) returns
the stored rows themselves on the compiled path, in a list of its own:
mutating a result never reaches the table or the next query."""

import pytest

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql

ROWS = [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]


def make_db(keyed):
    db = Database(Catalog([TableSchema(
        "hb",
        [Column("source_id", "TEXT", FiniteDomain({"a", "b", "c", "d"})),
         Column("recency", "REAL")],
        source_column="source_id",
    )]))
    db.insert_many("hb", ROWS)
    if keyed:
        db.relation("hb").index_on((0,))
    return db


QUERIES = [
    "SELECT h.source_id, h.recency FROM hb h",
    "SELECT h.source_id, h.recency FROM hb h WHERE h.source_id NOT IN ('b')",
    "SELECT h.source_id, h.recency FROM hb h WHERE h.source_id IN ('a', 'c')",
    "SELECT h.source_id, h.recency FROM hb h WHERE h.recency > 1.5",
    "SELECT h.source_id, h.recency FROM hb h LIMIT 2",
    "SELECT * FROM hb",
]
MODES = {
    "compiled": dict(compiled=True),
    "interpreted": dict(compiled=False),
    "lineage": dict(lineage=True),
}


@pytest.mark.parametrize("keyed", [False, True], ids=["bag", "keyed"])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("sql", QUERIES)
def test_mutating_a_result_leaves_the_table_and_the_next_query_alone(sql, mode, keyed):
    db = make_db(keyed)
    stored = db.relation("hb").rows
    first = execute_sql(db, sql, **MODES[mode])
    answer = list(first.rows)
    assert answer and first.rows is not stored
    first.rows.append(("z", 9.0))
    first.rows.reverse()
    del first.rows[0]
    assert db.relation("hb").rows == ROWS
    assert execute_sql(db, sql, **MODES[mode]).rows == answer
    first.rows.clear()
    assert db.relation("hb").rows == ROWS
    assert execute_sql(db, sql, **MODES[mode]).rows == answer


@pytest.mark.parametrize("keyed", [False, True], ids=["bag", "keyed"])
def test_the_compiled_path_passes_the_stored_rows_through(keyed):
    db = make_db(keyed)
    held = {id(row) for row in db.relation("hb").rows}
    for sql in QUERIES:
        rows = execute_sql(db, sql).rows
        assert all(id(row) in held for row in rows), sql
    # Not the schema's columns in order: a projection builds new tuples.
    for sql in ("SELECT h.recency, h.source_id FROM hb h", "SELECT h.source_id FROM hb h"):
        assert not any(id(row) in held for row in execute_sql(db, sql).rows), sql
