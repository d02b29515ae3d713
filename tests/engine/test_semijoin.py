"""The output-binding path: a DISTINCT projection of one relation over a join
runs as a semijoin, every other shape keeps the env pipeline, and both
return what SQLite returns."""

import sqlite3
from collections import Counter

import pytest

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql
from repro.engine.profile import profile_query

SCHEMAS = {
    "r": [("src", "TEXT"), ("id", "INTEGER"), ("a", "INTEGER")],
    "s": [("src", "TEXT"), ("id", "INTEGER"), ("b", "INTEGER")],
    "t": [("src", "TEXT"), ("b", "INTEGER"), ("c", "INTEGER")],
}

R = [("m1", 1, 10), ("m2", 2, 20), ("m3", 3, 30), ("m1", None, 40), ("m2", 2, 20)]
S = [("m1", 1, 5), ("m1", 1, 6), ("m2", 2, None), ("m3", None, 7), ("m3", 9, 8)]
T = [("m1", 5, 1), ("m2", 6, -1), ("m3", 8, 2)]


def make_db(r=R, s=S, t=T):
    domain = FiniteDomain({"m1", "m2", "m3"})
    db = Database(Catalog([
        TableSchema(
            name,
            [Column(col, kind, domain if col == "src" else None) for col, kind in columns],
            source_column="src",
        )
        for name, columns in SCHEMAS.items()
    ]))
    for name, rows in (("r", r), ("s", s), ("t", t)):
        db.insert_many(name, rows)
    return db


def sqlite_rows(db, sql):
    conn = sqlite3.connect(":memory:")
    try:
        for name, columns in SCHEMAS.items():
            conn.execute(f"CREATE TABLE {name} ({', '.join(f'{c} {k}' for c, k in columns)})")
            rows = db.relation(name).rows
            conn.executemany(f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})", rows)
        return Counter(conn.execute(sql).fetchall())
    finally:
        conn.close()


def semijoins(profile):
    return [op for op in profile.operators if op.detail.startswith("semijoin")]


def run(db, sql, **kwargs):
    """(rows, profile) of one compiled execution, checked against SQLite."""
    profile = profile_query(db, sql, **kwargs)
    rows = execute_sql(db, sql, **kwargs).rows
    assert profile.rows == len(rows)
    assert Counter(rows) == sqlite_rows(db, sql), sql
    return rows, profile


@pytest.mark.parametrize(
    "sql, lineage",
    [
        ("SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id", True),
        ("SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id ORDER BY a", False),
        ("SELECT COUNT(r.a) FROM r, s WHERE r.id = s.id", False),
        ("SELECT r.a FROM r, s WHERE r.id = s.id", False),
        ("SELECT DISTINCT r.a FROM r, s WHERE r.id <> s.id", False),
        ("SELECT DISTINCT r.a FROM r, s WHERE r.id < s.id", False),
        ("SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id OR r.a = 30", False),
    ],
    ids=["lineage", "order-by", "aggregate", "no-distinct", "not-equal", "less-than", "or"],
)
def test_every_other_shape_keeps_the_env_pipeline(sql, lineage):
    _, profile = run(make_db(), sql, lineage=lineage)
    assert not semijoins(profile)
    assert {"join", "cross_product"} & {op.op for op in profile.operators}


def test_null_link_keys_never_match():
    rows, profile = run(make_db(), "SELECT DISTINCT r.id, r.a FROM r, s WHERE r.id = s.id")
    assert sorted(rows) == [(1, 10), (2, 20)]
    # Two keys: a NULL in either part of the key keeps a row out.
    rows, profile = run(
        make_db(), "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id AND r.a = s.b"
    )
    assert rows == []
    rows, _ = run(
        make_db(s=S + [("m2", 2, 20), ("m1", None, 40)]),
        "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id AND r.a = s.b",
    )
    assert rows == [(20,)]
    (op,) = semijoins(profile)
    assert op.detail.startswith("semijoin on 2 key(s)")


def test_duplicate_output_rows_collapse_under_distinct():
    rows, profile = run(make_db(), "SELECT DISTINCT r.src FROM r, s WHERE r.id = s.id")
    # r's two ("m2", 2, 20) rows and its m1 row each survive the semijoin
    # once, whatever number of partners they have; DISTINCT collapses the m2s.
    (op,) = semijoins(profile)
    assert (op.target, op.rows_in, op.rows_out) == ("r", len(R), 3)
    project = profile.operators[-1]
    assert (project.op, project.rows_in, project.rows_out) == ("project", 3, 2)
    assert rows == [("m1",), ("m2",)]


@pytest.mark.parametrize("t_rows, expected", [(T, len(R)), ([], 0)])
def test_an_unlinked_other_relation_only_has_to_have_rows(t_rows, expected):
    db = make_db(t=t_rows)
    rows, profile = run(db, "SELECT DISTINCT r.src, r.id, r.a FROM r, t")
    (op,) = semijoins(profile)
    assert op.detail.startswith("semijoin on 0 key(s)")
    assert op.rows_out == expected
    assert len(rows) == min(expected, len(set(R)))


def test_three_relations_link_through_two_others():
    # A chain r - s - t: s and t join first, r keeps its rows with a partner.
    rows, profile = run(
        make_db(), "SELECT DISTINCT r.a FROM r, s, t WHERE r.id = s.id AND s.b = t.b AND t.c > 0"
    )
    assert rows == [(10,)]
    assert [(op.op, op.target) for op in profile.operators if op.op == "join"][-1] == ("join", "r")
    (op,) = semijoins(profile)
    assert op.detail.startswith("semijoin on 1 key(s)")
    # A star: r links to both others, one key each.
    rows, profile = run(
        make_db(), "SELECT DISTINCT r.a FROM r, s, t WHERE r.id = s.id AND r.id = t.c"
    )
    assert rows == [(10,), (20,)]
    (op,) = semijoins(profile)
    assert op.detail.startswith("semijoin on 2 key(s)")


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT r.src, r.a FROM r, s WHERE r.id = s.id AND s.b > 5",
        "SELECT DISTINCT r.a, 1 FROM r, s WHERE r.id = s.id AND r.a = s.b",
        "SELECT DISTINCT s.b FROM r, s, t WHERE r.id = s.id AND s.b = t.b",
        "SELECT DISTINCT r.a FROM r, t WHERE t.c < 0",
        "SELECT r.a, 'k', r.id FROM r WHERE r.a > 10",
        "SELECT * FROM r WHERE r.id IS NOT NULL LIMIT 2",
    ],
)
def test_compiled_and_interpreted_profiles_are_equal(sql):
    db = make_db()
    shapes = [
        [(op.op, op.target, op.rows_in, op.rows_out, op.detail)
         for op in profile_query(db, sql, compiled=flag).operators]
        for flag in (True, False)
    ]
    assert shapes[0] == shapes[1]
    assert execute_sql(db, sql).rows == execute_sql(db, sql, compiled=False).rows
