"""The output-binding path: a DISTINCT projection of one relation over a join
runs as a semijoin, every other shape keeps the env pipeline, and both
return what SQLite returns. One partner relation is read as scanned rows;
only several partners go through the greedy join's envs."""

import sqlite3
from collections import Counter

import pytest

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql
from repro.engine.evaluate import _Execution
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


def shape(profile):
    return [(op.op, op.target, op.rows_in, op.rows_out, op.detail) for op in profile.operators]


@pytest.fixture
def join_ordered_calls(monkeypatch):
    """The bindings of every ``_Execution._join_ordered`` call, the only
    place a conjunctive semijoin builds envs."""
    calls = []
    original = _Execution._join_ordered

    def spy(self, keys, filtered, pending):
        calls.append(sorted(keys))
        return original(self, keys, filtered, pending)

    monkeypatch.setattr(_Execution, "_join_ordered", spy)
    return calls


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id",
        "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id AND r.a = s.b AND s.b > 5",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, t",
    ],
    ids=["one-key", "two-keys", "no-key"],
)
def test_a_one_partner_semijoin_builds_no_env(join_ordered_calls, sql):
    for compiled in (True, False):
        _, profile = run(make_db(), sql, compiled=compiled)
        assert len(semijoins(profile)) == 1
    assert join_ordered_calls == []


def test_several_partners_still_join_through_the_greedy_pipeline(join_ordered_calls):
    _, profile = run(make_db(), "SELECT DISTINCT r.a FROM r, s, t WHERE r.id = s.id AND r.id = t.c")
    assert len(semijoins(profile)) == 1
    assert join_ordered_calls == [["s", "t"], ["s", "t"]]  # profiled run, then plain run


#: Operator records (op, target, rows in, rows out, detail) pinned per shape:
#: which side is read how may change, what the profile says may not.
PINNED_PROFILES = {
    "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id": [
        ("scan", "r", 5, 5, "full scan"),
        ("scan", "s", 5, 5, "full scan"),
        ("join", "r", 5, 3, "semijoin on 1 key(s), build side 5 rows"),
        ("project", "output", 3, 2, "select list, distinct"),
    ],
    "SELECT DISTINCT r.a FROM r, s WHERE r.id = s.id AND r.a = s.b": [
        ("scan", "r", 5, 5, "full scan"),
        ("scan", "s", 5, 5, "full scan"),
        ("join", "r", 5, 0, "semijoin on 2 key(s), build side 5 rows"),
        ("project", "output", 0, 0, "select list, distinct"),
    ],
    "SELECT DISTINCT r.src, r.id, r.a FROM r, t": [
        ("scan", "r", 5, 5, "full scan"),
        ("scan", "t", 3, 3, "full scan"),
        ("join", "r", 5, 5, "semijoin on 0 key(s), build side 3 rows"),
        ("project", "output", 5, 4, "select list, distinct"),
    ],
    "SELECT DISTINCT r.a FROM r, s, t WHERE r.id = s.id AND s.b = t.b AND t.c > 0": [
        ("scan", "r", 5, 5, "full scan"),
        ("scan", "s", 5, 5, "full scan"),
        ("scan", "t", 3, 2, "1 pushed predicate(s)"),
        ("join", "s", 2, 2, "hash join on 1 key(s), build side 5 rows"),
        ("filter", "s", 2, 2, "1 residual term(s)"),
        ("join", "r", 5, 1, "semijoin on 1 key(s), build side 2 rows"),
        ("project", "output", 1, 1, "select list, distinct"),
    ],
    "SELECT DISTINCT r.a FROM r, s, t WHERE r.id = s.id AND r.id = t.c": [
        ("scan", "r", 5, 5, "full scan"),
        ("scan", "s", 5, 5, "full scan"),
        ("scan", "t", 3, 3, "full scan"),
        ("join", "s", 3, 15, "nested loop, build side 5 rows"),
        ("join", "r", 5, 3, "semijoin on 2 key(s), build side 15 rows"),
        ("project", "output", 3, 2, "select list, distinct"),
    ],
}


@pytest.mark.parametrize("sql", sorted(PINNED_PROFILES))
def test_semijoin_profiles_are_pinned(sql):
    for compiled in (True, False):
        _, profile = run(make_db(), sql, compiled=compiled)
        assert shape(profile) == PINNED_PROFILES[sql]


#: NULL in every link column, and ``1`` beside ``1.0``, on both sides.
NULLISH = {
    "r": [("m1", 1, 1), ("m2", 1.0, None), ("m3", None, 1), ("m1", 0, 0), ("m2", 2, 1)],
    "s": [("m1", 1, 1), ("m2", 1, 1.0), ("m3", None, None), ("m2", 0, None), ("m3", 2, 5)],
    "t": [("m1", 1, 1), ("m2", None, 1), ("m3", 5, None)],
}


@pytest.mark.parametrize("t_rows", [NULLISH["t"], []], ids=["t", "empty-t"])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s WHERE r.id = s.id",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s WHERE r.id = s.id AND r.a = s.b",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s WHERE s.b = r.id AND s.id = r.a",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s, t WHERE r.id = s.id AND s.b = t.c",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s, t WHERE r.id = s.id AND r.a = t.b",
        "SELECT DISTINCT r.src, r.id, r.a FROM r, s, t WHERE s.id = t.b",
    ],
    ids=["one-key", "two-keys", "crossed-keys", "chain", "star", "no-key-over-a-join"],
)
def test_one_and_several_partners_agree_with_the_env_pipeline(sql, t_rows):
    db = make_db(r=NULLISH["r"], s=NULLISH["s"], t=t_rows)
    rows, profile = run(db, sql)
    assert len(semijoins(profile)) == 1
    # Lineage clears the output binding: the same statement as a hash join.
    assert Counter(rows) == Counter(execute_sql(db, sql, lineage=True).rows)


def test_true_and_one_are_one_link_key_as_in_the_hash_table():
    # The hash join's table is keyed by Python equality, where True == 1 ==
    # 1.0 (SQLite stores True as 1 and agrees); the semijoin's key set is too.
    r = [("m1", True, 1), ("m2", 1.0, True), ("m3", 1, None), ("m1", 0, 0), ("m2", None, 1)]
    s = [("m1", 1, True), ("m2", True, 1.0), ("m3", None, None), ("m3", 2, 5)]
    db = make_db(r=r, s=s)
    rows, _ = run(db, "SELECT DISTINCT r.src, r.id, r.a FROM r, s WHERE r.id = s.id")
    ids = {row[1] for row in s} - {None}
    assert rows == [row for row in r if row[1] in ids] == r[:3]
    rows, _ = run(db, "SELECT DISTINCT r.src, r.id, r.a FROM r, s WHERE r.id = s.id AND r.a = s.b")
    pairs = {row[1:] for row in s if None not in row[1:]}
    assert rows == [row for row in r if row[1:] in pairs] == r[:2]


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
