#!/usr/bin/env python
"""Long-running differential fuzz: mini engine (both paths) vs SQLite.

Generates random data and random queries over a two-table schema and
asserts three executions return the same multiset of rows — including
ORDER BY prefixes, aggregates and NULL semantics — and that the engine's
two paths record the same per-operator profile (operator sequence, rows
in/out):

* the mini engine's *compiled* path (lowered lambdas, the default);
* the mini engine's *interpreted* path (per-row AST walk, the oracle);
* SQLite.

The compiled/interpreted comparison pins the fast path to the oracle's
semantics; the SQLite comparison pins both to real-world SQL. Usage::

    python tools/fuzz_engine.py [examples]
"""

from __future__ import annotations

import argparse
import sqlite3
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql
from repro.engine.profile import profile_query


def catalog():
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


_row1 = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.none(), st.integers(-3, 6)),
    st.one_of(st.none(), st.sampled_from(["p", "q", "pq"])),
)
_row2 = st.tuples(st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(-3, 6)))

_atoms = st.sampled_from(
    [
        "t1.x = 2",
        "t1.x <> 0",
        "t1.x > -1",
        "t1.x BETWEEN 0 AND 4",
        "t1.x NOT BETWEEN 1 AND 2",
        "t1.v = 'p'",
        "t1.v LIKE 'p%'",
        "t1.v NOT LIKE '%q'",
        "t1.v IS NULL",
        "t1.v IS NOT NULL",
        "t1.s IN ('a', 'b')",
        "t1.s NOT IN ('c')",
        "t2.y < 3",
        "t2.y = t1.x",
        "t1.s = t2.s",
        "t1.s <> t2.s",
        "t1.x <= t2.y",
    ]
)

_where = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=7,
)

_select = st.sampled_from(
    [
        "t1.s, t1.x, t2.y",
        "t1.s, t2.s",
        "COUNT(*)",
        "COUNT(t1.v)",
        "MIN(t1.x), MAX(t2.y)",
        "SUM(t1.x)",
    ]
)


def _run_sqlite(rows1, rows2, sql):
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t1 (s TEXT, x INTEGER, v TEXT)")
    conn.execute("CREATE TABLE t2 (s TEXT, y INTEGER)")
    conn.executemany("INSERT INTO t1 VALUES (?,?,?)", rows1)
    conn.executemany("INSERT INTO t2 VALUES (?,?)", rows2)
    try:
        return Counter(conn.execute(sql).fetchall())
    finally:
        conn.close()


def make_property(max_examples: int):
    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    @given(st.lists(_row1, max_size=6), st.lists(_row2, max_size=5), _where, _select)
    def engines_agree(rows1, rows2, where, select):
        sql = f"SELECT {select} FROM t1, t2 WHERE {where}"
        db = Database(catalog())
        db.insert_many("t1", rows1)
        db.insert_many("t2", rows2)
        compiled = Counter(
            tuple(r) for r in execute_sql(db, sql, compiled=True).rows
        )
        interpreted = Counter(
            tuple(r) for r in execute_sql(db, sql, compiled=False).rows
        )
        assert compiled == interpreted, (
            f"COMPILED/INTERPRETED DISAGREEMENT on {sql!r}: "
            f"{compiled} vs {interpreted}"
        )
        # The two lowerings must also do the same work: one operator
        # sequence, equal rows in/out per operator.
        shapes = [
            [
                (op.op, op.target, op.rows_in, op.rows_out)
                for op in profile_query(db, sql, compiled=flag).operators
            ]
            for flag in (True, False)
        ]
        assert shapes[0] == shapes[1], (
            f"COMPILED/INTERPRETED PROFILE DISAGREEMENT on {sql!r}: "
            f"{shapes[0]} vs {shapes[1]}"
        )
        theirs = _run_sqlite(rows1, rows2, sql)
        assert compiled == theirs, f"DISAGREEMENT on {sql!r}: {compiled} vs {theirs}"

    return engines_agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "examples", type=int, nargs="?", default=2000, help="hypothesis examples to run"
    )
    examples = parser.parse_args().examples
    print(
        "differential-fuzzing compiled vs interpreted vs SQLite "
        f"with {examples} examples ..."
    )
    make_property(examples)()
    print("OK: compiled, interpreted and SQLite agreed on every example")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
