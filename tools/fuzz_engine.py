#!/usr/bin/env python
"""Long-running differential fuzz: mini engine (both paths) vs SQLite.

Generates random data and random statements over a two-table schema —
one- and two-table ``FROM`` lists, conjunctive and general boolean
``WHERE`` clauses, aggregates, ``DISTINCT`` (over a join also of one
table's columns, which the engine answers as a semijoin), ``ORDER BY`` and
``LIMIT n`` (n in 0..4) — and asserts that three executions agree, and
that the engine's two paths record the same per-operator profile
(operator sequence, rows in/out):

* the mini engine's *compiled* path (lowered lambdas, the default);
* the mini engine's *interpreted* path (per-row AST walk, the oracle);
* SQLite.

Compiled and interpreted must return the same rows *in the same order*;
SQLite the same multiset. A ``LIMIT`` statement must also return exactly
the rows of the same statement without ``LIMIT``, run on the same engine
and sliced ``[:n]`` — the row budget of :mod:`repro.engine.evaluate` may
change what is read, never what is returned — and, because SQLite leaves
the order of an unordered ``LIMIT`` unspecified, as many rows as SQLite
returns, drawn from SQLite's unlimited answer. A ``semijoin``-shape
statement must also return, without ``LIMIT``, the row set it returns with
lineage on, which runs it through the env pipeline instead. The last line
tallies the executions by kind, among them how many projected bare rows of
one table (``row carrier``), how many returned that table's stored rows
themselves (``row passthrough``: the select list is all of its columns in
schema order), how many ran a semijoin and how many read a
relation through its key index (``index lookup``) or its complement
(``index complement``: the only pushed term is ``<>`` / ``NOT IN`` on the
key, e.g. ``t1.x NOT IN (0, 2)`` over a NULL-holding ``x``), and how many
wrote a bool (``bool value``) or a NaN (``nan value``) into an INTEGER
column, which the engine must store as SQLite does. Operands include
``TRUE`` and ``FALSE``, the integers ``1`` and ``0``. Some examples key ``t1``
(on ``x`` or ``s``) or ``t2`` (on ``s``), and some run the statement on a
``snapshot_view`` taken before more inserts and upserts land on the parent,
which the view must not see.

A ``lineage`` statement, ``SELECT t1.s, t2.s FROM t1, t2 WHERE w``, also
checks the row-lineage laws on both paths, which must return the same rows
*and* lineage, in order:

* **join-union** — a join row's lineage is the union of its parents' source
  values, every one of them present in the data (no invention);
* **projection-invariance** — ``SELECT t1.x`` under the same ``w`` gives
  each row the same lineage;
* **aggregate-union** — ``SELECT COUNT(*)``'s one row unions every joined
  row's lineage;
* **distinct-merge** — ``SELECT DISTINCT t1.s`` unions the lineages of the
  joined rows it collapses. Usage::

    python tools/fuzz_engine.py [examples] [--seed N]
"""

from __future__ import annotations

import argparse
import math
import sqlite3
from collections import Counter

from hypothesis import example, given, seed, settings
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


#: An INTEGER value, or one SQLite stores as another: a bool as its integer,
#: ``1.0`` as ``1`` and NaN (one object, equal to itself under ``==``) as NULL.
_int = st.one_of(st.none(), st.integers(-3, 6), st.sampled_from([True, False, 1.0, math.nan]))
_row1 = st.tuples(
    st.sampled_from(["a", "b", "c"]),
    _int,
    st.one_of(st.none(), st.sampled_from(["p", "q", "pq"])),
)
_row2 = st.tuples(st.sampled_from(["a", "b", "c"]), _int)

_ATOMS = [
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
    "'b' = t1.s",
    "t1.s NOT IN ('c')",
    "t1.s <> 'a'",
    "t1.x NOT IN (0, 2)",
    "t1.x <> 2",
    "t2.y < 3",
    "t2.y IS NOT NULL",
    "t2.s IN ('a', 'c')",
    "t2.y = t1.x",
    "t1.s = t2.s",
    "t1.s <> t2.s",
    "t1.x <= t2.y",
    "t1.x = TRUE",
    "FALSE = t1.x",
    "t1.x IN (TRUE, 5)",
    "t1.x NOT IN (FALSE, 2)",
    "t2.y <> FALSE",
    "t2.y BETWEEN FALSE AND TRUE",
]

#: FROM list -> the select lists that can be drawn over it (a parenthesis
#: marks an aggregate).
_SELECTS = {
    # ``t1.s, t1.x, t1.v`` is all of t1 in schema order: the compiled path
    # passes the stored rows through, without a per-row projection.
    "t1": ["t1.s, t1.x", "t1.s, t1.x, t1.v", "t1.v", "COUNT(*)", "COUNT(t1.v)", "SUM(t1.x)"],
    "t2": ["t2.s, t2.y", "t2.y", "COUNT(*)", "MAX(t2.y)"],
    "t1, t2": [
        "t1.s, t1.x, t2.y",
        "t1.s, t2.s",
        # One relation's columns: under DISTINCT, a semijoin candidate.
        "t1.s, t1.x",
        "t2.s, t2.y",
        "t1.v",
        "t2.y",
        "COUNT(*)",
        "COUNT(t1.v)",
        "MIN(t1.x), MAX(t2.y)",
        "SUM(t1.x)",
    ],
}


def _where_over(tables: str):
    """Boolean combinations of the atoms that name only ``tables``; half of
    them plain conjunctions, which the engine's conjunctive pipeline runs."""
    atoms = st.sampled_from(
        [a for a in _ATOMS if all(t in tables for t in ("t1", "t2") if f"{t}." in a)]
    )
    return st.one_of(
        st.lists(atoms, min_size=1, max_size=3).map(" AND ".join),
        st.recursive(
            atoms,
            lambda inner: st.one_of(
                st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
                st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
                st.builds(lambda a: f"NOT ({a})", inner),
            ),
            max_leaves=7,
        ),
    )


_WHERE = {tables: _where_over(tables) for tables in _SELECTS}


def _one_table(text: str) -> bool:
    return not ("t1." in text and "t2." in text)


#: The ``semijoin`` shape: ``DISTINCT`` of one table's columns over the join,
#: under a conjunction whose cross-table atoms are all equalities (none at
#: all leaves the other table unlinked) — what the engine runs as a semijoin.
_SEMIJOIN_SELECTS = [s for s in _SELECTS["t1, t2"] if "(" not in s and _one_table(s)]
_SEMIJOIN_WHERE = st.lists(
    st.sampled_from([a for a in _ATOMS if " = " in a or _one_table(a)]), min_size=1, max_size=3
).map(" AND ".join)

#: A lone ``<>`` / ``NOT IN`` on a column ``t1`` may be keyed on: with the
#: key on it, the scan reads the index's complement.
_COMPLEMENT_WHERE = st.sampled_from(
    [a for a in _ATOMS if a.startswith("t1.") and ("<>" in a or "NOT IN" in a) and "t2" not in a]
)

_LIMITS = st.sampled_from([None, None, None, 0, 1, 2, 3, 4])

#: The column ``t1`` and ``t2`` are keyed on (``None``: unkeyed), so that a
#: pushed ``col = c`` / ``col IN (...)`` on it runs as an index lookup, and
#: a lone ``col <> c`` / ``col NOT IN (...)`` as its complement.
_KEYS = st.tuples(st.sampled_from([None, "x", "s"]), st.sampled_from([None, "s"]))
#: Rows written to ``t1`` and ``t2`` after a snapshot view is taken, every
#: other one as an upsert under the table's key; ``None`` reads the database.
_LATER = st.one_of(
    st.none(), st.tuples(st.lists(_row1, max_size=4), st.lists(_row2, max_size=4))
)


@st.composite
def _statements(draw):
    """``(statement without LIMIT, n or None, shape)``. Three shapes in eight
    are plain select-project-join, the only ones whose ``LIMIT`` is a row
    budget; one of them filters ``t1`` by one complement atom alone."""
    shape = draw(
        st.sampled_from(
            ["plain", "plain", "complement", "ordered", "distinct", "semijoin", "aggregate",
             "lineage"]
        )
    )
    if shape == "lineage":
        return f"SELECT t1.s, t2.s FROM t1, t2 WHERE {draw(_WHERE['t1, t2'])}", None, shape
    if shape == "complement":
        select = draw(st.sampled_from([s for s in _SELECTS["t1"] if "(" not in s]))
        return f"SELECT {select} FROM t1 WHERE {draw(_COMPLEMENT_WHERE)}", draw(_LIMITS), "plain"
    if shape == "semijoin":
        select = draw(st.sampled_from(_SEMIJOIN_SELECTS))
        sql = f"SELECT DISTINCT {select} FROM t1, t2 WHERE {draw(_SEMIJOIN_WHERE)}"
        return sql, draw(_LIMITS), shape
    tables = draw(st.sampled_from(sorted(_SELECTS)))
    select = draw(
        st.sampled_from([s for s in _SELECTS[tables] if ("(" in s) == (shape == "aggregate")])
    )
    if shape == "distinct":
        select = f"DISTINCT {select}"
    sql = f"SELECT {select} FROM {tables} WHERE {draw(_WHERE[tables])}"
    if shape == "ordered":
        keys = draw(
            st.lists(st.sampled_from(select.split(", ")), min_size=1, max_size=2, unique=True)
        )
        directions = [draw(st.sampled_from(["", " DESC"])) for _ in keys]
        sql += " ORDER BY " + ", ".join(k + d for k, d in zip(keys, directions))
    return sql, draw(_LIMITS), shape


def _database(rows1, rows2, keys, later):
    """The database a statement reads: ``rows1`` and ``rows2``, keyed by
    ``keys``, or a snapshot view of them while ``later`` lands on its parent."""
    db = Database(catalog())
    db.insert_many("t1", rows1)
    db.insert_many("t2", rows2)
    for table, column in zip(("t1", "t2"), keys):
        if column is not None:
            relation = db.relation(table)
            relation.index_on((relation.schema.column_index(column),))
    if later is None:
        return db
    view = db.snapshot_view()
    for table, rows in zip(("t1", "t2"), later):
        relation = db.relation(table)
        for i, row in enumerate(rows):
            if i % 2:
                relation.upsert(relation.keyed[0] if relation.keyed else (0,), row)
            else:
                relation.insert(row)
    return view


def _both_paths(db, sql):
    """``sql`` with lineage on, after asserting both paths agree on it."""
    interpreted = execute_sql(db, sql, compiled=False, lineage=True, cache=False)
    compiled = execute_sql(db, sql, compiled=True, lineage=True, cache=False)
    assert (interpreted.rows, interpreted.lineage) == (compiled.rows, compiled.lineage), (
        f"COMPILED/INTERPRETED LINEAGE DISAGREEMENT on {sql!r}"
    )
    return interpreted


def _check_lineage(db, where):
    """The lineage laws of the module docstring, under ``WHERE where``."""
    base = {row[0] for table in ("t1", "t2") for row in db.relation(table).rows}
    joined = _both_paths(db, f"SELECT t1.s, t2.s FROM t1, t2 WHERE {where}")
    for row, lineage in zip(joined.rows, joined.lineage):
        assert lineage == frozenset(row) and lineage <= base, (
            f"JOIN LINEAGE {set(lineage)} of {row!r} under {where!r}"
        )
    projected = _both_paths(db, f"SELECT t1.x FROM t1, t2 WHERE {where}")
    assert projected.lineage == joined.lineage, f"PROJECTION CHANGED LINEAGE under {where!r}"
    aggregated = _both_paths(db, f"SELECT COUNT(*) FROM t1, t2 WHERE {where}")
    assert aggregated.lineage == [frozenset().union(*joined.lineage)], (
        f"AGGREGATE LINEAGE {aggregated.lineage} under {where!r}"
    )
    distinct = _both_paths(db, f"SELECT DISTINCT t1.s FROM t1, t2 WHERE {where}")
    for (s,), lineage in zip(distinct.rows, distinct.lineage):
        merged = frozenset().union(
            *(lin for row, lin in zip(joined.rows, joined.lineage) if row[0] == s)
        )
        assert lineage == merged, f"DISTINCT LINEAGE {set(lineage)} of {s!r} under {where!r}"


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


def make_property(max_examples: int, corpus: Counter):
    """The property, tallying into ``corpus`` what kinds of statement it ran
    (hypothesis replays examples while shrinking, so the tallies describe
    the executions, not distinct statements)."""

    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    # The complement over a key holding NULLs, read through a snapshot view
    # while the parent upserts a looked-up key.
    @example(
        [("a", None, "p"), ("b", 2, None), ("c", 1, "q"), ("a", 0, "p")], [],
        ("SELECT t1.s, t1.x FROM t1 WHERE t1.x NOT IN (0, 2)", None, "plain"),
        ("x", None), ([("b", 3, "q"), ("c", 2, "p")], []),
    )
    # A key lookup whose select list is all of t1: the stored rows pass through.
    @example(
        [("a", 1, "p"), ("b", 2, None), ("c", 3, "q")], [],
        ("SELECT t1.s, t1.x, t1.v FROM t1 WHERE t1.s IN ('a', 'c')", None, "plain"),
        ("s", None), None,
    )
    # A semijoin over a bool and a NaN stored in INTEGER columns.
    @example(
        [("a", True, "p"), ("b", math.nan, None)], [("a", False), ("b", 1)],
        ("SELECT DISTINCT t1.s FROM t1, t2 WHERE t1.s = t2.s", None, "semijoin"),
        (None, None), None,
    )
    # The lineage laws over a key lookup, read through a snapshot view.
    @example(
        [("a", 1, "p"), ("b", 2, None), ("a", 2, "q")], [("a", 2), ("c", 1)],
        ("SELECT t1.s, t2.s FROM t1, t2 WHERE t2.y = t1.x OR t1.s IN ('a', 'b')", None, "lineage"),
        ("s", "s"), ([("c", 0, "p")], [("b", 3)]),
    )
    @given(
        st.lists(_row1, max_size=6), st.lists(_row2, max_size=5), _statements(), _KEYS, _LATER
    )
    def engines_agree(rows1, rows2, statement, keys, later):
        unlimited, limit, shape = statement
        sql = unlimited if limit is None else f"{unlimited} LIMIT {limit}"
        db = _database(rows1, rows2, keys, later)
        compiled = execute_sql(db, sql, compiled=True).rows
        interpreted = execute_sql(db, sql, compiled=False).rows
        assert compiled == interpreted, (
            f"COMPILED/INTERPRETED DISAGREEMENT on {sql!r}: "
            f"{compiled} vs {interpreted}"
        )
        # The two lowerings must also do the same work: one operator
        # sequence, equal rows in/out per operator.
        profiles = [profile_query(db, sql, compiled=flag) for flag in (True, False)]
        shapes = [
            [(op.op, op.target, op.rows_in, op.rows_out) for op in profile.operators]
            for profile in profiles
        ]
        assert shapes[0] == shapes[1], (
            f"COMPILED/INTERPRETED PROFILE DISAGREEMENT on {sql!r}: "
            f"{shapes[0]} vs {shapes[1]}"
        )
        if shape == "semijoin":
            # An oracle inside the engine: lineage clears the output binding,
            # so the same statement runs the env pipeline's hash join.
            semijoin = execute_sql(db, unlimited).rows
            envs = execute_sql(db, unlimited, lineage=True).rows
            assert set(semijoin) == set(envs), (
                f"SEMIJOIN/ENV PIPELINE DISAGREEMENT on {unlimited!r}: {semijoin} vs {envs}"
            )
        if shape == "lineage":
            _check_lineage(db, unlimited.partition(" WHERE ")[2])
        theirs = _run_sqlite(rows1, rows2, unlimited)
        if limit is None:
            assert Counter(compiled) == theirs, f"DISAGREEMENT on {sql!r}: {compiled} vs {theirs}"
        else:
            for flag in (True, False):
                whole = execute_sql(db, unlimited, compiled=flag).rows
                assert compiled == whole[:limit], (
                    f"LIMIT CHANGED THE ROWS of {sql!r} (compiled={flag}): "
                    f"{compiled} vs {whole}[:{limit}]"
                )
            assert len(compiled) == sum(_run_sqlite(rows1, rows2, sql).values()), sql
            assert not Counter(compiled) - theirs, (
                f"LIMIT ROWS NOT AMONG SQLITE'S for {sql!r}: {compiled} vs {theirs}"
            )
        operators = profiles[0].operators
        one_table = "," not in unlimited.partition(" FROM ")[2].partition(" WHERE ")[0]
        general = any(op.op == "cross_product" for op in operators)
        corpus["one-table"] += one_table
        corpus["general-path"] += general
        corpus["LIMIT"] += limit is not None
        corpus["budgeted"] += bool(limit) and shape == "plain"
        corpus["stopped early"] += any(op.rows_available is not None for op in operators)
        corpus["row carrier"] += one_table and not general and shape in ("plain", "distinct")
        corpus["semijoin"] += any(op.detail.startswith("semijoin") for op in operators)
        stored = {id(row) for table in ("t1", "t2") for row in db.relation(table).rows}
        corpus["row passthrough"] += bool(compiled) and all(id(row) in stored for row in compiled)
        for kind in ("index lookup", "index complement"):
            corpus[kind] += any(op.detail.startswith(kind) for op in operators)
        corpus["snapshot"] += later is not None
        corpus["lineage"] += shape == "lineage"
        values = [v for rows in (rows1, rows2, *(later or ())) for row in rows for v in row]
        corpus["bool value"] += any(v is True or v is False for v in values)
        corpus["nan value"] += any(v != v for v in values)

    return engines_agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "examples", type=int, nargs="?", default=2000, help="hypothesis examples to run"
    )
    parser.add_argument("--seed", type=int, help="hypothesis seed (default: a fresh one)")
    args = parser.parse_args()
    examples = args.examples
    print(
        "differential-fuzzing compiled vs interpreted vs SQLite "
        f"with {examples} examples ..."
    )
    corpus: Counter = Counter()
    engines_agree = make_property(examples, corpus)
    (engines_agree if args.seed is None else seed(args.seed)(engines_agree))()
    print("OK: compiled, interpreted and SQLite agreed on every example")
    print("executions by kind: " + ", ".join(f"{n} {kind}" for kind, n in corpus.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
