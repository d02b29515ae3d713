#!/usr/bin/env python
"""Property fuzz for the row-lineage algebra.

Generates random data and predicates over the two-table fuzz schema and
asserts the lineage laws hold on every example:

* **join-union** — a join row's lineage equals the union of its parents'
  lineages (for source-projecting selects this is checkable exactly:
  each parent scan contributes its own source value);
* **no-invention** — projection and filtering never cite a source absent
  from the base data;
* **projection-invariance** — changing the select list (without changing
  the FROM/WHERE) changes no row's lineage;
* **aggregate-union** — an ungrouped aggregate's lineage is the union of
  every contributing row's lineage;
* **distinct-merge** — DISTINCT unions the lineages of the duplicates it
  collapses;
* **path-identity** — the compiled and interpreted paths produce
  byte-identical rows *and* lineage, in order.

Usage::

    python tools/fuzz_lineage.py [examples]
"""

from __future__ import annotations

import argparse

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql


def catalog() -> Catalog:
    return Catalog(
        [
            TableSchema(
                "t1",
                [
                    Column("s", "TEXT", FiniteDomain({"a", "b", "c"})),
                    Column("x", "INTEGER"),
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
    st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(-3, 6))
)
_row2 = st.tuples(
    st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(-3, 6))
)

_atoms = st.sampled_from(
    [
        "t1.x = 2",
        "t1.x <> 0",
        "t1.x > -1",
        "t1.x BETWEEN 0 AND 4",
        "t1.x IS NULL",
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
    max_leaves=5,
)


def _both_paths(db: Database, sql: str):
    """Run ``sql`` on both paths; assert they agree; return one result."""
    interpreted = execute_sql(db, sql, compiled=False, lineage=True, cache=False)
    compiled = execute_sql(db, sql, compiled=True, lineage=True, cache=False)
    assert interpreted.rows == compiled.rows, f"row divergence on {sql!r}"
    assert interpreted.lineage == compiled.lineage, f"lineage divergence on {sql!r}"
    return interpreted


def make_property(max_examples: int):
    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    @given(st.lists(_row1, max_size=6), st.lists(_row2, max_size=5), _where)
    def lineage_laws(rows1, rows2, where):
        db = Database(catalog())
        db.insert_many("t1", rows1)
        db.insert_many("t2", rows2)
        base_sources = {r[0] for r in rows1} | {r[0] for r in rows2}

        # Join-union: each parent scan contributes exactly its own source
        # value, so a join row's lineage is the union of the two.
        joined = _both_paths(db, f"SELECT t1.s, t2.s FROM t1, t2 WHERE {where}")
        for row, lineage in zip(joined.rows, joined.lineage):
            expected = frozenset(v for v in row if v is not None)
            assert lineage == expected, (
                f"join lineage {set(lineage)} != parents' union {set(expected)} "
                f"for row {row!r} under {where!r}"
            )
            assert lineage <= base_sources, f"invented source under {where!r}"

        # Projection-invariance: same FROM/WHERE, different select list,
        # identical lineage per row.
        projected = _both_paths(db, f"SELECT t1.x FROM t1, t2 WHERE {where}")
        assert projected.lineage == joined.lineage, (
            f"projection changed lineage under {where!r}"
        )

        # Aggregate-union: the single COUNT(*) row unions every member.
        aggregated = _both_paths(db, f"SELECT COUNT(*) FROM t1, t2 WHERE {where}")
        expected_union = frozenset().union(*joined.lineage) if joined.lineage else frozenset()
        assert aggregated.lineage == [expected_union], (
            f"aggregate lineage {aggregated.lineage} != union "
            f"{set(expected_union)} under {where!r}"
        )

        # Distinct-merge: each surviving row unions its duplicates.
        distinct = _both_paths(db, f"SELECT DISTINCT t1.s FROM t1, t2 WHERE {where}")
        for row, lineage in zip(distinct.rows, distinct.lineage):
            merged = frozenset().union(
                *(
                    lin
                    for r, lin in zip(joined.rows, joined.lineage)
                    if r[0] == row[0]
                )
            )
            assert lineage == merged, (
                f"DISTINCT lineage {set(lineage)} != merged duplicates "
                f"{set(merged)} for {row!r} under {where!r}"
            )

    return lineage_laws


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "examples", type=int, nargs="?", default=2000, help="hypothesis examples to run"
    )
    examples = parser.parse_args().examples
    print(f"fuzzing the lineage algebra with {examples} examples ...")
    make_property(examples)()
    print("OK: every lineage law held on every example")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
