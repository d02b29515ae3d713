#!/usr/bin/env python
"""Long-running fuzz of the central relevance guarantees.

Runs the completeness / minimality / Theorem-1 properties (the same ones as
``tests/core/test_relevance_properties.py``) with a much larger example
budget and richer strategies, the incremental-maintenance campaign, and the
shape campaign (literal twins planned through the caches). Intended for
occasional deep verification::

    python tools/fuzz_relevance.py [examples-per-property] [--seed N]
"""

from __future__ import annotations

import argparse
from collections import Counter

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
from repro.core import relevance
from repro.core.bruteforce import brute_force_relevant_sources
from repro.core.relevance import build_relevance_plan
from repro.core.report import RecencyReporter
from repro.engine.cache import resolve_cached
from repro.engine.evaluate import execute_query
from repro.sqlparser.lexer import shape_key
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import literal_to_sql
from repro.sqlparser.resolver import resolve

SOURCES = ("s1", "s2", "s3", "s4")
VALUES = ("p", "q", "r")
NUMS = (0, 1, 2, 3)


def catalog():
    return Catalog(
        [
            TableSchema(
                "t1",
                [
                    Column("src", "TEXT", FiniteDomain(SOURCES)),
                    Column("v", "TEXT", FiniteDomain(VALUES)),
                    Column("n", "INTEGER", FiniteDomain(NUMS)),
                ],
                source_column="src",
            ),
            TableSchema(
                "t2",
                [
                    Column("src", "TEXT", FiniteDomain(SOURCES)),
                    Column("ref", "TEXT", FiniteDomain(SOURCES)),
                    Column("m", "INTEGER", FiniteDomain(NUMS)),
                ],
                source_column="src",
            ),
        ]
    )


_row1 = st.tuples(st.sampled_from(SOURCES), st.sampled_from(VALUES), st.sampled_from(NUMS))
_row2 = st.tuples(st.sampled_from(SOURCES), st.sampled_from(SOURCES), st.sampled_from(NUMS))

_atoms = st.sampled_from(
    [
        "t1.src = 's1'",
        "t1.src IN ('s1', 's2')",
        "t1.src NOT IN ('s3', 's4')",
        "t1.src LIKE 's_'",
        "t1.src BETWEEN 's1' AND 's3'",
        "t1.v = 'p'",
        "t1.v <> 'q'",
        "t1.v IN ('p', 'r')",
        "t1.n > 0",
        "t1.n BETWEEN 1 AND 2",
        "t1.n <= 2",
        "t1.src = t1.v",
        "t1.v = t1.src",
        "t1.n = 1 AND t1.n = 2",
        "t2.src = 's2'",
        "t2.ref = 's1'",
        "t2.m >= 2",
        "t1.src = t2.src",
        "t1.src = t2.ref",
        "t2.ref = t1.src",
        "t1.n = t2.m",
        "t1.n < t2.m",
        "t2.src = t2.ref",
        "t1.v IS NULL",
        "t1.v IS NOT NULL",
        # TRUE and FALSE are the INTEGER literals 1 and 0.
        "t1.n = TRUE",
        "t1.n IN (TRUE, 3)",
        "t2.m <> FALSE",
        "t1.n BETWEEN FALSE AND TRUE",
        "TRUE < t2.m",
    ]
)


def _formula(atoms, max_leaves: int):
    """AND / OR / NOT over ``atoms``."""
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
            st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
            st.builds(lambda a: f"NOT ({a})", inner),
        ),
        max_leaves=max_leaves,
    )


_where = _formula(_atoms, 8)


def _setup(rows1, rows2):
    backend = MemoryBackend(catalog())
    backend.insert_rows("t1", rows1)
    backend.insert_rows("t2", rows2)
    for i, src in enumerate(SOURCES):
        backend.upsert_heartbeat(src, 100.0 + i)
    return backend


def make_property(max_examples: int):
    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    @given(
        st.lists(_row1, max_size=4),
        st.lists(_row2, max_size=4),
        _where,
        _row1,
        _row2,
    )
    def property_holds(rows1, rows2, where, new_row1, new_row2):
        backend = _setup(rows1, rows2)
        sql = f"SELECT t1.src FROM t1, t2 WHERE {where}"
        resolved = resolve(parse_query(sql), backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)
        plan = build_relevance_plan(resolved)
        reporter = RecencyReporter(backend, create_temp_tables=False)
        reported = reporter.report(sql).relevant_source_ids

        assert reported >= exact, f"INCOMPLETE for {where!r}: missing {exact - reported}"
        if plan.minimal:
            assert reported == exact, (
                f"NOT MINIMAL for {where!r}: extra {reported - exact}"
            )

        baseline = sorted(execute_query(backend.db, resolved).rows)
        for table, row in (("t1", new_row1), ("t2", new_row2)):
            if row[0] in exact:
                continue
            trial = backend.db.copy()
            trial.insert(table, row)
            after = sorted(execute_query(trial, resolved).rows)
            assert after == baseline, (
                f"THEOREM 1 VIOLATION for {where!r}: insert {row!r} into {table}"
            )

    return property_holds


_t1_atoms = st.sampled_from(
    [
        "t1.src = 's1'",
        "t1.src IN ('s1', 's2')",
        "t1.src NOT IN ('s3', 's4')",
        "t1.src LIKE 's_'",
        "t1.src BETWEEN 's1' AND 's3'",
        "t1.v = 'p'",
        "t1.v <> 'q'",
        "t1.n > 0",
        "t1.n BETWEEN 1 AND 2",
        "t1.n = TRUE",
    ]
)

_t1_where = _formula(_t1_atoms, 6)

_sid = st.sampled_from(SOURCES)
_recency = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

_stream_op = st.one_of(
    st.tuples(st.just("hb"), _sid, _recency),
    st.tuples(st.just("insert"), _sid, _recency),
    st.tuples(st.just("delete"), _sid),
    st.tuples(st.just("clear")),
    st.tuples(st.just("query")),
)


def make_incremental_property(max_examples: int):
    """Incremental maintenance campaign: under randomized interleavings of
    heartbeats, inserts, deletes, clears and reports, the incrementally
    maintained report must be byte-identical to the from-scratch oracle
    (and ``incremental_verify`` re-checks every hit inside the snapshot)."""
    from repro.incremental import IncrementalMaintainer

    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    @given(
        st.lists(_row1, max_size=4),
        st.lists(_row2, max_size=4),
        st.lists(_t1_where, min_size=1, max_size=3),
        st.lists(_stream_op, max_size=25),
    )
    def property_holds(rows1, rows2, wheres, ops):
        backend = _setup(rows1, rows2)
        queries = [f"SELECT t1.src FROM t1 WHERE {where}" for where in wheres]
        maintainer = IncrementalMaintainer(backend)
        maintained = RecencyReporter(
            backend,
            create_temp_tables=False,
            plan_cache_size=16,
            incremental=maintainer,
            incremental_verify=True,
        )
        oracle = RecencyReporter(backend, create_temp_tables=False, plan_cache_size=16)

        def agree() -> None:
            for sql in queries:
                fast, slow = maintained.report(sql).split, oracle.report(sql).split
                assert (fast.normal, fast.exceptional) == (slow.normal, slow.exceptional), (
                    f"DIVERGED for {sql!r}"
                )

        for op in ops:
            if op[0] == "hb":
                backend.upsert_heartbeat(op[1], op[2])
            elif op[0] == "insert":
                backend.insert_rows("heartbeat", [(op[1], op[2])])
            elif op[0] == "delete":
                backend.delete_rows("heartbeat", ["source_id"], [(op[1],)])
            elif op[0] == "clear":
                backend.delete_all("heartbeat")
            else:
                agree()
        agree()

    return property_holds


# One-to-one per type, so a twin keeps the equality pattern, and onto values
# outside the domains too, so verdicts flip; 0 and 1 stay, being part of the
# shape (they equal FALSE and TRUE).
_FREE = tuple(n for n in NUMS if n not in (0, 1))
_permutation = st.tuples(
    st.permutations(SOURCES + ("s8", "s9")),
    st.permutations(VALUES + ("y", "z")),
    st.permutations(_FREE + (7, 8)),
).map(
    lambda p: dict(
        zip(
            SOURCES + VALUES + _FREE,
            p[0][: len(SOURCES)] + p[1][: len(VALUES)] + p[2][: len(_FREE)],
        )
    )
)


def literal_twin(sql: str, mapping: dict) -> str:
    """``sql`` with each literal ``v`` replaced by ``mapping.get(v, v)``: a
    text of the same shape when ``mapping`` is one-to-one per type."""
    (segments, _kinds, _pattern), values = shape_key(sql)
    out = [segments[0]]
    for value, segment in zip(values, segments[1:]):
        out += [literal_to_sql(mapping.get(value, value)), segment]
    return "".join(out)


def make_shape_property(max_examples: int, tally: Counter):
    """Shape campaign: report a formula, then its literal-permuted twin
    through the same caches. The twin is bound into the formula's tree and
    its plan re-bound (``shape rebound``) or, when a literal changes a
    satisfiability verdict, built afresh (``shape re-planned``); either way
    its report must stay complete, and exact when the plan says minimal."""
    build = relevance.build_relevance_plan

    @settings(max_examples=max_examples, deadline=None, print_blob=True)
    # A twin of the same verdicts re-binds the formula's plan ...
    @example([("s1", "p", 1)], [], "t1.src = 's1'", {"s1": "s2"})
    # ... and one whose literal leaves the domain plans afresh.
    @example([("s1", "p", 1)], [], "t1.src = 's1'", {"s1": "s9"})
    @given(st.lists(_row1, max_size=4), st.lists(_row2, max_size=4), _where, _permutation)
    def property_holds(rows1, rows2, where, mapping):
        backend = _setup(rows1, rows2)
        template = f"SELECT t1.src FROM t1, t2 WHERE {where}"
        sql = literal_twin(template, mapping)
        reporter = RecencyReporter(backend, create_temp_tables=False, plan_cache_size=16)
        reporter.report(template)
        planned = []
        relevance.build_relevance_plan = lambda resolved, **options: (
            planned.append(resolved) or build(resolved, **options)
        )
        try:
            report = reporter.report(sql)
        finally:
            relevance.build_relevance_plan = build
        if sql != template and resolve_cached(sql, backend.catalog).bound_from is not None:
            tally["shape re-planned" if planned else "shape rebound"] += 1
        exact = brute_force_relevant_sources(backend.db, resolve(parse_query(sql), backend.catalog))
        reported = report.relevant_source_ids
        assert reported >= exact, f"INCOMPLETE twin {sql!r}: missing {exact - reported}"
        if report.plan.minimal:
            assert reported == exact, f"NOT MINIMAL twin {sql!r}: extra {reported - exact}"

    return property_holds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "examples", type=int, nargs="?", default=2000, help="hypothesis examples per property"
    )
    parser.add_argument("--seed", type=int, help="hypothesis seed (default: a fresh one)")
    args = parser.parse_args()
    examples = args.examples

    def run(test) -> None:
        (test if args.seed is None else seed(args.seed)(test))()

    print(f"fuzzing relevance guarantees with {examples} examples ...")
    run(make_property(examples))
    print("OK: completeness, minimality and Theorem 1 held on every example")
    print(f"fuzzing incremental maintenance with {examples} examples ...")
    run(make_incremental_property(examples))
    print("OK: incremental reports matched the from-scratch oracle on every example")
    print(f"fuzzing query shapes with {examples} examples ...")
    tally: Counter = Counter()
    run(make_shape_property(examples, tally))
    print(
        f"OK: every literal twin's report was complete "
        f"({tally['shape rebound']} shape rebound, {tally['shape re-planned']} shape re-planned)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
