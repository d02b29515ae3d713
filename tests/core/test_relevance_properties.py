"""Property-based tests for the central guarantees of Section 4.

* **Completeness** (Corollaries 3/5): the Focused answer is always a
  superset of the exact relevant set.
* **Minimality** (Theorems 3/4): when the plan claims minimality, the
  Focused answer equals the exact set.
* **Theorem 1**: a single update from a non-relevant source never changes
  the query answer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
from repro.core.bruteforce import brute_force_relevant_sources
from repro.core.explain import explain
from repro.core.relevance import build_relevance_plan
from repro.core.report import RecencyReporter
from repro.engine.evaluate import execute_query
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve

SOURCES = ("s1", "s2", "s3")
VALUES = ("p", "q")
NUMS = (0, 1, 2)


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


_row1 = st.tuples(
    st.sampled_from(SOURCES), st.sampled_from(VALUES), st.sampled_from(NUMS)
)
_row2 = st.tuples(
    st.sampled_from(SOURCES), st.sampled_from(SOURCES), st.sampled_from(NUMS)
)

# Atoms cover every classification bucket: Ps, Pr, Pm, Js, Jrm, Po.
_single_atoms = st.sampled_from(
    [
        "t1.src = 's1'",
        "t1.src IN ('s1', 's2')",
        "t1.src NOT IN ('s3')",
        "t1.v = 'p'",
        "t1.v <> 'q'",
        "t1.n > 0",
        "t1.n BETWEEN 0 AND 1",
        "t1.src = t1.v",       # mixed predicate (never satisfied, types differ)
        "t1.n = 1 AND t1.n = 2",
    ]
)
_join_atoms = st.sampled_from(
    [
        "t1.src = 's2'",
        "t2.src = 's1'",
        "t1.v = 'p'",
        "t2.m > 0",
        "t1.src = t2.src",   # Js for both
        "t2.ref = t1.src",   # Js for t1, Jrm for t2
        "t1.n = t2.m",       # Jrm for both
        "t2.ref = 's3'",
    ]
)


def _boolean(atoms):
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
            st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
            st.builds(lambda a: f"NOT ({a})", inner),
        ),
        max_leaves=5,
    )


def _focused_sources(backend, sql):
    reporter = RecencyReporter(backend, create_temp_tables=False)
    return reporter.report(sql, method="focused").relevant_source_ids


def _setup(rows1, rows2):
    backend = MemoryBackend(catalog())
    backend.insert_rows("t1", rows1)
    backend.insert_rows("t2", rows2)
    for i, src in enumerate(SOURCES):
        backend.upsert_heartbeat(src, 100.0 + i)
    return backend


class TestSingleRelationProperties:
    @given(st.lists(_row1, max_size=4), _boolean(_single_atoms))
    @settings(max_examples=200, deadline=None)
    def test_completeness_and_minimality(self, rows1, where):
        backend = _setup(rows1, [])
        sql = f"SELECT t1.src FROM t1 WHERE {where}"
        resolved = resolve(parse_query(sql), backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)
        plan = build_relevance_plan(resolved)
        reported = _focused_sources(backend, sql)

        assert reported >= exact, f"incomplete for {where!r}"
        if plan.minimal:
            assert reported == exact, f"claimed minimal but over-reported for {where!r}"


class TestMultiRelationProperties:
    @given(
        st.lists(_row1, max_size=3),
        st.lists(_row2, max_size=3),
        _boolean(_join_atoms),
    )
    @settings(max_examples=150, deadline=None)
    def test_completeness_and_minimality(self, rows1, rows2, where):
        backend = _setup(rows1, rows2)
        sql = f"SELECT t1.src FROM t1, t2 WHERE {where}"
        resolved = resolve(parse_query(sql), backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)
        plan = build_relevance_plan(resolved)
        reported = _focused_sources(backend, sql)

        assert reported >= exact, f"incomplete for {where!r}"
        if plan.minimal:
            assert reported == exact, f"claimed minimal but over-reported for {where!r}"


class TestTheorem1Property:
    """No single update from an irrelevant source can change the answer."""

    @given(
        st.lists(_row1, max_size=3),
        st.lists(_row2, max_size=3),
        _boolean(_join_atoms),
        _row1,
        _row2,
    )
    @settings(max_examples=150, deadline=None)
    def test_irrelevant_insert_never_changes_result(
        self, rows1, rows2, where, new_row1, new_row2
    ):
        backend = _setup(rows1, rows2)
        sql = f"SELECT t1.src, t1.v FROM t1, t2 WHERE {where}"
        resolved = resolve(parse_query(sql), backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)

        baseline = sorted(execute_query(backend.db, resolved).rows)

        for table, row in (("t1", new_row1), ("t2", new_row2)):
            if row[0] in exact:
                continue  # only irrelevant-source updates are constrained
            trial = backend.db.copy()
            trial.insert(table, row)
            after = sorted(execute_query(trial, resolved).rows)
            assert after == baseline, (
                f"single insert {row!r} into {table} from irrelevant source "
                f"{row[0]!r} changed the answer of {where!r}"
            )


class TestExplainRendersThePlan:
    """``explain`` prints every subquery the plan runs, and a ``pruned:``
    line exactly where the planner skipped a relation for its Pr."""

    @given(
        st.one_of(
            _boolean(_single_atoms).map(lambda w: f"SELECT t1.src FROM t1 WHERE {w}"),
            _boolean(_join_atoms).map(lambda w: f"SELECT t1.src FROM t1, t2 WHERE {w}"),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_explain_agrees_with_the_plan(self, sql):
        resolved = resolve(parse_query(sql), catalog())
        plan = build_relevance_plan(resolved)
        text = explain(resolved, plan)

        for sub in plan.subqueries:
            assert sub.sql in text, f"{sub.sql!r} missing for {sql!r}"
        skipped = sum("Pr unsatisfiable" in note for note in plan.notes)
        assert text.count("pruned:") == skipped, sql
