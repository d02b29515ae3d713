"""The planner's trees against the text they print to.

The memory backend runs each generated subquery and guard from the tree the
planner built and resolved (``RelevancePlan.statements``); the text is what
the wire format, shards, SQLite and query profiles see. They must be one
statement: every tree equals the resolution of its own text, binding keys
and source flags included, and a report's sources equal those of the same
plan run by text. A report of an unseen query parses only the user's SQL.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryBackend
from repro.core.recency_query import execute_fragment, fragment_request, merge_fragments
from repro.core.report import RecencyReporter
from repro.engine import cache as query_cache
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import to_sql
from repro.sqlparser.resolver import resolve
from repro.workload import WorkloadConfig, loaded_backend, paper_queries
from tests.core.test_relevance_properties import (
    _boolean,
    _join_atoms,
    _row1,
    _row2,
    _setup,
    _single_atoms,
)


def _annotations(query):
    """Every column reference's resolution and every literal's exact value."""
    exprs = [item.expr for item in query.select_items if item.expr is not None]
    exprs += [query.where] if query.where is not None else []
    nodes = [node for expr in exprs for node in ast.walk(expr)]
    refs = [
        (ref.qualifier, ref.name, ref.binding_key, ref.is_source)
        for ref in nodes
        if isinstance(ref, ast.ColumnRef)
    ]
    literals = [(type(n.value), n.value) for n in nodes if isinstance(n, ast.Literal)]
    return refs, literals


def assert_trees_are_their_text(plan, catalog):
    texts = {sub.sql for sub in plan.subqueries} | {g for sub in plan.subqueries for g in sub.guards}
    assert set(plan.statements) == texts
    for text, statement in plan.statements.items():
        reparsed = resolve(parse_query(text), catalog)
        assert to_sql(statement.query) == text
        assert statement.query == reparsed.query
        assert _annotations(statement.query) == _annotations(reparsed.query)
        assert [(b.key, b.schema) for b in statement.bindings] == [
            (b.key, b.schema) for b in reparsed.bindings
        ]
        assert statement.is_current(catalog)


def assert_text_agrees(backend, report, monkeypatch):
    """The report's sources are the plan's run with every statement parsed
    from its text."""
    with monkeypatch.context() as patch:
        patch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
        with backend.snapshot() as snapshot:
            request = fragment_request(report.plan)
            by_text = merge_fragments(request, [execute_fragment(snapshot, request, True)])
    reported = report.split.normal + report.split.exceptional
    assert sorted((s.source_id, s.recency) for s in reported) == list(zip(*by_text))


@pytest.fixture(scope="module", params=[20, 1000])
def paper_backend(request):
    backend = loaded_backend(WorkloadConfig(request.param, 2), MemoryBackend)
    yield request.param, backend
    backend.close()


@pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "Q4"])
def test_paper_queries(paper_backend, name, monkeypatch):
    sources, backend = paper_backend
    report = RecencyReporter(backend).report(paper_queries(sources)[name])
    assert report.plan.mode == "focused"
    assert_trees_are_their_text(report.plan, backend.catalog)
    assert_text_agrees(backend, report, monkeypatch)


@given(st.lists(_row1, max_size=4), _boolean(_single_atoms))
@settings(max_examples=100, deadline=None)
def test_single_relation_strategies(rows1, where):
    backend = _setup(rows1, [])
    report = RecencyReporter(backend).report(f"SELECT t1.src FROM t1 WHERE {where}")
    assert_trees_are_their_text(report.plan, backend.catalog)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_text_agrees(backend, report, monkeypatch)


@given(st.lists(_row1, max_size=3), st.lists(_row2, max_size=3), _boolean(_join_atoms))
@settings(max_examples=100, deadline=None)
def test_join_strategies(rows1, rows2, where):
    backend = _setup(rows1, rows2)
    report = RecencyReporter(backend).report(f"SELECT t1.src FROM t1, t2 WHERE {where}")
    assert_trees_are_their_text(report.plan, backend.catalog)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_text_agrees(backend, report, monkeypatch)


def test_an_unseen_query_parses_only_the_users_sql(paper_backend, monkeypatch):
    sources, backend = paper_backend
    parsed = []

    def spy(text):
        parsed.append(text)
        return parse_query(text)

    monkeypatch.setattr(query_cache, "parse_query", spy)
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
    reporter = RecencyReporter(backend, plan_cache_size=128)
    for name, sql in paper_queries(sources).items():
        sql += " AND A.event_time > -1"  # text no earlier test ran
        parsed.clear()
        report = reporter.report(sql)
        assert parsed == [sql], name
        assert len(report.plan.statements) == (3 if name in ("Q3", "Q4") else 1)


def test_a_stale_tree_is_not_run(monkeypatch):
    """A schema change after planning retires the plan's resolutions: the
    text is parsed against the new schema instead."""
    from repro.catalog import heartbeat_schema

    backend = _setup([("s1", "p", 0)], [])
    plan = RecencyReporter(backend).plan_for("SELECT t1.src FROM t1 WHERE t1.src = 's1'")
    (statement,) = plan.statements.values()
    backend.catalog.replace(heartbeat_schema())
    assert not statement.is_current(backend.catalog)
    parsed = []

    def spy(text):
        parsed.append(text)
        return parse_query(text)

    monkeypatch.setattr(query_cache, "parse_query", spy)
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
    with backend.snapshot() as snapshot:
        fragment = execute_fragment(snapshot, fragment_request(plan), True, plan.statements)
    assert parsed == [plan.subqueries[0].sql]
    assert [row[0] for row in fragment["results"][0]] == ["s1"]


def test_each_statement_still_records_its_profile():
    from repro.obs.instrument import Telemetry

    tel = Telemetry()
    backend = _setup([("s1", "p", 0), ("s2", "q", 1)], [("s2", "s1", 0)])
    backend.telemetry = tel
    sql = "SELECT t1.src FROM t1, t2 WHERE t1.src = t2.ref AND t2.m = 0 AND t1.v = 'p'"
    report = RecencyReporter(backend, telemetry=tel).report(sql)
    profiled = {profile.sql for profile in tel.profiles.snapshot()}
    assert set(report.plan.statements) <= profiled


def test_threads_sharing_memoized_plans_agree_with_the_text(monkeypatch):
    """Reporters on many threads share memoized plans and statements while
    a two-entry cache keeps evicting and re-storing them."""
    import sys
    import threading

    backend = _setup([("s1", "p", 0), ("s2", "q", 1), ("s3", "p", 2)], [("s2", "s1", 1)])
    queries = [
        f"SELECT t1.src FROM t1, t2 WHERE t1.src {op} 's{i}' AND t2.m > {i % 2}"
        for i in (1, 2, 3) for op in ("=", "<>")
    ]
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
    expected = {sql: RecencyReporter(backend).report(sql).relevant_source_ids for sql in queries}
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache(2))
    reporter = RecencyReporter(backend, plan_cache_size=128)
    wrong, interval = [], sys.getswitchinterval()

    def work(offset):
        for i in range(60):
            sql = queries[(i + offset) % len(queries)]
            if reporter.report(sql).relevant_source_ids != expected[sql]:
                wrong.append(sql)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
