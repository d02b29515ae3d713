"""Plan once per query shape: the differential gate.

A text whose shape the resolved-query cache has seen is bound into the
template's tree, and its relevance plan is the template's with this text's
literals substituted (``memoized_relevance_plan``). Every such plan must be
byte for byte the plan a fresh parse, resolve and ``build_relevance_plan``
gives — compared as one JSON document of what the plan records, the
statements it runs and what ``explain`` prints.
"""

import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import MemoryBackend
from repro.core import relevance
from repro.core.explain import explain
from repro.core.relevance import build_relevance_plan, memoized_relevance_plan
from repro.core.report import RecencyReporter
from repro.engine import cache as query_cache
from repro.sqlparser import ast
from repro.sqlparser.lexer import shape_key
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import literal_to_sql, to_sql
from repro.workload import WorkloadConfig, loaded_backend, queries
from tests.core.test_relevance_properties import (
    NUMS,
    SOURCES,
    VALUES,
    _boolean,
    _join_atoms,
    _setup,
    _single_atoms,
    catalog,
)

BUILDERS = {
    "Q1": queries.q1_selective_single,
    "Q2": queries.q2_nonselective_single,
    "Q3": queries.q3_selective_join,
    "Q4": queries.q4_nonselective_join,
}


def _refs(query):
    exprs = [item.expr for item in query.select_items if item.expr is not None]
    exprs += [query.where] if query.where is not None else []
    return [
        [node.display(), node.binding_key, node.is_source]
        for expr in exprs
        for node in ast.walk(expr)
        if isinstance(node, ast.ColumnRef)
    ]


def document(resolved, plan):
    """Everything a plan decides, as one JSON text."""
    return json.dumps(
        {
            "mode": plan.mode,
            "minimal": plan.minimal,
            "notes": plan.notes,
            "subqueries": [
                {"sql": s.sql, "guards": s.guards, "minimal": s.minimal, "notes": s.notes}
                for s in plan.subqueries
            ],
            "statements": [
                [text, to_sql(statement.query), _refs(statement.query)]
                for text, statement in plan.statements.items()
            ],
            "explain": explain(resolved, plan),
            "literals": [
                [type(node.value).__name__, repr(node.value)]
                for node in resolved.query.literals
                if node is not None
            ],
        },
        sort_keys=True,
    )


def fresh_document(sql, catalog):
    resolved = query_cache.resolve_statement(parse_query(sql), catalog)
    return document(resolved, build_relevance_plan(resolved))


def bound_document(template_sql, sql, catalog):
    """The plan of ``sql`` through a cache that has planned ``template_sql``:
    ``(document, whether the template's plan was re-bound)``."""
    cache = query_cache.ResolvedQueryCache()
    memoized_relevance_plan(cache.resolve(template_sql, catalog))
    resolved = cache.resolve(sql, catalog)
    assert resolved.bound_from is not None
    rebound = []
    real = relevance._rebound_plan

    def spy(plan, bound):
        rebound.append(real(plan, bound))
        return rebound[-1]

    relevance._rebound_plan = spy
    try:
        plan, hit = memoized_relevance_plan(resolved)
    finally:
        relevance._rebound_plan = real
    assert not hit
    return document(resolved, plan), rebound == [plan]


def twin(sql, mapping):
    """``sql`` with each literal ``v`` replaced by ``mapping.get(v, v)``."""
    (segments, _kinds, _pattern), values = shape_key(sql)
    out = [segments[0]]
    for value, segment in zip(values, segments[1:]):
        out += [literal_to_sql(mapping.get(value, value)), segment]
    return "".join(out)


@pytest.fixture(scope="module", params=[20, 1000])
def paper_backend(request):
    backend = loaded_backend(WorkloadConfig(request.param, 2), MemoryBackend)
    yield request.param, backend
    backend.close()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_paper_queries_bind_to_the_fresh_plan(paper_backend, name):
    sources, backend = paper_backend
    rng = random.Random(sources)
    machines = [queries.source_name(i) for i in rng.sample(range(1, sources + 1), 12)]
    template, sql = BUILDERS[name](machines[:6]), BUILDERS[name](machines[6:])
    bound, rebound = bound_document(template, sql, backend.catalog)
    assert rebound
    assert bound == fresh_document(sql, backend.catalog)


def test_a_seen_shape_is_neither_parsed_nor_planned(paper_backend, monkeypatch):
    sources, backend = paper_backend
    parsed, planned = [], []
    real_parse, real_plan = query_cache.parse_query, relevance.build_relevance_plan

    def parse_spy(text):
        parsed.append(text)
        return real_parse(text)

    def plan_spy(resolved, **options):
        planned.append(resolved)
        return real_plan(resolved, **options)

    monkeypatch.setattr(query_cache, "parse_query", parse_spy)
    monkeypatch.setattr(relevance, "build_relevance_plan", plan_spy)
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
    reporter = RecencyReporter(backend, plan_cache_size=128)
    machines = [queries.source_name(i) for i in range(1, 13)]
    for name, build in BUILDERS.items():
        reporter.report(build(machines[:6]))
        parsed.clear()
        planned.clear()
        second = reporter.report(build(machines[6:]))
        assert parsed == [] and planned == [], name
        fresh = RecencyReporter(backend).report(build(machines[6:]))
        assert second.relevant_source_ids == fresh.relevant_source_ids


def test_a_verdict_that_flips_builds_the_plan_afresh():
    template = "SELECT t1.src FROM t1 WHERE t1.v = 'p' AND t1.src = 's1'"
    sql = "SELECT t1.src FROM t1 WHERE t1.v = 'z' AND t1.src = 's1'"  # 'z' is outside v's domain
    bound, rebound = bound_document(template, sql, catalog())
    assert not rebound
    assert bound == fresh_document(sql, catalog())
    assert json.loads(bound)["mode"] == "empty"


def test_an_error_while_rebinding_builds_the_plan_afresh(monkeypatch):
    from repro.errors import UnsupportedQueryError

    def broken(plan, resolved):
        raise UnsupportedQueryError("re-binding failed")

    cache, schemas = query_cache.ResolvedQueryCache(), catalog()
    memoized_relevance_plan(cache.resolve("SELECT t1.src FROM t1 WHERE t1.v = 'p'", schemas))
    sql = "SELECT t1.src FROM t1 WHERE t1.v = 'q'"
    resolved = cache.resolve(sql, schemas)
    assert resolved.bound_from is not None
    monkeypatch.setattr(relevance, "_rebound_plan", broken)
    plan, hit = memoized_relevance_plan(resolved)
    assert not hit
    assert document(resolved, plan) == fresh_document(sql, schemas)


def test_a_pr_verdict_that_flips_under_an_undecided_conjunct_builds_afresh():
    """The conjunct stays UNKNOWN (``t2`` is unbounded), while Pr via ``t1``
    goes from UNSAT (nothing exceeds 4) to SAT: only rerunning Pr's check
    sees it."""
    from repro import Catalog, Column, FiniteDomain, TableSchema

    small = FiniteDomain({2, 3, 4})
    schemas = Catalog(
        [
            TableSchema(
                "t1",
                [Column("src", "TEXT"), Column("a", "INTEGER", small), Column("b", "INTEGER", small)],
                source_column="src",
            ),
            TableSchema(
                "t2",
                [Column("src", "TEXT"), Column("m", "INTEGER"), Column("k", "INTEGER")],
                source_column="src",
            ),
        ]
    )
    where = "SELECT t1.src FROM t1, t2 WHERE t1.a = {} AND t1.a < t1.b AND t2.m = t2.k"
    bound, rebound = bound_document(where.format(4), where.format(3), schemas)
    assert not rebound
    assert bound == fresh_document(where.format(3), schemas)
    assert "Pr unsatisfiable" not in bound


@pytest.mark.parametrize(
    "template, sql",
    [
        # TRUE == 1, so the twin's first conjunct would fold into the second.
        ("t1.n = 2 OR t1.n = TRUE", "t1.n = 1 OR t1.n = TRUE"),
        ("t1.n = 0 OR t1.n = FALSE", "t1.n = 2 OR t1.n = FALSE"),
        ("t1.n = 0.0 AND t1.src = 's1'", "t1.n = -0.0 AND t1.src = 's1'"),
    ],
)
def test_a_number_equal_to_a_keyword_is_a_shape_of_its_own(template, sql):
    cache, schemas = query_cache.ResolvedQueryCache(), catalog()
    memoized_relevance_plan(cache.resolve(f"SELECT t1.src FROM t1 WHERE {template}", schemas))
    resolved = cache.resolve(f"SELECT t1.src FROM t1 WHERE {sql}", schemas)
    assert resolved.bound_from is None
    plan, _ = memoized_relevance_plan(resolved)
    assert document(resolved, plan) == fresh_document(
        f"SELECT t1.src FROM t1 WHERE {sql}", schemas
    )


def test_a_literal_equal_to_a_constraints_is_planned_afresh():
    from repro import Catalog, Column, FiniteDomain, TableSchema

    constrained = Catalog(
        [
            TableSchema(
                "t",
                [Column("src", "TEXT", FiniteDomain(SOURCES)), Column("n", "INTEGER")],
                source_column="src",
                constraints=["n <> 3"],
            )
        ]
    )
    for template, sql in [
        ("SELECT t.src FROM t WHERE t.n <> 2", "SELECT t.src FROM t WHERE t.n <> 3"),
        ("SELECT t.src FROM t WHERE t.n <> 3", "SELECT t.src FROM t WHERE t.n <> 2"),
    ]:
        bound, rebound = bound_document(template, sql, constrained)
        assert not rebound
        assert bound == fresh_document(sql, constrained)


# One-to-one per type, so the twin keeps the equality pattern; 0 and 1 stay,
# being part of the shape (they equal FALSE and TRUE).
_FREE = tuple(n for n in NUMS if n not in (0, 1))
_permutation = st.tuples(
    st.permutations(SOURCES + ("s9",)), st.permutations(VALUES + ("z",)), st.permutations(_FREE + (7,))
).map(
    lambda p: dict(
        zip(SOURCES + VALUES + _FREE, p[0][: len(SOURCES)] + p[1][: len(VALUES)] + p[2][: len(_FREE)])
    )
)


@given(_boolean(_single_atoms), _permutation)
@settings(max_examples=150, deadline=None)
def test_single_relation_strategies(where, mapping):
    template = f"SELECT t1.src FROM t1 WHERE {where}"
    sql = twin(template, mapping)
    assume(sql != template)
    bound, _ = bound_document(template, sql, catalog())
    assert bound == fresh_document(sql, catalog())


@given(_boolean(_join_atoms), _permutation)
@settings(max_examples=150, deadline=None)
def test_join_strategies(where, mapping):
    template = f"SELECT t1.src FROM t1, t2 WHERE {where}"
    sql = twin(template, mapping)
    assume(sql != template)
    bound, _ = bound_document(template, sql, catalog())
    assert bound == fresh_document(sql, catalog())


def test_threads_sharing_one_shape_agree_with_a_fresh_plan(monkeypatch):
    """Six threads report texts of one shape through a two-entry cache that
    keeps evicting and re-storing both the texts and their template."""
    import sys
    import threading

    backend = _setup([("s1", "p", 0), ("s2", "q", 1), ("s3", "p", 2)], [("s2", "s1", 1)])
    texts = [
        f"SELECT t1.src FROM t1, t2 WHERE t1.src = '{s}' AND t1.v <> '{v}' AND t2.m < {n}"
        for s in SOURCES for v in VALUES + ("z",) for n in (2, 3)
    ]
    assert len({shape_key(sql)[0] for sql in texts}) == 1
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache())
    expected = {sql: RecencyReporter(backend).report(sql).relevant_source_ids for sql in texts}
    monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache(2))
    reporter = RecencyReporter(backend, plan_cache_size=128)
    wrong, interval = [], sys.getswitchinterval()

    def work(offset):
        for i in range(60):
            sql = texts[(i * 7 + offset) % len(texts)]
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



@pytest.mark.differential
def test_fuzz_relevance_shape_campaign_rebinds_and_replans():
    """``tools/fuzz_relevance.py`` at a small budget and a fixed seed: every
    campaign passes, and the shape campaign both re-bound plans and
    re-planned after a verdict flipped (an explicit @example each)."""
    import os
    import re
    import subprocess
    import sys

    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "fuzz_relevance.py"), "200", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for kind in ("shape rebound", "shape re-planned"):
        tally = re.search(rf"(\d+) {kind}", completed.stdout)
        assert tally and int(tally.group(1)) > 0, completed.stdout
