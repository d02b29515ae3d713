"""Unit tests for recency-subquery construction (rewrites, connected
components, guards) — the machinery behind Theorems 3/4's SQL."""

from repro.core.recency_query import (
    HEARTBEAT_ALIAS,
    build_all_sources_query,
    build_subquery,
    execute_fragment,
    fragment_request,
    heartbeat_alias_for,
    merge_fragments,
    rewrite_term,
    subquery_sql,
)
from repro.predicates.dnf import basic_terms_of
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import expr_to_sql, to_sql
from repro.sqlparser.resolver import resolve


def resolved_q2(paper_catalog):
    return resolve(
        parse_query(
            "SELECT A.mach_id FROM routing R, activity A "
            "WHERE R.mach_id = 'm1' AND A.value = 'idle' "
            "AND R.neighbor = A.mach_id"
        ),
        paper_catalog,
    )


class TestHeartbeatAlias:
    def test_default_alias(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        assert heartbeat_alias_for(resolved) == HEARTBEAT_ALIAS

    def test_alias_collision_avoided(self, paper_catalog):
        resolved = resolve(
            parse_query("SELECT trac_h.mach_id FROM activity trac_h"), paper_catalog
        )
        alias = heartbeat_alias_for(resolved)
        assert alias != "trac_h"
        assert alias.startswith("trac_h")


class TestRewriteTerm:
    def test_source_ref_redirected_to_heartbeat(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[0]  # R.mach_id = 'm1'
        rewritten = rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(rewritten) == "trac_h.source_id = 'm1'"

    def test_other_relations_requalified(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[1]  # A.value = 'idle'
        rewritten = rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(rewritten) == "a.value = 'idle'"

    def test_join_term_via_each_side(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        join_term = basic_terms_of(resolved.query.where)[2]  # R.neighbor = A.mach_id
        via_a = rewrite_term(join_term, "a", "trac_h")
        assert expr_to_sql(via_a) == "r.neighbor = trac_h.source_id"
        via_r = rewrite_term(join_term, "r", "trac_h")
        # R.neighbor is a regular column: not redirected via R.
        assert expr_to_sql(via_r) == "r.neighbor = a.mach_id"

    def test_original_tree_untouched(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[0]
        before = expr_to_sql(term)
        rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(term) == before

    def test_all_node_types_rewritable(self, paper_catalog):
        resolved = resolve(
            parse_query(
                "SELECT mach_id FROM activity WHERE mach_id IN ('m1') "
                "AND mach_id BETWEEN 'a' AND 'z' AND mach_id LIKE 'm%' "
                "AND mach_id IS NOT NULL AND NOT (mach_id = 'm9' OR mach_id < 'a')"
            ),
            paper_catalog,
        )
        rewritten = rewrite_term(resolved.query.where, "activity", "trac_h")
        text = expr_to_sql(rewritten)
        assert "mach_id" not in text
        assert text.count("trac_h.source_id") >= 5


class TestBuildSubquery:
    def test_single_relation_shape(self, paper_catalog):
        resolved = resolve(
            parse_query("SELECT mach_id FROM activity WHERE mach_id = 'm1'"),
            paper_catalog,
        )
        binding = resolved.bindings[0]
        terms = basic_terms_of(resolved.query.where)
        query, guards = build_subquery(resolved, binding, terms, "trac_h")
        assert to_sql(query) == (
            "SELECT trac_h.source_id, trac_h.recency FROM heartbeat trac_h "
            "WHERE trac_h.source_id = 'm1'"
        )
        assert guards == []

    def test_connected_relation_joins_in(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        binding = resolved.binding("a")
        terms = basic_terms_of(resolved.query.where)
        # Via A: keep Ps(a)=none, Js = join, Po = R.mach_id='m1'.
        retained = [terms[0], terms[2]]
        query, guards = build_subquery(resolved, binding, retained, "trac_h")
        sql = to_sql(query)
        assert "routing r" in sql
        assert "DISTINCT" in sql  # joins can duplicate
        assert guards == []

    def test_unconnected_component_becomes_guard(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        binding = resolved.binding("r")
        terms = basic_terms_of(resolved.query.where)
        retained = [terms[0], terms[1]]  # Ps(r) + Po(a); Jrm dropped
        query, guards = build_subquery(resolved, binding, retained, "trac_h")
        sql = to_sql(query)
        assert "activity" not in sql  # factored out
        assert guards == ["SELECT 1 FROM activity a WHERE a.value = 'idle' LIMIT 1"]

    def test_unreferenced_relation_bare_guard(self, paper_catalog):
        resolved = resolve(
            parse_query(
                "SELECT A.mach_id FROM activity A, routing R WHERE A.mach_id = 'm1'"
            ),
            paper_catalog,
        )
        query, guards = build_subquery(
            resolved,
            resolved.binding("a"),
            basic_terms_of(resolved.query.where),
            "trac_h",
        )
        assert guards == ["SELECT 1 FROM routing r LIMIT 1"]

    def test_no_terms_all_sources(self, paper_catalog):
        resolved = resolve(parse_query("SELECT mach_id FROM activity"), paper_catalog)
        query, guards = build_subquery(resolved, resolved.bindings[0], [], "trac_h")
        assert to_sql(query) == (
            "SELECT trac_h.source_id, trac_h.recency FROM heartbeat trac_h"
        )
        assert guards == []

    def test_three_relation_components(self, paper_catalog):
        from repro.catalog import Column, FiniteDomain, TableSchema

        paper_catalog.add(
            TableSchema(
                "load",
                [
                    Column("mach_id", "TEXT", FiniteDomain({"m1"})),
                    Column("cpu", "REAL"),
                ],
                source_column="mach_id",
            )
        )
        resolved = resolve(
            parse_query(
                "SELECT A.mach_id FROM activity A, routing R, load L "
                "WHERE R.neighbor = A.mach_id AND L.cpu > 0.5"
            ),
            paper_catalog,
        )
        # Via A: Js links heartbeat<->routing; load's predicate is its own
        # component -> a guard.
        terms = basic_terms_of(resolved.query.where)
        query, guards = build_subquery(resolved, resolved.binding("a"), terms, "trac_h")
        sql = to_sql(query)
        assert "routing r" in sql
        assert "load" not in sql
        assert guards == ["SELECT 1 FROM load l WHERE l.cpu > 0.5 LIMIT 1"]


class TestAllSourcesQuery:
    def test_shape(self):
        assert subquery_sql(build_all_sources_query()) == (
            "SELECT source_id, recency FROM heartbeat"
        )


class TestSingleFragmentLaw:
    """k = 1: the merge of one locally executed fragment is the relevant-
    source set the reporter computed before fetch became fragment + merge.
    ``reference`` below is that earlier loop, kept verbatim as the oracle."""

    QUERIES = [
        # One subquery per relation; via R carries a guard over A.
        "SELECT A.mach_id FROM routing R, activity A WHERE R.mach_id = 'm1' "
        "AND A.value = 'idle' AND R.neighbor = A.mach_id",
        # The same shape with a guard no row satisfies.
        "SELECT A.mach_id FROM routing R, activity A WHERE R.mach_id = 'm1' "
        "AND A.event_time < 0 AND R.neighbor = A.mach_id",
        # A disjunction: two conjuncts, guards true in one and false in the other.
        "SELECT R.mach_id FROM routing R, activity A WHERE "
        "(R.mach_id = 'm1' AND A.value = 'busy') OR (R.mach_id = 'm2' AND A.event_time < 0)",
        "SELECT mach_id FROM activity WHERE mach_id IN ('m2', 'm3')",
        "SELECT * FROM activity",
    ]

    @staticmethod
    def reference(snapshot, plan):
        from repro.core.statistics import SourceRecency

        if plan.mode == "empty":
            return []
        if plan.mode == "all":
            rows = snapshot.execute(subquery_sql(build_all_sources_query())).rows
            return [SourceRecency(str(sid), float(rec)) for sid, rec in rows]
        found, guard_cache = {}, {}
        for sub in plan.subqueries:
            skip = False
            for guard in sub.guards:
                if guard not in guard_cache:
                    guard_cache[guard] = bool(snapshot.execute(guard).rows)
                if not guard_cache[guard]:
                    skip = True
                    break
            if skip:
                continue
            for sid, recency in snapshot.execute(sub.sql).rows:
                if sid is not None:
                    found[str(sid)] = float(recency)
        return [SourceRecency(sid, rec) for sid, rec in sorted(found.items())]

    def test_one_local_fragment_merges_to_the_reference(self, paper_backend):
        from repro.core.relevance import build_naive_plan
        from repro.core.report import RecencyReporter

        reporter = RecencyReporter(paper_backend, create_temp_tables=False)
        plans = [reporter.plan_for(sql) for sql in self.QUERIES] + [build_naive_plan()]
        verdicts = set()
        with paper_backend.snapshot() as snapshot:
            for plan in plans:
                request = fragment_request(plan)
                fragment = execute_fragment(snapshot, request, short_circuit=True)
                verdicts.update(fragment["guards"].values())
                expected = self.reference(snapshot, plan)
                assert merge_fragments(request, [fragment]) == expected
                assert reporter._relevant_sources(snapshot, plan) == expected
                # Short-circuiting only skips work whose result the merge drops.
                full = execute_fragment(snapshot, request)
                assert merge_fragments(request, [full]) == expected
        assert verdicts == {True, False}, "the cases must exercise both guard outcomes"
        assert {plan.mode for plan in plans} >= {"focused", "all"}
