"""Relevance planning for single-relation queries (Theorem 3 and friends)."""

from repro.core.relevance import build_naive_plan, build_relevance_plan
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve


def plan_for(sql, catalog):
    return build_relevance_plan(resolve(parse_query(sql), catalog))


class TestTheorem3:
    def test_paper_q1_example(self, paper_catalog):
        """Section 4.1.1's Q1: the IN-list goes straight onto Heartbeat and
        the result is minimal."""
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
            paper_catalog,
        )
        assert plan.mode == "focused"
        assert plan.minimal
        assert len(plan.subqueries) == 1
        sub = plan.subqueries[0]
        assert "IN ('m1', 'm2')" in sub.sql
        assert "value" not in sub.sql  # Pr terms never reach the subquery
        assert sub.guards == []

    def test_no_where_all_sources_minimal(self, paper_catalog):
        plan = plan_for("SELECT mach_id FROM activity", paper_catalog)
        assert plan.mode == "focused"
        assert plan.minimal
        assert plan.subqueries[0].query.where is None

    def test_pr_only_query_is_minimal_all_sources(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE value = 'idle'", paper_catalog
        )
        assert plan.minimal
        sub = plan.subqueries[0]
        assert sub.query.where is None  # no constraint on the source column

    def test_source_only_comparison(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE mach_id > 'm2'", paper_catalog
        )
        assert plan.minimal
        assert "source_id > 'm2'" in plan.subqueries[0].sql


class TestMixedPredicates:
    def test_mixed_predicate_downgrades_to_upper_bound(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM routing WHERE mach_id = neighbor", paper_catalog
        )
        assert plan.mode == "focused"
        assert not plan.minimal
        assert "mixed predicate" in plan.subqueries[0].notes

    def test_mixed_predicate_dropped_from_subquery(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM routing "
            "WHERE mach_id = neighbor AND mach_id = 'm1'",
            paper_catalog,
        )
        sub = plan.subqueries[0]
        assert "neighbor" not in sub.sql
        assert "= 'm1'" in sub.sql


class TestUnsatisfiablePredicates:
    def test_contradictory_pr_empties_plan(self, paper_catalog):
        """Corollary 2: unsatisfiable predicates mean no relevant sources."""
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE value = 'idle' AND value = 'busy'",
            paper_catalog,
        )
        assert plan.mode == "empty"

    def test_value_outside_domain_empties_plan(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE value = 'no_such_state'",
            paper_catalog,
        )
        assert plan.mode == "empty"

    def test_constant_false_where(self, paper_catalog):
        plan = plan_for("SELECT mach_id FROM activity WHERE FALSE", paper_catalog)
        assert plan.mode == "empty"
        assert plan.minimal


class TestDisjunctions:
    def test_or_produces_one_subquery_per_conjunct(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE mach_id = 'm1' OR mach_id = 'm2'",
            paper_catalog,
        )
        assert len(plan.subqueries) == 2
        assert plan.minimal

    def test_mixed_satisfiability_across_conjuncts(self, paper_catalog):
        # First disjunct is unsatisfiable; second is fine.
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE (value = 'x' AND mach_id = 'm1') OR mach_id = 'm2'",
            paper_catalog,
        )
        assert len(plan.subqueries) == 1
        assert "m2" in plan.subqueries[0].sql

    def test_dnf_blowup_falls_back_to_all(self, paper_catalog):
        # 13 two-way ORs: 2^13 = 8192 conjuncts, over the 4,096 budget.
        clauses = " AND ".join(
            f"(event_time = {i} OR event_time = {i + 100})" for i in range(13)
        )
        plan = plan_for(f"SELECT mach_id FROM activity WHERE {clauses}", paper_catalog)
        assert plan.mode == "all"
        assert not plan.minimal
        assert plan.notes == ["DNF blow-up (4097 > 4096); reporting all sources"]

    def test_not_in_source_predicate(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE mach_id NOT IN ('m1')",
            paper_catalog,
        )
        assert plan.minimal
        assert "NOT IN ('m1')" in plan.subqueries[0].sql


class TestNaivePlan:
    def test_naive_covers_all_sources(self):
        plan = build_naive_plan()
        assert plan.mode == "all"
        assert not plan.minimal
        assert len(plan.subqueries) == 1
        assert "heartbeat" in plan.subqueries[0].sql


class TestPlanShape:
    def test_sql_statements_property(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE mach_id = 'm1'", paper_catalog
        )
        assert plan.sql_statements == [plan.subqueries[0].sql]

    def test_subquery_projects_source_and_recency(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE mach_id = 'm1'", paper_catalog
        )
        sql = plan.subqueries[0].sql
        assert "source_id" in sql and "recency" in sql

    def test_heartbeat_only_subquery_has_no_distinct(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity WHERE mach_id = 'm1'", paper_catalog
        )
        assert "DISTINCT" not in plan.subqueries[0].sql


class TestSubqueryDedup:
    def test_identical_subqueries_across_conjuncts_merged(self, paper_catalog):
        # Both conjuncts produce the same Heartbeat probe on mach_id='m1'.
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE (value = 'idle' OR value = 'busy') AND mach_id = 'm1'",
            paper_catalog,
        )
        assert len(plan.subqueries) == 1
        assert plan.minimal

    def test_distinct_subqueries_kept(self, paper_catalog):
        plan = plan_for(
            "SELECT mach_id FROM activity "
            "WHERE mach_id = 'm1' OR mach_id = 'm2'",
            paper_catalog,
        )
        assert len(plan.subqueries) == 2

    def test_dedup_preserves_result(self, paper_memory_backend):
        from repro.core.report import RecencyReporter

        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        report = reporter.report(
            "SELECT mach_id FROM activity "
            "WHERE (value = 'idle' OR value = 'busy') AND mach_id IN ('m1', 'm2')"
        )
        assert report.relevant_source_ids == {"m1", "m2"}
