"""Plan-memo tests: repeated queries skip parse/generation, the memo's
capacity and validity are the resolved-query cache's."""

import pytest

from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
from repro.core.report import RecencyReporter
from repro.engine import cache as query_cache
from repro.obs.instrument import PLAN_CACHE_HITS, Telemetry
from repro.serve import QueryService, ServeConfig

Q = "SELECT mach_id FROM activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'"


class TestPlanCache:
    def test_disabled_by_default(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        reporter.report(Q)
        reporter.report(Q)
        assert reporter.plan_cache_hits == 0

    def test_hit_on_repeat(self, paper_memory_backend):
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=8
        )
        first = reporter.report(Q)
        second = reporter.report(Q)
        assert reporter.plan_cache_hits == 1
        assert second.plan is first.plan  # the identical plan object

    def test_cached_report_matches_uncached(self, paper_memory_backend):
        cached = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=8
        )
        plain = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        cached.report(Q)
        assert (
            cached.report(Q).relevant_source_ids
            == plain.report(Q).relevant_source_ids
        )

    @pytest.fixture
    def two_entry_query_cache(self, monkeypatch):
        monkeypatch.setattr(query_cache, "_global_cache", query_cache.ResolvedQueryCache(2))

    def test_lru_eviction(self, paper_memory_backend, two_entry_query_cache):
        # The plan rides on its resolved-query entry: evicting one evicts both.
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=2
        )
        queries = [
            f"SELECT mach_id FROM activity WHERE mach_id = 'm{i}'" for i in (1, 2, 3)
        ]
        for sql in queries:
            reporter.plan_for(sql)
        # First query evicted by the third.
        reporter.plan_for(queries[0])
        assert reporter.plan_cache_hits == 0
        # Most recent two are still cached.
        reporter.plan_for(queries[2])
        assert reporter.plan_cache_hits == 1

    def test_different_sql_not_conflated(self, paper_memory_backend):
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=8
        )
        a = reporter.report("SELECT mach_id FROM activity WHERE mach_id = 'm1'")
        b = reporter.report("SELECT mach_id FROM activity WHERE mach_id = 'm2'")
        assert a.relevant_source_ids == {"m1"}
        assert b.relevant_source_ids == {"m2"}

    def test_cached_plan_has_zero_parse_time_effect(self, paper_memory_backend):
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=8
        )
        reporter.report(Q)
        warm = reporter.report(Q)
        # Timing is recorded, but the cached path is one dict lookup; it
        # must be far below the cold parse+plan time in practice. We only
        # assert the mechanism (hit counted), not wall-clock.
        assert reporter.plan_cache_hits == 1
        assert warm.timings.parse_generate >= 0.0

    def test_hits_recorded_in_telemetry(self, paper_memory_backend):
        tel = Telemetry()
        reporter = RecencyReporter(
            paper_memory_backend,
            create_temp_tables=False,
            plan_cache_size=8,
            telemetry=tel,
        )
        reporter.report(Q)
        assert tel.metrics.counter(PLAN_CACHE_HITS).value == 0
        reporter.report(Q)
        reporter.report(Q)
        assert tel.metrics.counter(PLAN_CACHE_HITS).value == 2
        assert reporter.plan_cache_hits == 2

    def test_no_telemetry_counter_when_disabled(self, paper_memory_backend):
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=8
        )
        reporter.report(Q)
        reporter.report(Q)
        # The internal counter works even with telemetry off.
        assert reporter.plan_cache_hits == 1

    def test_eviction_refreshes_on_hit(self, paper_memory_backend, two_entry_query_cache):
        # A hit must move the entry to the MRU end: after hitting q1, adding
        # a third query evicts q2 (the LRU), not q1.
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, plan_cache_size=2
        )
        q1, q2, q3 = (
            f"SELECT mach_id FROM activity WHERE mach_id = 'm{i}'" for i in (1, 2, 3)
        )
        reporter.plan_for(q1)
        reporter.plan_for(q2)
        reporter.plan_for(q1)  # refresh q1
        reporter.plan_for(q3)  # evicts q2
        hits = reporter.plan_cache_hits
        reporter.plan_for(q1)
        assert reporter.plan_cache_hits == hits + 1  # q1 survived
        reporter.plan_for(q2)  # q2 was evicted: a miss
        assert reporter.plan_cache_hits == hits + 1


class TestStalePlan:
    """A plan must not outlive the schema it was derived from: after
    ``Catalog.replace()`` widens a source column's domain, a query that
    planned to the empty set (Corollary 2) names the new source — the
    completeness Corollaries 3 & 5 promise — whether or not plans are kept."""

    SQL = "SELECT t.v FROM t WHERE t.s = 'c'"

    @staticmethod
    def schema(sources):
        return TableSchema(
            "t",
            [Column("s", "TEXT", FiniteDomain(sources)), Column("v", "INTEGER")],
            source_column="s",
        )

    @pytest.fixture
    def backend(self):
        backend = MemoryBackend(Catalog([self.schema("ab")]))
        backend.insert_rows("t", [("a", 1), ("b", 2), ("c", 3)])
        for k, source in enumerate("abc"):
            backend.upsert_heartbeat(source, 100.0 + k)
        return backend

    @pytest.mark.parametrize("plan_cache_size", [0, 128])
    def test_reporter_replans_after_catalog_replace(self, backend, plan_cache_size):
        reporter = RecencyReporter(backend, plan_cache_size=plan_cache_size)
        before = reporter.report(self.SQL)
        assert before.plan.mode == "empty" and before.relevant_source_ids == set()
        backend.catalog.replace(self.schema("abc"))
        after = reporter.report(self.SQL)
        assert after.relevant_source_ids == {"c"}
        # Same schema again: the fresh plan is the one that is kept.
        assert reporter.report(self.SQL).relevant_source_ids == {"c"}
        assert reporter.plan_cache_hits == (1 if plan_cache_size else 0)

    def test_query_service_defaults_replan_after_catalog_replace(self, backend):
        with QueryService(backend, ServeConfig(workers=1)) as service:
            assert service.query(self.SQL)["relevant_sources"] == []
            backend.catalog.replace(self.schema("abc"))
            assert service.query(self.SQL)["relevant_sources"] == ["c"]
            # The served reporter memoises: the repeat is a plan-cache hit.
            reporter = service.pool.submit(lambda reporter: reporter).result(timeout=5.0)
            hits = reporter.plan_cache_hits
            assert service.query(self.SQL)["relevant_sources"] == ["c"]
            assert reporter.plan_cache_hits == hits + 1
