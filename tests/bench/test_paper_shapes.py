"""Regression net for the paper's *qualitative* performance claims.

These run a miniature sweep and assert the relationships (not the absolute
numbers) that Figure 1 and the fpr table report. Margins are deliberately
loose — an order of magnitude where the real gap is three — so the tests
stay robust to machine noise while still catching structural regressions
(e.g. the Focused method accidentally scanning all sources).
"""

import pytest

from repro import SQLiteBackend
from paper_harness import measure_methods
from repro.core.report import RecencyReporter
from repro.workload import WorkloadConfig, loaded_backend, paper_queries

MANY_SOURCES = 2000
RATIO = 10


@pytest.fixture(scope="module")
def many_sources_setup():
    backend = loaded_backend(
        WorkloadConfig(num_sources=MANY_SOURCES, data_ratio=RATIO), SQLiteBackend
    )
    reporter = RecencyReporter(backend, create_temp_tables=False)
    queries = paper_queries(MANY_SOURCES)
    yield reporter, queries
    backend.close()


class TestFigure1Shapes:
    def test_naive_much_worse_than_hardcoded_for_selective_q1(self, many_sources_setup):
        reporter, queries = many_sources_setup
        results = measure_methods(reporter, queries["Q1"], runs=5)
        naive = results["naive"].t_report
        hardcoded = results["focused_hardcoded"].t_report
        assert naive > 3 * hardcoded, (
            f"expected Naive >> Focused-hardcoded for selective Q1 at "
            f"{MANY_SOURCES} sources; got naive={naive:.6f}s vs "
            f"hardcoded={hardcoded:.6f}s"
        )

    def test_naive_and_focused_comparable_for_nonselective_q2(self, many_sources_setup):
        reporter, queries = many_sources_setup
        results = measure_methods(reporter, queries["Q2"], runs=5)
        naive = results["naive"].t_report
        focused = results["focused"].t_report
        # Both must scan (nearly) all sources; within 5x of each other.
        assert focused < 5 * naive and naive < 5 * focused

    def test_focused_reports_six_sources_for_selective_queries(self, many_sources_setup):
        reporter, queries = many_sources_setup
        for name in ("Q1", "Q3"):
            report = reporter.report(queries[name])
            assert len(report.relevant_source_ids) == 6, name

    def test_naive_reports_all_sources(self, many_sources_setup):
        reporter, queries = many_sources_setup
        report = reporter.report(queries["Q1"], method="naive")
        assert len(report.relevant_source_ids) == MANY_SOURCES

    def test_parse_generation_gap(self, many_sources_setup):
        """Focused (auto) pays parse+generation that hardcoded does not."""
        reporter, queries = many_sources_setup
        report = reporter.report(queries["Q3"], method="focused")
        plan = reporter.plan_for(queries["Q3"])
        hardcoded = reporter.report(queries["Q3"], method="focused_hardcoded", plan=plan)
        assert report.timings.parse_generate > 0
        assert hardcoded.timings.parse_generate == 0


class TestHighRatioShapes:
    def test_overheads_shrink_at_high_ratio(self):
        """At few sources / many rows per source, every method's overhead
        collapses (the user query dominates)."""
        sources, ratio = 20, 2000
        backend = loaded_backend(
            WorkloadConfig(num_sources=sources, data_ratio=ratio), SQLiteBackend
        )
        reporter = RecencyReporter(backend, create_temp_tables=False)
        try:
            queries = paper_queries(sources)
            results = measure_methods(reporter, queries["Q1"], runs=5)
            for method, measurement in results.items():
                assert measurement.overhead < 3.0, (
                    f"{method} overhead {measurement.overhead:.1%} did not "
                    "collapse at high data ratio"
                )
        finally:
            backend.close()


class TestQ4RecencyCostIsTheNaiveCost:
    """docs/THEORY.md: Q4's predicates do not link Routing's source column
    to Activity, so Activity factors out of the via-Routing subquery as an
    existence guard and the Focused recency side "costs the same as the
    Naive query" — a statement about rows read, asserted as a count on the
    memory engine (SQLite's ``LIMIT 1`` has always stopped at the witness)."""

    SOURCES = 50

    def recency_side(self, data_ratio):
        """(base-table rows the guards + subqueries of Q4 read, the guard's
        witness offset, |Heartbeat|, |Routing|)."""
        from repro import MemoryBackend
        from repro.core.recency_query import execute_fragment, fragment_request
        from repro.obs.instrument import Telemetry

        tel = Telemetry()
        backend = loaded_backend(
            WorkloadConfig(num_sources=self.SOURCES, data_ratio=data_ratio),
            lambda catalog: MemoryBackend(catalog, telemetry=tel),
        )
        values = backend.execute("SELECT value FROM activity").column()
        assert len(values) == self.SOURCES * data_ratio
        reporter = RecencyReporter(backend, create_temp_tables=False)
        plan = reporter.plan_for(paper_queries(self.SOURCES)["Q4"])
        statements = {g for sub in plan.subqueries for g in sub.guards}
        assert len(statements) == 1, "Q4 has one guard: Activity, via Routing"
        statements.update(sub.sql for sub in plan.subqueries)
        with backend.snapshot() as snapshot:
            execute_fragment(snapshot, fragment_request(plan), short_circuit=True)
        read = sum(
            op.rows_in
            for profile in tel.profiles.snapshot()
            if profile.sql in statements
            for op in profile.operators
            if op.op == "scan"
        )
        sizes = backend.row_count("heartbeat"), backend.row_count("routing")
        return (read, values.index("idle") + 1) + sizes

    def test_rows_read_do_not_grow_with_the_data_ratio(self):
        read, offset, heartbeat, routing = self.recency_side(data_ratio=40)
        read2, offset2, heartbeat2, routing2 = self.recency_side(data_ratio=80)
        assert (heartbeat, routing) == (heartbeat2, routing2) == (self.SOURCES, self.SOURCES)
        # via Routing: Heartbeat, behind the guard; via Activity: Heartbeat x Routing.
        assert read - offset == read2 - offset2 == 2 * heartbeat + routing
        assert max(offset, offset2) < 40, "half the rows are idle: the witness is near the front"


class TestHeartbeatRoutingSubqueryIsASemijoin:
    """docs/THEORY.md, Theorem 4: the via-Activity recency query of Q3 and Q4
    is ``π_cs σ(Heartbeat × Routing)``, and the memory engine runs it as the
    semijoin it is — counted, not clocked: no operator after the scans
    carries more than one row per Heartbeat row, whatever the data ratio."""

    SOURCES = 50

    @pytest.mark.parametrize("data_ratio", [40, 80])
    @pytest.mark.parametrize("name", ["Q3", "Q4"])
    def test_semijoin_output_is_bounded_by_heartbeat(self, name, data_ratio):
        from repro import MemoryBackend
        from repro.obs.instrument import Telemetry

        backend = loaded_backend(
            WorkloadConfig(num_sources=self.SOURCES, data_ratio=data_ratio),
            lambda catalog: MemoryBackend(catalog, telemetry=Telemetry()),
        )
        plan = RecencyReporter(backend, create_temp_tables=False).plan_for(
            paper_queries(self.SOURCES)[name]
        )
        (sql,) = [sub.sql for sub in plan.subqueries if " routing " in sub.sql]
        assert sql.startswith("SELECT DISTINCT trac_h.source_id, trac_h.recency")
        operators = backend.execute(sql).profile.operators
        heartbeat = backend.row_count("heartbeat")
        (semijoin,) = [op for op in operators if op.detail.startswith("semijoin on 1 key(s)")]
        (project,) = [op for op in operators if op.op == "project"]
        assert semijoin.target == "trac_h"
        assert semijoin.rows_out <= heartbeat and project.rows_in <= heartbeat
        # Heartbeat holds one row per source: DISTINCT has nothing left to drop.
        assert project.rows_in == project.rows_out == semijoin.rows_out
