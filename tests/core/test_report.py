"""End-to-end recency report tests (the Section 5.1 table function)."""

import sqlite3

import pytest

from repro.core.report import RecencyReporter
from repro.errors import TracError
from repro.predicates import dnf

IDLE_QUERY = "SELECT mach_id, value FROM activity A WHERE value = 'idle'"


class TestReportBasics:
    def test_result_rows_match_plain_query(self, paper_backend):
        reporter = RecencyReporter(paper_backend)
        report = reporter.report(IDLE_QUERY)
        plain = paper_backend.execute(IDLE_QUERY)
        assert sorted(report.result.rows) == sorted(plain.rows)

    def test_all_sources_relevant_for_pr_only_query(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert report.relevant_source_ids == {f"m{i}" for i in range(1, 12)}
        assert report.minimal

    def test_focused_restricts_to_in_list(self, paper_backend):
        report = RecencyReporter(paper_backend).report(
            "SELECT mach_id FROM activity "
            "WHERE mach_id IN ('m1', 'm2') AND value = 'idle'"
        )
        assert report.relevant_source_ids == {"m1", "m2"}

    def test_naive_reports_everything(self, paper_backend):
        report = RecencyReporter(paper_backend).report(
            "SELECT mach_id FROM activity WHERE mach_id = 'm1'", method="naive"
        )
        assert len(report.relevant_source_ids) == 11
        assert not report.minimal

    def test_hardcoded_requires_plan(self, paper_backend):
        reporter = RecencyReporter(paper_backend)
        with pytest.raises(TracError):
            reporter.report(IDLE_QUERY, method="focused_hardcoded")

    def test_hardcoded_with_plan_matches_focused(self, paper_backend):
        reporter = RecencyReporter(paper_backend)
        plan = reporter.plan_for(IDLE_QUERY)
        hardcoded = reporter.report(IDLE_QUERY, method="focused_hardcoded", plan=plan)
        focused = reporter.report(IDLE_QUERY, method="focused")
        assert hardcoded.relevant_source_ids == focused.relevant_source_ids
        assert hardcoded.timings.parse_generate == 0.0

    def test_unknown_method_rejected(self, paper_backend):
        with pytest.raises(TracError):
            RecencyReporter(paper_backend).report(IDLE_QUERY, method="bogus")


class TestSection51Transcript:
    """The exact behaviours shown in the paper's interactive session."""

    def test_exceptional_source_detected(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert [s.source_id for s in report.exceptional_sources] == ["m2"]

    def test_least_and_most_recent(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert report.statistics.least_recent.source_id == "m1"
        assert report.statistics.most_recent.source_id == "m3"

    def test_bound_of_inconsistency_is_twenty_minutes(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert report.statistics.inconsistency_bound == pytest.approx(20 * 60.0)

    def test_normal_table_has_ten_rows(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert len(report.normal_sources) == 10

    def test_notices_format(self, paper_backend):
        report = RecencyReporter(paper_backend, create_temp_tables=True).report(
            IDLE_QUERY
        )
        notices = report.notices()
        assert any("Exceptional relevant data sources" in n for n in notices)
        assert any("The least recent data source: m1" in n for n in notices)
        assert any("The most recent data source: m3" in n for n in notices)
        assert any("Bound of inconsistency: 00:20:00" in n for n in notices)
        assert any('All "normal" relevant data sources' in n for n in notices)

    def test_temp_tables_queryable(self, paper_backend):
        reporter = RecencyReporter(paper_backend, create_temp_tables=True)
        report = reporter.report(IDLE_QUERY)
        normal = paper_backend.execute(
            f"SELECT sid FROM {report.temp_tables.normal}"
        )
        exceptional = paper_backend.execute(
            f"SELECT sid FROM {report.temp_tables.exceptional}"
        )
        assert len(normal.rows) == 10
        assert exceptional.rows == [("m2",)]

    def test_no_relevant_sources_notice(self, paper_backend):
        report = RecencyReporter(paper_backend).report(
            "SELECT mach_id FROM activity WHERE value = 'not_a_state'"
        )
        assert report.relevant_source_ids == set()
        assert any("No relevant data sources" in n for n in report.notices())

    def test_every_source_exceptional_is_not_none_reported(self):
        from repro.backends import MemoryBackend
        from repro.workload import WorkloadConfig, loaded_backend

        # Two sources a minute apart sit at z = -1 and z = +1: a threshold
        # of 1 makes both exceptional, yet both reported in.
        backend = loaded_backend(WorkloadConfig(2, 1), MemoryBackend)
        report = RecencyReporter(backend, z_threshold=1.0).report("SELECT mach_id FROM activity")
        assert len(report.split.exceptional_ids) == 2 and report.split.normal_ids == []
        notices = report.notices()
        assert not any("No relevant data sources" in n for n in notices)
        assert "NOTICE: Every relevant data source that reported in is exceptional" in notices


class TestTimings:
    def test_breakdown_populated(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        t = report.timings
        assert t.parse_generate > 0
        assert t.user_query > 0
        assert t.recency_query > 0
        assert t.statistics >= 0
        assert t.total >= t.parse_generate + t.user_query + t.recency_query

    def test_naive_has_no_parse_cost(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY, method="naive")
        assert report.timings.parse_generate == 0.0

    def test_run_plain(self, paper_backend):
        result = RecencyReporter(paper_backend).run_plain(IDLE_QUERY)
        assert sorted(result.rows) == sorted(paper_backend.execute(IDLE_QUERY).rows)

    def test_to_dict_mirrors_attributes(self, paper_backend):
        t = RecencyReporter(paper_backend).report(IDLE_QUERY).timings
        assert t.to_dict() == {
            "parse_generate": t.parse_generate,
            "user_query": t.user_query,
            "recency_query": t.recency_query,
            "statistics": t.statistics,
            "total": t.total,
        }

    def test_to_dict_is_json_serializable(self, paper_backend):
        import json

        t = RecencyReporter(paper_backend).report(IDLE_QUERY).timings
        round_tripped = json.loads(json.dumps(t.to_dict()))
        assert round_tripped["total"] == t.total

    def test_repr_names_every_phase(self):
        from repro.core.report import ReportTimings

        t = ReportTimings(0.001, 0.002, 0.003, 0.004, 0.011)
        text = repr(t)
        assert "parse=0.001000s" in text
        assert "user=0.002000s" in text
        assert "recency=0.003000s" in text
        assert "stats=0.004000s" in text
        assert "total=0.011000s" in text

    def test_report_telemetry_none_when_disabled(self, paper_backend):
        report = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert report.telemetry is None

    def test_report_telemetry_is_root_span_when_enabled(self, paper_backend):
        from repro import obs

        tel = obs.Telemetry()
        report = RecencyReporter(paper_backend, telemetry=tel).report(IDLE_QUERY)
        assert report.telemetry is not None
        assert report.telemetry.name == "trac.report"
        # Timings are a thin view over the same phase spans.
        children = {s.name: s for s in tel.tracer.children_of(report.telemetry)}
        assert set(children) == {
            "report.parse_generate",
            "report.user_query",
            "report.recency_query",
            "report.statistics",
        }


class TestConsistency:
    def test_report_uses_one_snapshot(self, tmp_path, paper_catalog):
        """Writes committed between the user query and the recency query
        must not be visible: both run in one snapshot."""
        from repro import SQLiteBackend

        backend = SQLiteBackend(paper_catalog, str(tmp_path / "db.sqlite"))
        backend.insert_rows("activity", [("m1", "idle", 1.0)])
        backend.upsert_heartbeat("m1", 100.0)

        writer = sqlite3.connect(backend.path)
        reporter = RecencyReporter(backend, create_temp_tables=False)

        calls = {"n": 0}

        def hooked(self, sql, **kwargs):
            calls["n"] += 1
            result = type(self)._original_execute(self, sql, **kwargs)
            if calls["n"] == 1:
                # Sneak a write in right after the user query finished and
                # before the recency query runs.
                writer.execute("INSERT INTO heartbeat VALUES ('m999', 999.0)")
                writer.commit()
            return result

        from repro.backends.sqlite import _SQLiteSnapshot

        _SQLiteSnapshot._original_execute = _SQLiteSnapshot.execute
        _SQLiteSnapshot.execute = hooked
        try:
            report = reporter.report(IDLE_QUERY)
        finally:
            _SQLiteSnapshot.execute = _SQLiteSnapshot._original_execute
            del _SQLiteSnapshot._original_execute
            writer.close()

        # m999 was committed mid-report but must not appear.
        assert "m999" not in report.relevant_source_ids
        # It is visible to a fresh query afterwards.
        assert dict(backend.heartbeat_rows()).get("m999") == 999.0
        backend.close()


class TestZThreshold:
    def test_custom_threshold_changes_split(self, paper_backend):
        strict = RecencyReporter(paper_backend, z_threshold=0.5).report(IDLE_QUERY)
        default = RecencyReporter(paper_backend).report(IDLE_QUERY)
        assert len(strict.exceptional_sources) >= len(default.exceptional_sources)


class TestReporterLifecycle:
    def test_context_manager_drops_temp_tables(self, paper_backend):
        with RecencyReporter(paper_backend, create_temp_tables=True) as reporter:
            reporter.report(IDLE_QUERY)
            assert len(paper_backend.list_temp_tables()) == 2
        assert paper_backend.list_temp_tables() == []

    def test_default_reporter_leaves_no_temp_tables(self, paper_backend):
        reporter = RecencyReporter(paper_backend)
        for _ in range(50):
            report = reporter.report(IDLE_QUERY)
        assert report.temp_tables is None
        assert not any("temporary table" in n for n in report.notices())
        assert paper_backend.list_temp_tables() == []

    def test_create_temp_tables_false(self, paper_backend):
        reporter = RecencyReporter(paper_backend, create_temp_tables=False)
        report = reporter.report(IDLE_QUERY)
        assert report.temp_tables is None
        assert paper_backend.list_temp_tables() == []


class TestPlanningKnobs:
    """The two design choices DESIGN.md calls out, at the reporter: the DNF
    blow-up guard and satisfiability pruning."""

    UNSAT = (
        "SELECT mach_id FROM activity A "
        "WHERE A.value = 'idle' AND A.value = 'busy' AND A.mach_id = 'm1'"
    )

    @staticmethod
    def or_heavy(ors):
        """``(idle OR t > c_i) AND ...`` over distinct cutoffs: ``2^ors`` raw
        conjuncts, all satisfiable (range predicates compose)."""
        return "SELECT mach_id FROM activity A WHERE " + " AND ".join(
            f"(A.value = 'idle' OR A.event_time > {1000 + i})" for i in range(ors)
        )

    @pytest.mark.parametrize("budget, mode", [(4, "all"), (64, "all"), (4096, "focused")])
    def test_dnf_budget_decides_between_focused_and_fallback(
        self, paper_memory_backend, monkeypatch, budget, mode
    ):
        # 2^8 = 256 conjuncts against a budget around it; 4,096 is the shipped one.
        monkeypatch.setattr(dnf, "MAX_CONJUNCTS", budget)
        reporter = RecencyReporter(paper_memory_backend)
        assert reporter.plan_for(self.or_heavy(8)).mode == mode

    def test_dnf_fallback_report_is_still_complete(self, paper_backend):
        report = RecencyReporter(paper_backend).report(self.or_heavy(13))
        assert report.relevant_source_ids == {s for s, _ in paper_backend.heartbeat_rows()}

    def test_satisfiability_pruning_buys_precision(self, paper_backend):
        """Pruning drops the only conjunct of a query whose answer no update
        can change, so the report names no source."""
        assert RecencyReporter(paper_backend).report(self.UNSAT).relevant_source_ids == set()


class TestSLOAnnotation:
    """A registry-wired reporter's SLO annotation: a lookup, and a NOTICE."""

    def registry(self, burning=()):
        from repro.core.sources import SourceRegistry

        registry = SourceRegistry(target_p95=30.0, budget=0.1, window=16)
        for t in range(16):
            for sid in ("m1", "m2", "m3"):
                registry.record_lag(sid, float(t), 99.0 if sid in burning and t % 4 == 0 else 1.0)
        return registry

    def test_a_breached_source_adds_the_notice(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, sources=self.registry(burning={"m2"}))
        report = reporter.report(IDLE_QUERY)
        notice = "NOTICE: Staleness SLO breached (p95 lag target 30s, budget 0.1): m2"
        assert notice in report.notices()
        assert notice in report.to_dict()["notices"]
        assert report.slo_status == {"target_p95": 30.0, "budget": 0.1, "breached": ["m2"]}

    def test_no_notice_when_nothing_is_breached(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, sources=self.registry())
        report = reporter.report(IDLE_QUERY)
        assert report.slo_status["breached"] == []
        assert not any("SLO" in line for line in report.notices())
        plain = RecencyReporter(paper_memory_backend).report(IDLE_QUERY)
        assert plain.slo_status is None and plain.notices() == report.notices()

    def test_annotating_a_report_sorts_no_lag_window(self, paper_memory_backend, monkeypatch):
        """The per-report cost is O(sources) over running counts; percentiles
        are for ``/status`` and the flight recorder."""
        from repro.core import sources

        registry = self.registry(burning={"m2"})
        reporter = RecencyReporter(paper_memory_backend, sources=registry, lineage=True)
        calls = []
        monkeypatch.setattr(sources, "percentile", lambda *args: calls.append(args) or 0.0)
        assert reporter.report(IDLE_QUERY).slo_status["breached"] == ["m2"]
        assert calls == []
        registry.slo_status()  # the patch is live: the full evaluation does sort
        assert len(calls) == 3
