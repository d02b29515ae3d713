"""Benchmark-harness tests: metrics, timing protocol, figure builders."""

import csv
from types import SimpleNamespace

import pytest

from paper_harness import MethodMeasurement, measure_methods, time_call
from paper_harness import false_positive_rate, naive_fpr, overhead
from paper_tables import ascii_table, format_cell, rows_from_dicts, write_csv
from repro.core.report import RecencyReporter
from repro.errors import TracError


class TestMetrics:
    def test_fpr_zero_when_exact(self):
        assert false_positive_rate({"a", "b"}, {"a", "b"}) == 0.0

    def test_fpr_counts_extras(self):
        assert false_positive_rate({"a", "b", "c"}, {"a"}) == 2.0

    def test_fpr_rejects_incomplete_answer(self):
        with pytest.raises(TracError):
            false_positive_rate({"a"}, {"a", "b"})

    def test_fpr_empty_exact_and_empty_reported(self):
        assert false_positive_rate(set(), set()) == 0.0

    def test_fpr_empty_exact_with_reported_rejected(self):
        with pytest.raises(TracError):
            false_positive_rate({"a"}, set())

    def test_paper_q1_closed_form(self):
        """(100000 - 6) / 6 — the paper prints 16665."""
        assert naive_fpr(100_000, 6) == pytest.approx(16665.667, abs=0.001)

    def test_paper_q2_closed_form(self):
        assert naive_fpr(100_000, 100_000 - 6) == pytest.approx(0.00006, abs=1e-6)

    def test_naive_fpr_validation(self):
        with pytest.raises(TracError):
            naive_fpr(10, 0)
        with pytest.raises(TracError):
            naive_fpr(10, 11)

    def test_overhead(self):
        assert overhead(1.0, 1.5) == pytest.approx(0.5)
        assert overhead(2.0, 1.0) == pytest.approx(-0.5)
        with pytest.raises(TracError):
            overhead(0.0, 1.0)


class TestTimeCall:
    def test_returns_positive_mean(self):
        assert time_call(lambda: sum(range(100)), runs=3) > 0

    def test_runs_validated(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, runs=0)

    def test_call_count_with_warmup(self):
        calls = []
        time_call(lambda: calls.append(1), runs=4)
        assert len(calls) == 4

    def test_single_run_no_drop(self):
        calls = []
        assert time_call(lambda: calls.append(1), runs=1) > 0
        assert len(calls) == 1


class TestMeasureMethods:
    def test_all_methods_measured(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        sql = "SELECT mach_id FROM activity WHERE mach_id = 'm1'"
        results = measure_methods(reporter, sql, runs=2)
        assert set(results) == {"focused", "focused_hardcoded", "naive"}
        for m in results.values():
            assert m.t_plain > 0
            assert m.t_report > 0

    def test_relevant_counts_differ_between_methods(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        sql = "SELECT mach_id FROM activity WHERE mach_id = 'm1'"
        results = measure_methods(reporter, sql, runs=2)
        assert results["focused"].relevant_count == 1
        assert results["naive"].relevant_count == 11

    def test_a_cell_costs_exactly_runs_reports_and_its_phases_are_theirs(
        self, paper_memory_backend
    ):
        """One timing loop: no extra instrumented run, no write to the
        reporter's telemetry, and the phase breakdown is the mean of the
        kept (all but the first) timed runs' own ``timings``."""

        class Counting(RecencyReporter):
            def __init__(self, backend):
                super().__init__(backend)
                self.plain_calls = 0
                self.reports = {}

            def run_plain(self, sql):
                self.plain_calls += 1
                return super().run_plain(sql)

            def report(self, sql, method="focused", **kwargs):
                report = super().report(sql, method=method, **kwargs)
                self.reports.setdefault(method, []).append(report)
                return report

        PHASES = ("parse_generate", "user_query", "recency_query", "statistics")
        reporter = Counting(paper_memory_backend)
        telemetry = reporter.telemetry
        sql = "SELECT mach_id FROM activity WHERE mach_id = 'm1'"
        results = measure_methods(reporter, sql, runs=3)
        assert reporter.plain_calls == 3
        assert reporter.telemetry is telemetry
        for method, m in results.items():
            reports = reporter.reports[method]
            assert len(reports) == 3, method
            assert set(m.phases) == set(PHASES)
            for phase in PHASES:
                kept = [getattr(r.timings, phase) for r in reports[1:]]
                assert m.phases[phase] == pytest.approx(sum(kept) / len(kept)), (method, phase)
        assert results["focused"].phases["parse_generate"] > 0
        assert results["focused_hardcoded"].phases["parse_generate"] == 0

    def test_the_plain_query_is_timed_in_the_rounds_of_every_method(self, monkeypatch):
        """On a clock where every call costs more than the last, each
        method's ``t_report - t_plain`` is the stub report's fixed extra
        cost: the drift lands on both sides alike. A plain query timed once
        before the methods would make every later method look dearer."""
        import paper_harness

        extra = 0.5
        clock = SimpleNamespace(now=0.0, calls=0)

        def spend(cost):
            clock.calls += 1
            clock.now += 1.0 + 0.01 * clock.calls + cost

        timings = SimpleNamespace(parse_generate=0.0, user_query=0.0, recency_query=0.0,
                                  statistics=0.0)

        class Stub:
            plan_cache_hits = 0

            def run_plain(self, sql):
                spend(0.0)

            def plan_for(self, sql):
                return None

            def report(self, sql, method, **kwargs):
                spend(extra)
                return SimpleNamespace(timings=timings, relevant_source_ids=())

        monkeypatch.setattr(paper_harness, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        results = measure_methods(Stub(), "SELECT 1", runs=11)
        assert len(results) == 3
        for m in results.values():
            assert m.t_report - m.t_plain == pytest.approx(extra), m.method

    def test_measurement_repr_contains_overhead(self):
        m = MethodMeasurement("focused", 1.0, 2.0, 5)
        assert "100.00%" in repr(m)


class TestReporting:
    def test_ascii_table_alignment(self):
        table = ascii_table(["name", "n"], [["alpha", 1], ["b", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("+")
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "alpha" in table

    def test_format_cell(self):
        assert format_cell(0.0) == "0"
        assert format_cell(12345.6) == "12,346"
        assert format_cell(1.23456) == "1.235"
        assert format_cell(0.00012) == "0.00012"
        assert format_cell("x") == "x"

    def test_rows_from_dicts(self):
        rows = rows_from_dicts([{"a": 1, "b": 2}], ["b", "a", "missing"])
        assert rows == [[2, 1, ""]]

    def test_write_csv(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a", "b"], [[1, 2]])
        assert path.read_text().splitlines() == ["a,b", "1,2"]


class TestFigureBuilders:
    """Smoke tests at miniature scale: the builders run end to end and
    produce the expected record shapes and invariants."""

    def test_fpr_results_focused_is_exact(self):
        from figures import fpr_results

        records = fpr_results(num_sources=40, data_ratio=5)
        assert {r["query"] for r in records} == {"Q1", "Q2", "Q3", "Q4"}
        for record in records:
            assert record["fpr_focused"] == 0.0
            if record["query"] in ("Q1", "Q3"):
                assert record["fpr_naive"] > 1.0
            else:
                assert record["fpr_naive"] < 0.5

    def test_figure1_series_shape(self):
        from figures import figure1_series

        records = figure1_series(total_rows=2000, runs=1, backend_kind="sqlite")
        queries = {r["query"] for r in records}
        methods = {r["method"] for r in records}
        assert queries == {"Q1", "Q2", "Q3", "Q4"}
        assert methods == {"focused", "focused_hardcoded", "naive"}
        for record in records:
            assert record["data_ratio"] * record["num_sources"] == 2000

    def test_fpr_results_naive_matches_the_closed_form(self):
        from figures import fpr_results

        for record in fpr_results(num_sources=100, data_ratio=5):
            assert record["fpr_naive"] == pytest.approx(
                naive_fpr(100, record["relevant_exact"])
            )
            if record["query"] in ("Q1", "Q3"):
                assert record["relevant_exact"] == 6  # the brute-force oracle's own count
            else:
                assert record["fpr_naive"] < 0.1  # almost everything is relevant

    def test_figure2_records_project_the_figure1_cells(self):
        from figures import figure1_series, figure2_records

        fig1 = figure1_series(total_rows=2000, runs=1, backend_kind="sqlite")
        fig2 = figure2_records(fig1)
        points = {(r["data_ratio"], r["num_sources"]) for r in fig1}
        assert sorted((r["query"], r["data_ratio"], r["num_sources"]) for r in fig2) == sorted(
            (query, ratio, sources) for query in ("Q1", "Q3") for ratio, sources in points
        )
        for record in fig2:
            (cell,) = [
                r
                for r in fig1
                if r["method"] == "focused"
                and (r["query"], r["data_ratio"]) == (record["query"], record["data_ratio"])
            ]
            assert record["without_report_s"] == cell["t_plain_s"] > 0
            assert record["with_report_s"] == cell["t_report_s"] > 0

    def test_cli_fpr(self, capsys):
        from figures import main

        assert main(["fpr", "--fpr-sources", "30"]) == 0
        out = capsys.readouterr().out
        assert "False positive rates" in out
        assert "Q4" in out


class TestCliPlot:
    def test_fig1_with_plot_flag(self, capsys):
        from figures import main

        assert main(["fig1", "--total-rows", "2000", "--runs", "1", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "overhead (%) vs data ratio (log-log)" in out
        assert "legend:" in out

    def test_all_runs_one_sweep_and_figure2_csv_projects_figure1_csv(self, tmp_path, capsys):
        from figures import FIG1_HEADERS, main

        assert main(
            ["all", "--total-rows", "2000", "--runs", "1", "--fpr-sources", "30",
             "--csv-dir", str(tmp_path)]
        ) == 0
        progress = [l for l in capsys.readouterr().err.splitlines() if "ratio=" in l]
        assert len(progress) == 2  # 2000 rows: ratios 10 and 100, each loaded once
        with open(tmp_path / "figure1.csv") as handle:
            fig1 = list(csv.DictReader(handle))
        with open(tmp_path / "figure2.csv") as handle:
            fig2 = list(csv.DictReader(handle))
        assert list(fig1[0]) == FIG1_HEADERS and len(FIG1_HEADERS) == 17
        assert all(row[h] != "" for row in fig1 for h in FIG1_HEADERS if h.startswith("phase_"))
        assert fig2 == [
            {
                "query": row["query"],
                "data_ratio": row["data_ratio"],
                "num_sources": row["num_sources"],
                "without_report_s": row["t_plain_s"],
                "with_report_s": row["t_report_s"],
            }
            for row in fig1
            if row["query"] in ("Q1", "Q3") and row["method"] == "focused"
        ]

    def test_fig2_alone_sweeps_only_its_own_cells(self, monkeypatch, capsys):
        import figures

        calls = []
        real = figures.measure_methods

        def spy(reporter, sql, runs=5, methods=None):
            calls.append(methods)
            return real(reporter, sql, runs=runs, methods=methods)

        monkeypatch.setattr(figures, "measure_methods", spy)
        assert figures.main(["fig2", "--total-rows", "2000", "--runs", "1"]) == 0
        assert calls == [["focused"]] * 4  # Q1 and Q3 at two sweep points
        assert "Figure 1" not in capsys.readouterr().out

    def test_csv_dir_writes_files(self, tmp_path, capsys):
        from figures import main

        assert main(
            ["fpr", "--fpr-sources", "30", "--csv-dir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "fpr.csv").exists()
