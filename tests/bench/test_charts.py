"""ASCII chart rendering tests."""

from paper_tables import ascii_chart


class TestAsciiChart:
    def test_empty_series(self):
        assert "(no data)" in ascii_chart({}, title="t")

    def test_title_and_legend(self):
        chart = ascii_chart({"a": [(1, 1)], "b": [(2, 2)]}, title="My Chart")
        assert chart.splitlines()[0] == "My Chart"
        assert "o a" in chart
        assert "x b" in chart

    def test_markers_placed_at_extremes(self):
        chart = ascii_chart({"s": [(0, 0), (10, 100)]}, width=20, height=5)
        lines = chart.splitlines()
        # Max point at top-right, min at bottom-left of the plot area.
        top = next(line for line in lines if "|" in line)
        bottom = [line for line in lines if "|" in line][-1]
        assert top.rstrip().endswith("o|")
        assert bottom.split("|")[1][0] == "o"

    def test_axis_labels(self):
        chart = ascii_chart({"s": [(1, 5), (100, 50)]})
        assert "1" in chart and "100" in chart
        assert "50" in chart and "5" in chart

    def test_log_axes_labels_are_delogged(self):
        chart = ascii_chart({"s": [(10, 1), (1000, 100)]}, log_x=True, log_y=True)
        assert "1e+03" in chart or "1000" in chart
        assert "10" in chart

    def test_single_point_does_not_crash(self):
        chart = ascii_chart({"s": [(5, 5)]})
        assert "o" in chart

    def test_constant_series(self):
        chart = ascii_chart({"s": [(1, 7), (2, 7), (3, 7)]})
        plot_area = "".join(
            line.split("|")[1]
            for line in chart.splitlines()
            if line.rstrip().endswith("|")
        )
        assert plot_area.count("o") == 3

    def test_dimensions_respected(self):
        chart = ascii_chart({"s": [(0, 0), (1, 1)]}, width=30, height=7)
        plot_lines = [line for line in chart.splitlines() if line.rstrip().endswith("|")]
        assert len(plot_lines) == 7
        assert all(len(line.split("|")[1]) == 30 for line in plot_lines)

    def test_many_series_cycle_markers(self):
        series = {f"s{i}": [(i, i)] for i in range(10)}
        chart = ascii_chart(series)
        assert "legend:" in chart


class TestFigurePlots:
    def test_plot_figure1_produces_four_panels(self):
        from figures import plot_figure1

        records = [
            {
                "query": q,
                "method": m,
                "data_ratio": r,
                "overhead_pct": o,
            }
            for q in ("Q1", "Q2", "Q3", "Q4")
            for m in ("focused", "naive")
            for r, o in ((10, 100.0), (100, 10.0))
        ]
        text = plot_figure1(records)
        assert text.count("overhead (%) vs data ratio") == 4

    def test_plot_figure1_clamps_nonpositive_overheads(self):
        from figures import plot_figure1

        records = [
            {"query": "Q1", "method": "naive", "data_ratio": 10, "overhead_pct": -5.0},
            {"query": "Q1", "method": "naive", "data_ratio": 100, "overhead_pct": 50.0},
        ]
        assert "Q1" in plot_figure1(records)

    def test_plot_figure2(self):
        from figures import plot_figure2

        records = [
            {
                "query": q,
                "data_ratio": r,
                "without_report_s": 0.001 * r,
                "with_report_s": 0.002 * r,
            }
            for q in ("Q1", "Q3")
            for r in (10, 100, 1000)
        ]
        text = plot_figure2(records)
        assert text.count("response time") == 2
        assert "without" in text and "with" in text
