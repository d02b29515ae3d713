"""Exporter tests: span JSONL round-trip, Prometheus format + escaping, summary."""

import math

import pytest

from repro.errors import TracError
from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
    metrics_snapshot,
    parse_prometheus_text,
    prometheus_text,
    render_summary,
    span_name_aggregates,
)
from tests.obs.jsonl_checks import (
    check_accepts_an_iterator,
    check_blank_lines_skipped,
    check_empty_input,
    check_malformed_line,
    check_non_object_line,
    check_round_trip,
    check_streams,
    check_string_form_delegates,
    make_spans,
)


class TestJsonl:
    def test_round_trip(self):
        check_round_trip(make_spans(), "span")

    def test_empty_input(self):
        check_empty_input("span")

    def test_blank_lines_skipped(self):
        check_blank_lines_skipped(make_spans(), "span")

    def test_malformed_line_raises_with_line_number(self):
        check_malformed_line("span")

    def test_non_object_line_raises(self):
        check_non_object_line("span")


class TestWriteSpansJsonl:
    """``write_jsonl`` streaming spans."""

    def test_streams_newline_terminated_lines(self):
        check_streams(make_spans(), "span")

    def test_empty_iterable_writes_nothing(self):
        check_empty_input("span")

    def test_string_form_delegates(self):
        check_string_form_delegates(make_spans())

    def test_accepts_a_generator(self):
        check_accepts_an_iterator(make_spans())


class TestPrometheusRender:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"backend": "sqlite"}, help="Hit count").inc(3)
        registry.gauge("backlog").set(7)
        text = prometheus_text(registry)
        assert "# HELP hits Hit count" in text
        assert "# TYPE hits counter" in text
        assert '\nhits{backend="sqlite"} 3\n' in text
        assert "# TYPE backlog gauge" in text
        assert "\nbacklog 7" in text

    def test_histogram_series(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", {"m": "x"}, buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(2.0)
        text = prometheus_text(registry)
        assert 'lat_bucket{m="x",le="0.5"} 1' in text
        assert 'lat_bucket{m="x",le="1"} 1' in text
        assert 'lat_bucket{m="x",le="+Inf"} 2' in text
        assert 'lat_sum{m="x"} 2.25' in text
        assert 'lat_count{m="x"} 2' in text

    def test_type_comment_emitted_once_per_name(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"b": "1"})
        registry.counter("hits", {"b": "2"})
        text = prometheus_text(registry)
        assert text.count("# TYPE hits counter") == 1

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        registry.counter("c", {"sql": tricky}).inc()
        text = prometheus_text(registry)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\nd" not in text.split("# TYPE c counter")[1]  # newline escaped


class TestPrometheusParse:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("hits", {"backend": "sqlite", "sql": 'x "y" \\ z\n'}).inc(5)
        registry.gauge("backlog").set(-2.5)
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.observe(3.0)
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("hits", (("backend", "sqlite"), ("sql", 'x "y" \\ z\n')))] == 5
        assert samples[("backlog", ())] == -2.5
        assert samples[("lat_bucket", (("le", "1"),))] == 1
        assert samples[("lat_bucket", (("le", "+Inf"),))] == 2
        assert samples[("lat_sum", ())] == 3.5
        assert samples[("lat_count", ())] == 2

    def test_comments_skipped(self):
        samples = parse_prometheus_text("# HELP x y\n# TYPE x counter\nx 1\n")
        assert samples == {("x", ()): 1.0}

    def test_malformed_line_raises(self):
        with pytest.raises(TracError, match="line 1"):
            parse_prometheus_text("not a sample line at all")

    @pytest.mark.parametrize(
        "tricky",
        [
            "trailing backslash \\",
            'all three: \\ " \n together',
            'nested escapes \\" \\n \\\\',
            "brace } and { inside",
            'comma,separated="fake"',
            "",
        ],
        ids=["backslash", "mixed", "pre-escaped", "braces", "comma-eq", "empty"],
    )
    def test_adversarial_label_values_round_trip(self, tricky):
        registry = MetricsRegistry()
        registry.counter("c", {"sql": tricky, "plain": "x"}).inc(2)
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("c", (("plain", "x"), ("sql", tricky)))] == 2

    def test_adversarial_labels_on_histograms(self):
        registry = MetricsRegistry()
        tricky = 'SELECT "a\\b"\nFROM t'
        h = registry.histogram("lat", {"sql": tricky}, buckets=(1.0,))
        h.observe(0.5)
        h.observe(5.0)
        samples = parse_prometheus_text(prometheus_text(registry))
        assert samples[("lat_bucket", (("sql", tricky), ("le", "1")))] == 1
        assert samples[("lat_bucket", (("sql", tricky), ("le", "+Inf")))] == 2
        assert samples[("lat_count", (("sql", tricky),))] == 2

    def test_infinite_gauge_values_round_trip(self):
        registry = MetricsRegistry()
        registry.gauge("up").set(math.inf)
        registry.gauge("down").set(-math.inf)
        text = prometheus_text(registry)
        assert "\nup +Inf" in text and "\ndown -Inf" in text
        samples = parse_prometheus_text(text)
        assert samples[("up", ())] == math.inf
        assert samples[("down", ())] == -math.inf


class TestMetricsSnapshot:
    def test_structured_buckets(self):
        import json

        registry = MetricsRegistry()
        registry.counter("hits", {"b": "x"}).inc(2)
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        snapshot = metrics_snapshot(registry)
        json.dumps(snapshot)  # flight dumps embed this verbatim
        by_name = {entry["name"]: entry for entry in snapshot}
        assert by_name["hits"]["value"] == 2
        assert by_name["hits"]["labels"] == {"b": "x"}
        assert by_name["lat"]["buckets"] == [["1", 1], ["+Inf", 1]]
        assert by_name["lat"]["count"] == 1

    def test_empty_registry(self):
        assert metrics_snapshot(MetricsRegistry()) == []


class TestSpanAggregates:
    def test_aggregates_per_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("q"):
                pass
        aggs = span_name_aggregates(tracer.finished_spans())
        assert set(aggs) == {"q"}
        q = aggs["q"]
        assert q["count"] == 3
        assert q["min"] <= q["mean"] <= q["max"]
        assert math.isclose(q["total"], q["mean"] * 3)

    def test_empty(self):
        assert span_name_aggregates([]) == {}


class TestRenderSummary:
    def test_disabled_telemetry_message(self):
        out = render_summary(NULL_TELEMETRY)
        assert "disabled" in out
        assert "TRAC_TELEMETRY" in out

    def test_enabled_but_empty(self):
        out = render_summary(Telemetry())
        assert "nothing has been recorded" in out

    def test_sections_present(self):
        tel = Telemetry()
        tel.metrics.counter("hits", {"backend": "memory"}).inc(2)
        tel.metrics.histogram("lat", buckets=(1.0,)).observe(0.5)
        with tel.tracer.span("trac.report"):
            pass
        out = render_summary(tel)
        assert "counters and gauges:" in out
        assert "hits" in out and "backend=memory" in out
        assert "histograms:" in out and "lat" in out
        assert "spans (by name):" in out and "trac.report" in out

    def test_max_spans_renders_tree(self):
        tel = Telemetry()
        with tel.tracer.span("root", method="focused"):
            with tel.tracer.span("leaf"):
                pass
        out = render_summary(tel, max_spans=1)
        assert "most recent spans" in out
        tree = out.split("most recent spans", 1)[1].splitlines()
        root_line = next(l for l in tree if "root" in l)
        leaf_line = next(l for l in tree if "leaf" in l)
        # The child is indented one level deeper than its root.
        assert len(leaf_line) - len(leaf_line.lstrip()) > len(root_line) - len(
            root_line.lstrip()
        )
        assert '"method": "focused"' in out
