"""Adversarial tests for Prometheus histogram exposition.

The exposition invariants a scraper relies on: ``_bucket`` series are
*cumulative* and monotonically non-decreasing in ``le`` order, the
``+Inf`` bucket always equals ``_count``, and ``_sum`` equals the sum of
observations. Exemplars (``# {trace_id="..."} value``) must round-trip
through :func:`parse_prometheus_text` without corrupting any series —
including pathological label values that contain the exemplar marker.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.metrics import MetricsRegistry


def bucket_lines(text, name):
    out = []
    for line in text.splitlines():
        if line.startswith(f"{name}_bucket"):
            out.append(line)
    return out


def le_of(line):
    start = line.index('le="') + 4
    end = line.index('"', start)
    raw = line[start:end]
    return math.inf if raw == "+Inf" else float(raw)


def value_of(line):
    head = line.split(" # ")[0]
    return float(head.rsplit(" ", 1)[1])


class TestBucketInvariants:
    def observations(self):
        return [0.0005, 0.003, 0.003, 0.04, 0.9, 15.0, 1e9]

    def test_buckets_are_cumulative_and_monotone(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", help="t")
        for value in self.observations():
            hist.observe(value)
        lines = bucket_lines(prometheus_text(registry), "t_seconds")
        assert lines, "no bucket series rendered"
        ordered = sorted(lines, key=le_of)
        values = [value_of(line) for line in ordered]
        assert values == sorted(values), "buckets must be non-decreasing"
        assert values[-1] == len(self.observations())

    def test_inf_bucket_equals_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", help="t")
        for value in self.observations():
            hist.observe(value)
        text = prometheus_text(registry)
        inf_line = [ln for ln in bucket_lines(text, "t_seconds") if 'le="+Inf"' in ln]
        count_line = [
            ln for ln in text.splitlines() if ln.startswith("t_seconds_count")
        ]
        assert len(inf_line) == 1 and len(count_line) == 1
        assert value_of(inf_line[0]) == value_of(count_line[0])

    def test_sum_matches_observations(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", help="t")
        for value in self.observations():
            hist.observe(value)
        parsed = parse_prometheus_text(prometheus_text(registry))
        assert math.isclose(
            parsed[("t_seconds_sum", ())], sum(self.observations())
        )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=40
    )
)
def test_random_observations_keep_buckets_monotone(values):
    registry = MetricsRegistry()
    hist = registry.histogram("h_seconds", help="h")
    for value in values:
        hist.observe(value)
    text = prometheus_text(registry)
    lines = sorted(bucket_lines(text, "h_seconds"), key=le_of)
    rendered = [value_of(line) for line in lines]
    assert rendered == sorted(rendered)
    assert rendered[-1] == len(values)
    parsed = parse_prometheus_text(text)
    assert parsed[("h_seconds_count", ())] == len(values)


class TestExemplars:
    def test_exemplar_rendered_on_matching_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("r_seconds", help="r")
        hist.observe(0.004, trace_id="c0ffee" * 5 + "00")
        text = prometheus_text(registry)
        with_exemplar = [
            line for line in bucket_lines(text, "r_seconds") if " # {" in line
        ]
        assert with_exemplar, "no exemplar rendered"
        assert 'trace_id="c0ffee' in with_exemplar[0]

    def test_parser_strips_exemplars_without_corrupting_values(self):
        registry = MetricsRegistry()
        hist = registry.histogram("r_seconds", help="r")
        for i in range(10):
            hist.observe(0.01 * i, trace_id=f"{i:032x}")
        text = prometheus_text(registry)
        assert " # {" in text
        parsed = parse_prometheus_text(text)
        assert parsed[("r_seconds_count", ())] == 10
        inf_buckets = [
            key
            for key in parsed
            if key[0] == "r_seconds_bucket" and ("le", "+Inf") in key[1]
        ]
        assert parsed[inf_buckets[0]] == 10

    def test_label_value_containing_exemplar_marker_survives(self):
        registry = MetricsRegistry()
        counter = registry.counter(
            "odd_total", labels={"path": '/x # {trace_id="oops"} 1'}, help="odd"
        )
        counter.inc(3)
        parsed = parse_prometheus_text(prometheus_text(registry))
        matching = [k for k in parsed if k[0] == "odd_total"]
        assert len(matching) == 1
        assert parsed[matching[0]] == 3

    def test_exemplar_survives_null_path(self):
        from repro.obs.instrument import NULL_TELEMETRY, REPORT_SECONDS

        # must be a silent no-op
        NULL_TELEMETRY.observe(REPORT_SECONDS, 1.0, trace_id="ab" * 16, method="focused")
        assert prometheus_text(NULL_TELEMETRY.metrics) == ""
