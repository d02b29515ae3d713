"""The structured event log: emission, retention, listeners, JSONL."""

import threading

import pytest

from repro.errors import TracError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.events import EVT_SOURCE_DEGRADED, EventLog, from_jsonl, to_jsonl
from tests.obs.jsonl_checks import (
    check_accepts_an_iterator,
    check_blank_lines_skipped,
    check_empty_input,
    check_malformed_line,
    check_non_object_line,
    check_round_trip,
    check_streams,
    check_string_form_delegates,
    make_events,
)


class TestEventLog:
    def test_emit_returns_the_event(self):
        log = EventLog()
        event = log.emit("sniffer.retry", t=12.0, source="m3", severity="warning", attempt=2)
        assert event.name == "sniffer.retry"
        assert event.t == 12.0
        assert event.source == "m3"
        assert event.severity == "warning"
        assert event.attributes == {"attempt": 2}
        assert event.seq == 1
        assert event.wall > 0

    def test_sequence_numbers_are_monotonic(self):
        log = EventLog()
        seqs = [log.emit("e").seq for _ in range(5)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_unknown_severity_rejected(self):
        log = EventLog()
        with pytest.raises(TracError, match="severity"):
            log.emit("e", severity="catastrophic")

    def test_ring_retention_and_dropped_count(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.emit("e", index=i)
        assert len(log) == 3
        assert log.total == 5
        assert log.dropped == 2
        assert [e.attributes["index"] for e in log.snapshot()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(TracError):
            EventLog(capacity=0)

    def test_tail(self):
        log = EventLog()
        for i in range(10):
            log.emit("e", index=i)
        assert [e.attributes["index"] for e in log.tail(3)] == [7, 8, 9]
        assert log.tail(0) == []
        assert len(log.tail(99)) == 10

    def test_counts_by_name(self):
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert log.counts_by_name() == {"a": 2, "b": 1}

    def test_clear_keeps_sequence_counter(self):
        log = EventLog()
        log.emit("e")
        log.clear()
        assert len(log) == 0
        assert log.emit("e").seq == 2

    def test_listeners_receive_events(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a")
        log.emit("b")
        assert [e.name for e in seen] == ["a", "b"]

    def test_unsubscribe_stops_delivery(self):
        log = EventLog()
        seen = []
        listener = seen.append
        log.subscribe(listener)
        log.emit("a")
        log.unsubscribe(listener)
        log.emit("b")
        assert [e.name for e in seen] == ["a"]

    def test_raising_listener_does_not_break_emission(self):
        log = EventLog()

        def bad(event):
            raise RuntimeError("boom")

        seen = []
        log.subscribe(bad)
        log.subscribe(seen.append)
        event = log.emit("a")
        assert event is not None
        assert len(seen) == 1

    def test_listener_may_read_the_log(self):
        """Listeners run outside the buffer lock (no deadlock)."""
        log = EventLog()
        lengths = []
        log.subscribe(lambda e: lengths.append(len(log)))
        log.emit("a")
        assert lengths == [1]

    def test_thread_safety(self):
        log = EventLog(capacity=10_000)

        def worker():
            for _ in range(500):
                log.emit("e")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert log.total == 2000
        seqs = [e.seq for e in log.snapshot()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestTelemetryEmit:
    def test_emit_counts_and_correlates_spans(self):
        tel = Telemetry()
        with tel.tracer.span("outer") as span:
            event = tel.emit("sniffer.retry", source="m1", severity="warning")
        assert event.span_id == span.span_id
        counters = {
            (i.name, dict(i.labels).get("event")): i.value
            for i in tel.metrics.collect()
        }
        assert counters[("trac_events_emitted_total", "sniffer.retry")] == 1

    def test_emit_without_open_span(self):
        tel = Telemetry()
        assert tel.emit("e").span_id is None

    def test_reset_clears_events(self):
        tel = Telemetry()
        tel.emit("e")
        tel.reset()
        assert len(tel.events) == 0

    def test_disabled_emit_is_inert(self):
        log = NULL_TELEMETRY.events
        seen = []
        log.subscribe(seen.append)
        try:
            assert NULL_TELEMETRY.emit("e", source="m1", extra=1) is None
            assert NULL_TELEMETRY.emit("e", severity="not-a-severity") is None
        finally:
            log.unsubscribe(seen.append)
        assert seen == [] and log.snapshot() == [] and log.tail(5) == []
        assert (len(log), log.total, log.dropped) == (0, 0, 0)
        assert len(NULL_TELEMETRY.metrics) == 0


class TestJsonl:
    def test_round_trip(self):
        events = make_events()
        check_round_trip(events, "event")
        records = from_jsonl(to_jsonl(events), "event")
        assert len(records) == 3
        assert records[0]["name"] == EVT_SOURCE_DEGRADED
        assert records[0]["source"] == "m2"
        assert records[0]["attributes"] == {"reason": "silent"}
        assert records[1]["attributes"] == {"payload": {"nested": [1, 2]}}

    def test_write_events_jsonl_streams(self):
        events = make_events()
        check_streams(events, "event")
        check_string_form_delegates(events)
        check_accepts_an_iterator(events)

    def test_malformed_jsonl_rejected(self):
        check_malformed_line("event")
        check_non_object_line("event")

    def test_blank_lines_skipped(self):
        check_blank_lines_skipped(make_events(), "event")
        check_empty_input("event")
