"""The one bounded ring behind the span, event, profile and provenance logs.

The same laws are run against :class:`EventLog` and :class:`ProfileLog`
because both are :class:`~repro.obs.ring.BoundedRing` with a different
write verb, and against the :class:`Tracer`, which keeps its finished spans
on one; a disabled ``Telemetry`` owns the same rings, empty.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from repro.errors import TracError
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.obs.events import EventLog
from repro.obs.instrument import ProfileLog
from repro.obs.ring import BoundedRing
from repro.obs.trace import SpanContext, Tracer

TRACE_IDS = [None, "a" * 32, "b" * 32, "c" * 32]


def _push_event(log, index, trace_id):
    log.emit("e", trace_id=trace_id, index=index)


def _push_profile(log, index, trace_id):
    log.record(SimpleNamespace(sql=f"q{index}", trace_id=trace_id, attributes={"index": index}))


LOGS = [
    pytest.param(EventLog, _push_event, id="EventLog"),
    pytest.param(ProfileLog, _push_profile, id="ProfileLog"),
]


def _index(item) -> int:
    return item.attributes["index"]


@pytest.mark.parametrize("make,push", LOGS)
class TestRingLaws:
    @given(
        capacity=st.integers(min_value=1, max_value=8),
        pushes=st.lists(st.sampled_from(TRACE_IDS), max_size=30),
        n=st.integers(min_value=-1, max_value=12),
    )
    def test_retention_tail_and_trace_filter(self, make, push, capacity, pushes, n):
        log = make(capacity=capacity)
        for index, trace_id in enumerate(pushes):
            push(log, index, trace_id)

        snapshot = log.snapshot()
        assert log.total == len(pushes)
        assert len(log) == len(snapshot) == min(log.total, capacity)
        assert log.dropped == log.total - len(log)
        # The ring drops the *oldest*: what is left is the newest, in order.
        assert [_index(i) for i in snapshot] == list(range(len(pushes)))[-capacity:]
        # tail(n) is the suffix of snapshot().
        assert log.tail(n) == (snapshot[-n:] if n > 0 else [])
        # for_trace filters it, order kept.
        for trace_id in TRACE_IDS[1:]:
            assert log.for_trace(trace_id) == [i for i in snapshot if i.trace_id == trace_id]
        assert log.for_trace("f" * 32) == []

        log.clear()
        assert len(log) == 0 and log.snapshot() == [] and log.tail(3) == []
        assert log.total == len(pushes)  # the total keeps counting...
        assert log.dropped == log.total  # ...so everything cleared reads as dropped
        push(log, len(pushes), None)
        assert log.total == len(pushes) + 1 and len(log) == 1

    def test_capacity_must_be_positive(self, make, push):
        for capacity in (0, -1):
            with pytest.raises(TracError, match="capacity must be >= 1"):
                make(capacity=capacity)

    def test_is_the_shared_ring(self, make, push):
        log = make()
        assert isinstance(log, BoundedRing)
        # One implementation: the subclass adds its write verb, not a read side.
        for name in ("snapshot", "tail", "for_trace", "clear", "__len__", "total", "dropped"):
            assert name not in vars(type(log)), name
        assert f"0/{log.capacity} retained" in repr(log)


class TestWriteVerbs:
    def test_event_log_adds_emit_and_listeners(self):
        log = EventLog(capacity=2)
        seen = []
        log.subscribe(seen.append)
        events = [log.emit("e", index=i) for i in range(3)]
        assert [e.seq for e in events] == [1, 2, 3]  # seq is the ring's running total
        assert seen == events and log.snapshot() == events[1:]

    def test_profile_log_adds_record_and_last(self):
        log = ProfileLog(capacity=2)
        assert log.last() is None
        for index in range(3):
            _push_profile(log, index, None)
        assert _index(log.last()) == 2
        assert log.dropped == 1


class TestDisabledTelemetryRings:
    @pytest.mark.parametrize("name", ["events", "profiles", "provenance"])
    def test_read_side_is_an_ordinary_empty_ring(self, name):
        ring = getattr(NULL_TELEMETRY, name)
        assert type(ring) is type(getattr(Telemetry(), name))
        assert ring.snapshot() == [] and ring.tail(5) == [] and ring.for_trace("a" * 32) == []
        assert (len(ring), ring.total, ring.dropped) == (0, 0, 0)
        ring.clear()

    def test_read_verbs_of_the_logs_answer_empty(self):
        assert NULL_TELEMETRY.events.counts_by_name() == {}
        assert NULL_TELEMETRY.profiles.last() is None
        assert NULL_TELEMETRY.provenance.last() is None


@given(
    capacity=st.integers(min_value=1, max_value=8),
    pushes=st.lists(st.sampled_from(TRACE_IDS[1:]), max_size=30),
    n=st.integers(min_value=-1, max_value=12),
)
def test_tracer_obeys_the_ring_laws(capacity, pushes, n):
    """The span collector sits on this ring too: past ``max_spans`` it drops
    the *oldest* span, so the newest trace is always retained."""
    tracer = Tracer(max_spans=capacity)
    for index, trace_id in enumerate(pushes):
        with tracer.span(str(index), parent=SpanContext(int(trace_id, 16), 1)):
            pass

    spans = tracer.finished_spans()
    assert [s.name for s in spans] == [str(i) for i in range(len(pushes))][-capacity:]
    assert tracer.dropped == len(pushes) - len(spans)
    assert tracer.tail(n) == (spans[-n:] if n > 0 else [])
    for trace_id in TRACE_IDS[1:]:
        assert tracer.spans_for_trace(trace_id) == [s for s in spans if s.trace_id_hex == trace_id]
    assert tracer.spans_for_trace("f" * 32) == []

    tracer.reset()
    assert tracer.finished_spans() == [] and tracer.dropped == 0
    with tracer.span("after"):
        pass
    assert [s.name for s in tracer.finished_spans()] == ["after"]


def test_tracer_at_capacity_still_returns_a_new_trace():
    tracer = Tracer(max_spans=2)
    for _ in range(5):
        with tracer.span("old"):
            pass
    with tracer.span("new") as span:
        pass
    assert [s.name for s in tracer.spans_for_trace(span.trace_id_hex)] == ["new"]
