"""Tracer tests: nesting, ordering, attributes, threads, the no-op path."""

import threading

import pytest

from repro.obs.instrument import NULL_TELEMETRY, PhaseTimer
from repro.obs.trace import NULL_SPAN, NullSpan, Tracer


@pytest.fixture
def tracer():
    return Tracer()


class TestNesting:
    def test_child_gets_parent_id(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_completion_order_inner_first(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_roots_and_children(self, tracer):
        with tracer.span("a"):
            with tracer.span("a.1"):
                pass
            with tracer.span("a.2"):
                pass
        with tracer.span("b"):
            pass
        roots = tracer.roots()
        assert [r.name for r in roots] == ["a", "b"]
        assert [c.name for c in tracer.children_of(roots[0])] == ["a.1", "a.2"]
        assert tracer.children_of(roots[1]) == []

    def test_walk_yields_depths(self, tracer):
        with tracer.span("root"):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        (root,) = tracer.roots()
        walked = [(s.name, depth) for s, depth in tracer.walk(root)]
        assert walked == [("root", 0), ("mid", 1), ("leaf", 2)]

    def test_siblings_after_close_share_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == root.span_id
        assert second.parent_id == root.span_id

    def test_current_span_tracks_innermost(self, tracer):
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None


class TestSpanLifecycle:
    def test_duration_and_finished(self, tracer):
        with tracer.span("work") as span:
            assert not span.finished
            assert span.duration == 0.0
        assert span.finished
        assert span.duration >= 0.0

    def test_monotonic_and_wall_clocks(self, tracer):
        with tracer.span("work") as span:
            pass
        assert span.end >= span.start
        assert span.start_wall > 1_000_000_000  # an actual epoch timestamp

    def test_attributes_at_creation_and_later(self, tracer):
        with tracer.span("q", method="focused") as span:
            span.set_attribute("rows", 42)
        assert span.attributes == {"method": "focused", "rows": 42}

    def test_exception_records_error_and_propagates(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert span.attributes["error"] == "ValueError"
        assert span.finished

    def test_unentered_context_records_nothing(self, tracer):
        # A phase that never runs (e.g. parse_generate for the naive
        # method) must not leave a stale span on the stack.
        tracer.span("never-entered")
        with tracer.span("real") as real:
            assert tracer.current_span() is real
        assert [s.name for s in tracer.finished_spans()] == ["real"]
        assert real.parent_id is None

    def test_span_ids_unique(self, tracer):
        for _ in range(5):
            with tracer.span("x"):
                pass
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(set(ids)) == 5

    def test_to_dict_round_trippable(self, tracer):
        with tracer.span("named", k="v") as span:
            pass
        d = span.to_dict()
        assert d["name"] == "named"
        assert d["span_id"] == span.span_id
        assert d["parent_id"] is None
        assert d["attributes"] == {"k": "v"}
        assert d["duration_s"] == span.duration

    def test_reset_clears_collected(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []
        assert tracer.dropped == 0


class TestCapacity:
    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped == 3


class TestThreadSafety:
    def test_two_threads_nest_independently(self, tracer):
        barrier = threading.Barrier(2)
        errors = []

        def worker(label):
            try:
                with tracer.span(f"{label}.root") as root:
                    barrier.wait(timeout=5)
                    for i in range(50):
                        with tracer.span(f"{label}.child") as child:
                            assert child.parent_id == root.span_id
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in ("t1", "t2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        spans = tracer.finished_spans()
        assert len(spans) == 102  # 2 roots + 2 * 50 children
        for label in ("t1", "t2"):
            root = next(s for s in spans if s.name == f"{label}.root")
            children = [s for s in spans if s.name == f"{label}.child"]
            assert len(children) == 50
            assert all(c.parent_id == root.span_id for c in children)


class TestNullSpan:
    """The one twin a call site really enters: a disabled PhaseTimer's span."""

    def test_null_span_works_as_context_manager(self):
        with NULL_SPAN as span:
            span.set_attribute("ignored", 1)
        assert isinstance(span, NullSpan)
        assert span.attributes == {}
        assert span.to_dict() == {}

    def test_records_nothing(self):
        tracer = NULL_TELEMETRY.tracer
        with PhaseTimer(NULL_TELEMETRY, "x"):
            assert tracer.current_span() is None
        assert tracer.finished_spans() == []
        assert tracer.roots() == []
