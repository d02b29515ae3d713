"""Distributed trace context: W3C traceparent inject/extract.

Satellite contract: ``extract_context`` NEVER raises — arbitrary garbage
headers yield ``None`` — and every valid context survives an
inject→extract round trip bit-for-bit. Both are hypothesis properties;
the example-based tests pin the W3C framing details (version field,
zero-id rejection, case-insensitive header lookup) and the tracer's
parent-precedence rules.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import (
    TRACEPARENT_HEADER,
    SpanContext,
    Tracer,
    extract_context,
    inject_context,
)

trace_ids = st.integers(min_value=1, max_value=(1 << 128) - 1)
span_ids = st.integers(min_value=1, max_value=(1 << 64) - 1)


class TestSpanContext:
    def test_traceparent_format(self):
        ctx = SpanContext(trace_id=0xAB, span_id=0xCD, sampled=True)
        assert ctx.to_traceparent() == (
            "00-000000000000000000000000000000ab-00000000000000cd-01"
        )

    def test_unsampled_flag(self):
        ctx = SpanContext(trace_id=1, span_id=1, sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        parsed = SpanContext.from_traceparent(ctx.to_traceparent())
        assert parsed is not None and not parsed.sampled

    def test_rejects_zero_ids(self):
        zero_trace = "00-" + "0" * 32 + "-00000000000000cd-01"
        zero_span = "00-" + "a" * 32 + "-" + "0" * 16 + "-01"
        assert SpanContext.from_traceparent(zero_trace) is None
        assert SpanContext.from_traceparent(zero_span) is None

    def test_rejects_version_ff(self):
        header = "ff-" + "a" * 32 + "-" + "b" * 16 + "-01"
        assert SpanContext.from_traceparent(header) is None

    def test_accepts_future_versions(self):
        header = "cc-" + "a" * 32 + "-" + "b" * 16 + "-01"
        parsed = SpanContext.from_traceparent(header)
        assert parsed is not None
        assert parsed.trace_id_hex == "a" * 32


class TestCarriers:
    def test_inject_extract_round_trip(self):
        ctx = SpanContext(trace_id=0xDEADBEEF, span_id=0x1234)
        carrier = {}
        inject_context(ctx, carrier)
        assert TRACEPARENT_HEADER in carrier
        assert extract_context(carrier) == ctx

    def test_extract_is_case_insensitive(self):
        ctx = SpanContext(trace_id=7, span_id=9)
        for key in ("Traceparent", "TRACEPARENT", "traceparent"):
            assert extract_context({key: ctx.to_traceparent()}) == ctx

    def test_extract_from_empty_or_none_carrier(self):
        assert extract_context({}) is None
        assert extract_context(None) is None


@settings(max_examples=200, deadline=None)
@given(trace_id=trace_ids, span_id=span_ids, sampled=st.booleans())
def test_valid_context_survives_round_trip(trace_id, span_id, sampled):
    ctx = SpanContext(trace_id=trace_id, span_id=span_id, sampled=sampled)
    carrier = {}
    inject_context(ctx, carrier)
    back = extract_context(carrier)
    assert back is not None
    assert back.trace_id == trace_id
    assert back.span_id == span_id
    assert back.sampled == sampled


@settings(max_examples=300, deadline=None)
@given(header=st.text(max_size=80))
def test_extract_never_raises_on_garbage(header):
    result = extract_context({TRACEPARENT_HEADER: header})
    assert result is None or isinstance(result, SpanContext)


@settings(max_examples=200, deadline=None)
@given(
    carrier=st.dictionaries(
        st.text(max_size=20), st.one_of(st.none(), st.text(max_size=60)), max_size=4
    )
)
def test_extract_never_raises_on_arbitrary_carriers(carrier):
    result = extract_context(carrier)
    assert result is None or isinstance(result, SpanContext)


class TestTracerPropagation:
    def test_root_span_gets_fresh_trace_id(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != 0 and b.trace_id != 0
        assert a.trace_id != b.trace_id

    def test_children_inherit_the_trace(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.trace_id == root.trace_id
        assert grandchild.trace_id == root.trace_id
        assert grandchild.parent_id == child.span_id

    def test_remote_parent_joins_the_callers_trace(self):
        caller, callee = Tracer(), Tracer()
        with caller.span("client") as client:
            carrier = inject_context(caller.current_span().context, {})
        remote = extract_context(carrier)
        assert remote == client.context
        with callee.span("server", parent=remote) as server:
            with callee.span("inner") as inner:
                pass
        assert server.trace_id == client.trace_id
        assert server.parent_id == client.span_id
        assert inner.trace_id == client.trace_id

    def test_explicit_parent_beats_stack_top(self):
        tracer = Tracer()
        remote = SpanContext(trace_id=0x42, span_id=0x7)
        with tracer.span("outer") as outer:
            with tracer.span("adopted", parent=remote) as adopted:
                pass
        assert adopted.trace_id == 0x42
        assert adopted.parent_id == 0x7
        assert outer.trace_id != 0x42

    def test_spans_for_trace_accepts_int_and_hex(self):
        tracer = Tracer()
        with tracer.span("x") as x:
            pass
        by_int = tracer.spans_for_trace(x.trace_id)
        by_hex = tracer.spans_for_trace(x.trace_id_hex)
        assert [s.span_id for s in by_int] == [x.span_id]
        assert [s.span_id for s in by_hex] == [x.span_id]
        assert tracer.spans_for_trace("not-hex") == []

    def test_concurrent_spans_get_unique_ids_and_traces(self):
        tracer = Tracer(max_spans=10_000)
        errors = []

        def work():
            try:
                for _ in range(50):
                    with tracer.span("outer"):
                        with tracer.span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        finished = tracer.finished_spans()
        assert len(finished) == 8 * 50 * 2
        span_ids = [s.span_id for s in finished]
        assert len(set(span_ids)) == len(span_ids)
        # Each thread's outer spans are roots: all distinct traces, and
        # every inner span shares its outer's trace.
        inners = [s for s in finished if s.name == "inner"]
        by_id = {s.span_id: s for s in finished}
        for inner in inners:
            assert inner.trace_id == by_id[inner.parent_id].trace_id

    def test_span_to_dict_carries_trace_fields(self):
        tracer = Tracer()
        with tracer.span("x") as x:
            pass
        doc = x.to_dict()
        assert doc["trace_id"] == x.trace_id_hex
        assert doc["traceparent"] == x.context.to_traceparent()
