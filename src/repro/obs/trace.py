"""Hierarchical tracing spans with a thread-safe in-process collector.

A :class:`Span` is one timed region of work: a name, monotonic start/end
times, a parent (for nesting), a 128-bit ``trace_id`` shared by every span
of one request, and free-form attributes. Spans are created through a
:class:`Tracer` as a context manager::

    with tracer.span("report", method="focused") as span:
        span.set_attribute("rows", 42)

Each thread has its own span stack, so concurrently recording threads nest
independently; finished spans land in completion order on one shared
:class:`~repro.obs.ring.BoundedRing` of ``max_spans`` — like the event,
profile and provenance logs it drops the *oldest* span when full, so a
long-lived serving process always holds its newest traces. Timing uses
:func:`time.perf_counter` (monotonic, never jumps backwards);
:attr:`Span.start_wall` additionally records the wall clock so exported
spans can be correlated with external logs.

**Distributed context.** A :class:`SpanContext` is the process-crossing
identity of a span: ``(trace_id, span_id, sampled)``. It serializes to the
W3C ``traceparent`` wire form (``00-<32 hex>-<16 hex>-<2 hex flags>``) via
:func:`inject_context` / :meth:`SpanContext.to_traceparent` and parses back
with :func:`extract_context`, which **never raises** — a malformed carrier
yields ``None`` and the receiver simply starts a fresh trace. Pass an
extracted context as ``tracer.span(name, parent=ctx)`` and the local span
joins the remote trace (same ``trace_id``, remote ``span_id`` as parent).

While telemetry is disabled no call site reaches the tracer (see the guard
contract in :mod:`repro.obs.instrument`); :data:`NULL_SPAN` is the shared
no-op span a disabled :class:`~repro.obs.instrument.PhaseTimer` enters.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from repro.obs.ring import BoundedRing

#: Canonical carrier key for the serialized context (W3C Trace Context).
TRACEPARENT_HEADER = "traceparent"

_HEX_DIGITS = set("0123456789abcdef")


def _is_hex(text: str) -> bool:
    return bool(text) and all(ch in _HEX_DIGITS for ch in text)


class SpanContext:
    """The process-crossing identity of a span: trace id + span id + flags.

    ``trace_id`` is a 128-bit integer, ``span_id`` a (up to) 64-bit integer;
    both render zero-padded lowercase hex on the wire. Immutable by
    convention — treat instances as values.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: int, span_id: int, sampled: bool = True) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @property
    def trace_id_hex(self) -> str:
        return f"{self.trace_id:032x}"

    @property
    def span_id_hex(self) -> str:
        return f"{self.span_id:016x}"

    def to_traceparent(self) -> str:
        """The W3C wire form: ``00-<trace_id>-<span_id>-<flags>``."""
        flags = "01" if self.sampled else "00"
        return f"00-{self.trace_id_hex}-{self.span_id_hex}-{flags}"

    @classmethod
    def from_traceparent(cls, value: object) -> Optional["SpanContext"]:
        """Parse a ``traceparent`` string; returns ``None`` on anything
        malformed (wrong arity, bad hex, zero ids, unknown length) rather
        than raising — receivers must survive garbage."""
        if not isinstance(value, str):
            return None
        parts = value.strip().lower().split("-")
        if len(parts) != 4:
            return None
        version, trace_hex, span_hex, flags = parts
        if len(version) != 2 or not _is_hex(version) or version == "ff":
            return None
        if len(trace_hex) != 32 or not _is_hex(trace_hex):
            return None
        if len(span_hex) != 16 or not _is_hex(span_hex):
            return None
        if len(flags) != 2 or not _is_hex(flags):
            return None
        trace_id = int(trace_hex, 16)
        span_id = int(span_hex, 16)
        if trace_id == 0 or span_id == 0:
            return None
        return cls(trace_id, span_id, sampled=bool(int(flags, 16) & 0x01))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpanContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))

    def __repr__(self) -> str:
        return f"SpanContext({self.to_traceparent()!r})"


def inject_context(context: Optional[SpanContext], carrier: Dict[str, str]) -> Dict[str, str]:
    """Write ``context`` into ``carrier`` (HTTP headers, a dict, ...) under
    :data:`TRACEPARENT_HEADER`; a ``None`` context leaves it untouched."""
    if context is not None:
        carrier[TRACEPARENT_HEADER] = context.to_traceparent()
    return carrier


def extract_context(carrier: Optional[Mapping]) -> Optional[SpanContext]:
    """Read a :class:`SpanContext` back out of ``carrier``.

    Key lookup is case-insensitive (HTTP header style). Never raises: a
    missing, non-mapping, or malformed carrier yields ``None``.
    """
    if carrier is None:
        return None
    try:
        value = carrier.get(TRACEPARENT_HEADER)
        if value is None:
            value = carrier.get(TRACEPARENT_HEADER.title())
        if value is None:
            for key in carrier:
                if isinstance(key, str) and key.lower() == TRACEPARENT_HEADER:
                    value = carrier[key]
                    break
    except Exception:
        return None
    return SpanContext.from_traceparent(value)


class Span:
    """One timed region. Obtain via :meth:`Tracer.span`; do not construct."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "start_wall",
        "attributes",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int = 0,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start = time.perf_counter()
        self.start_wall = time.time()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def context(self) -> SpanContext:
        """This span's :class:`SpanContext` (for injection into carriers)."""
        return SpanContext(self.trace_id, self.span_id)

    @property
    def trace_id_hex(self) -> str:
        return f"{self.trace_id:032x}"

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (consumed by the JSONL exporter).

        The pre-context fields (``name`` .. ``attributes``) are a frozen
        schema; the trace-context fields are additive so old consumers
        keep working.
        """
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_wall": self.start_wall,
            "duration_s": self.duration,
            "attributes": dict(self.attributes),
            "trace_id": self.trace_id_hex,
            "traceparent": self.context.to_traceparent(),
        }

    def __repr__(self) -> str:
        state = f"{self.duration * 1000:.3f}ms" if self.finished else "open"
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, {state})"


class _SpanContext:
    """Context manager that opens a span on entry and finishes it on exit.

    The span is allocated lazily in ``__enter__`` so an unused context (a
    phase that never runs) records nothing and touches no tracer state.
    """

    __slots__ = ("_tracer", "_name", "_attributes", "_parent", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Dict[str, Any],
        parent: Optional[Union[SpanContext, Span]] = None,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._parent = parent
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attributes, self._parent)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._span is not None:
            self._tracer._finish(self._span, exc)
            self._span = None


class NullSpan:
    """Inert span: every method is a no-op. One shared instance suffices."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    trace_id = 0
    trace_id_hex = f"{0:032x}"
    context = None
    duration = 0.0
    finished = False
    attributes: Dict[str, Any] = {}

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def to_dict(self) -> Dict[str, Any]:
        return {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The shared no-op span/context manager used on the disabled path.
NULL_SPAN = NullSpan()


class Tracer:
    """Creates spans and collects them once finished. Thread-safe."""

    def __init__(self, max_spans: int = 100_000) -> None:
        self._lock = threading.Lock()
        # Plain int guarded by ``_lock`` (not itertools.count) so concurrent
        # handler threads can never observe a torn or duplicated id.
        self._next_id = 1
        self._rand = random.Random()
        self._local = threading.local()
        self.max_spans = max_spans
        self._finished = BoundedRing(max_spans)

    # -- recording ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_ids(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _new_trace_id(self) -> int:
        with self._lock:
            trace_id = self._rand.getrandbits(128)
        return trace_id or 1  # zero is invalid on the wire

    def span(
        self,
        name: str,
        parent: Optional[Union[SpanContext, Span]] = None,
        **attributes: Any,
    ) -> _SpanContext:
        """A context manager that, on entry, opens a child span of the
        calling thread's innermost open span.

        An explicit ``parent`` (a :class:`SpanContext` extracted from a
        carrier, or a :class:`Span`) overrides the thread stack: the new
        span joins that trace as a child of the remote span. With no
        parent anywhere, a fresh 128-bit trace id is minted.
        """
        return _SpanContext(self, name, attributes, parent)

    def _open(
        self,
        name: str,
        attributes: Dict[str, Any],
        parent: Optional[Union[SpanContext, Span]] = None,
    ) -> Span:
        stack = self._stack()
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
            trace_id = parent.trace_id
        elif stack:
            parent_id = stack[-1].span_id
            trace_id = stack[-1].trace_id
        else:
            parent_id = None
            trace_id = self._new_trace_id()
        span = Span(name, self._new_ids(), parent_id, trace_id)
        if attributes:
            span.attributes.update(attributes)
        stack.append(span)
        return span

    def _finish(self, span: Span, exc: Optional[BaseException]) -> None:
        span.end = time.perf_counter()
        if exc is not None:
            span.attributes["error"] = type(exc).__name__
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit; drop the span from wherever it sits
            try:
                stack.remove(span)
            except ValueError:
                pass
        self._finished.push(span)

    # -- inspection ---------------------------------------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished_spans(self) -> List[Span]:
        """Snapshot of the retained finished spans, in completion order."""
        return self._finished.snapshot()

    def tail(self, n: int) -> List[Span]:
        """The most recent ``n`` finished spans, in completion order."""
        return self._finished.tail(n)

    @property
    def dropped(self) -> int:
        """Spans pushed out because the collector held ``max_spans``."""
        return self._finished.dropped

    def spans_for_trace(self, trace_id: Union[int, str]) -> List[Span]:
        """Finished spans belonging to one trace, in completion order.

        Accepts the integer form or the 32-hex-digit wire form.
        """
        if isinstance(trace_id, str):
            try:
                trace_id = int(trace_id, 16)
            except ValueError:
                return []
        return self._finished.for_trace(trace_id)

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.finished_spans() if s.parent_id == span.span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.finished_spans() if s.parent_id is None]

    def walk(self, root: Span, depth: int = 0) -> Iterator[tuple]:
        """Yield ``(span, depth)`` over a finished span tree, children in
        completion order."""
        yield root, depth
        for child in self.children_of(root):
            yield from self.walk(child, depth + 1)

    def reset(self) -> None:
        """Discard every collected span (open spans keep recording)."""
        self._finished = BoundedRing(self.max_spans)

