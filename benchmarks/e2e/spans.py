"""Spans recorded from outside the program, around calls into each layer.

The traced pass wraps every call it makes into ``src/repro`` in a span —
name, start, end, parent, op id — and keeps them in memory until the pass
ends. Nothing inside ``src/`` is instrumented: where a layer boundary lies
inside one public call (the four phases of ``RecencyReporter.report``), the
call's own public timing breakdown is turned into child spans with
:meth:`SpanRecorder.add_child`, laid end to end from the parent's start.

A span's *self time* is its duration minus the part of that interval its
children cover, so the self times under one root add up to the root's
duration and a layer table built from them attributes all of it.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(
        self, span_id: int, name: str, start: float, parent: Optional[int], op: object
    ) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new(self, name: str, start: float, parent: Optional[int], op: object) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, start, parent, op)
            self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name: str, op: object = None) -> Iterator[Span]:
        """Time the body as one span, child of the enclosing one."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = self._new(
            name,
            time.perf_counter(),
            parent.id if parent is not None else None,
            op if op is not None or parent is None else parent.op,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add_child(self, parent: Span, name: str, offset: float, duration: float) -> Span:
        """Record a child whose timing the callee reported itself."""
        span = self._new(name, parent.start + offset, parent.id, parent.op)
        span.end = span.start + duration
        return span

    # -- analysis -----------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [span.duration for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the interval its children cover."""
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out: Dict[int, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
                start = max(child.start, cursor)
                end = min(child.end, span.end)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = span.duration - covered
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span.to_dict()) + "\n")


@contextlib.contextmanager
def report_span(spans: Optional[SpanRecorder], op: object) -> Iterator[Span]:
    """Time one caller-observed report: a recorded ``report`` span when
    tracing, a span nobody keeps when not — ``duration`` reads the same."""
    if spans is not None:
        with spans.span("report", op) as span:
            yield span
        return
    span = Span(-1, "report", time.perf_counter(), None, op)
    try:
        yield span
    finally:
        span.end = time.perf_counter()
