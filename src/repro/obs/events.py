"""The structured event log: typed, trace-correlated, ring-buffered.

Spans answer "how long did this take", metrics answer "how often / how
much"; neither answers "what exactly happened, in order, around the time
things went wrong". An :class:`Event` is one discrete, load-bearing
occurrence — a sniffer retry, a breaker opening, a source degrading, a
fault injection, a z-score outlier in a report — recorded with:

* a dotted **name** from the canonical set below (free-form names are
  allowed but the instrumented subsystems stick to the constants);
* the **wall clock** and, when the emitter lives in simulated time, the
  **domain time** ``t``;
* the **source** (machine id) the event concerns, when there is one;
* a **severity** (``debug`` / ``info`` / ``warning`` / ``error``);
* the **span id** of the emitting thread's innermost open span, so events
  interleave exactly into the trace timeline;
* free-form JSON-serializable **attributes**.

Events land in an :class:`EventLog` — a lock-protected ring buffer
(the shared :class:`~repro.obs.ring.BoundedRing`) so a week-long simulation
cannot grow without bound — and are fanned out to subscribed listeners
(the :class:`~repro.obs.flight.FlightRecorder` is one). A disabled
:class:`~repro.obs.instrument.Telemetry` owns an ordinary ``EventLog`` that
stays empty: ``Telemetry.emit`` returns before reaching it.
"""

from __future__ import annotations

import io
import json
import time
from collections import Counter
from typing import Any, Callable, Dict, IO, Iterable, List, Optional

from repro.errors import TracError
from repro.obs.ring import BoundedRing

# -- canonical event names --------------------------------------------------
#
# Instrumented subsystems emit these; the flight recorder's default trigger
# set and the docs refer to them by constant.

EVT_SNIFFER_RETRY = "sniffer.retry"
EVT_SNIFFER_RESTART = "sniffer.restart"
EVT_BREAKER_TRANSITION = "breaker.transition"
EVT_SOURCE_DEGRADED = "source.degraded"
EVT_WATCHDOG_SILENCE = "watchdog.silence"
EVT_FAULT_INJECTED = "fault.injected"
EVT_REPORT_EXCEPTIONAL = "report.exceptional"
EVT_QUERY_SLOW = "query.slow"
EVT_CACHE_EVICTED = "cache.evicted"
EVT_CACHE_CLEARED = "cache.cleared"
EVT_SERVE_REJECTED = "serve.rejected"
EVT_MONITOR_ALERT = "monitor.alert"
EVT_SLO_BREACH = "slo.breach"
EVT_FLIGHT_DUMPED = "flight.dumped"
EVT_CHECKPOINT = "durability.checkpoint"
EVT_CHECKPOINT_FAILED = "durability.checkpoint_failed"
EVT_RECOVERED = "durability.recovered"
EVT_WAL_TORN = "durability.torn_tail"
EVT_SHARD_DEAD = "federation.shard_dead"
EVT_SHARD_REJOINED = "federation.shard_rejoined"
EVT_SHARD_RPC_RETRY = "federation.rpc_retry"
EVT_SHARD_HEDGE = "federation.hedge"
EVT_FEDERATION_PARTIAL = "federation.partial_report"

SEVERITIES = ("debug", "info", "warning", "error")

#: Default ring capacity: enough for hours of chaos at typical event rates.
DEFAULT_CAPACITY = 4096


class Event:
    """One recorded occurrence. Obtain via :meth:`EventLog.emit`."""

    __slots__ = (
        "seq",
        "name",
        "wall",
        "t",
        "source",
        "severity",
        "span_id",
        "trace_id",
        "attributes",
    )

    def __init__(
        self,
        seq: int,
        name: str,
        wall: float,
        t: Optional[float],
        source: Optional[str],
        severity: str,
        span_id: Optional[int],
        attributes: Dict[str, Any],
        trace_id: Optional[str] = None,
    ) -> None:
        self.seq = seq
        self.name = name
        self.wall = wall
        self.t = t
        self.source = source
        self.severity = severity
        self.span_id = span_id
        self.trace_id = trace_id
        self.attributes = attributes

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (one JSONL line per event). ``trace_id``
        (32-hex, or null) is additive on top of the original schema."""
        return {
            "seq": self.seq,
            "name": self.name,
            "wall": self.wall,
            "t": self.t,
            "source": self.source,
            "severity": self.severity,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:
        where = f" source={self.source}" if self.source else ""
        when = f" t={self.t:g}" if self.t is not None else ""
        return f"Event(#{self.seq} {self.name}{where}{when} [{self.severity}])"


class EventLog(BoundedRing):
    """Thread-safe ring buffer of :class:`Event` objects with listeners.

    Listeners are called synchronously from the emitting thread, outside
    the buffer lock (a listener may itself read the log). A listener that
    raises is dropped silently from that emission — observability must
    never take down the observed system.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        super().__init__(capacity)
        self._listeners: List[Callable[[Event], None]] = []

    def emit(
        self,
        name: str,
        t: Optional[float] = None,
        source: Optional[str] = None,
        severity: str = "info",
        span_id: Optional[int] = None,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> Event:
        """Record one event; returns it after fanning out to listeners."""
        if severity not in SEVERITIES:
            raise TracError(
                f"unknown event severity {severity!r}; expected one of {SEVERITIES}"
            )
        with self._lock:
            event = Event(
                self._total + 1,
                name,
                time.time(),
                t,
                source,
                severity,
                span_id,
                attributes,
                trace_id=trace_id,
            )
            self._push(event)
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(event)
            except Exception:
                pass
        return event

    def subscribe(self, listener: Callable[[Event], None]) -> None:
        """Register ``listener`` to receive every future event."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[Event], None]) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def counts_by_name(self) -> Dict[str, int]:
        """Retained-event counts keyed by event name."""
        return dict(Counter(event.name for event in self.snapshot()))


# -- JSONL export -----------------------------------------------------------
#
# One writer and one parser for every ``to_dict()``-able record: spans and
# events alike.


def write_jsonl(records: Iterable[Any], fp: IO[str]) -> int:
    """Stream ``record.to_dict()`` to ``fp`` as newline-terminated compact
    JSON objects; returns the number of lines written."""
    count = 0
    for record in records:
        fp.write(json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")))
        fp.write("\n")
        count += 1
    return count


def to_jsonl(records: Iterable[Any]) -> str:
    """One compact JSON object per record, newline-separated (no trailing
    newline)."""
    buffer = io.StringIO()
    write_jsonl(records, buffer)
    return buffer.getvalue().removesuffix("\n")


def from_jsonl(text: str, what: str = "event") -> List[Dict[str, object]]:
    """Parse a ``what`` JSONL dump back into dicts."""
    out: List[Dict[str, object]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise TracError(f"malformed {what} JSONL at line {number}: {exc}") from exc
        if not isinstance(record, dict):
            raise TracError(f"{what} JSONL line {number} is not an object")
        out.append(record)
    return out
