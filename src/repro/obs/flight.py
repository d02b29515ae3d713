"""The anomaly flight recorder: post-hoc debuggable chaos runs.

A chaos run (PR 3's fault plans) produces anomalies — a source degrades,
the silence watchdog fires, a report marks a source exceptional — and by
the time a human looks, the interesting context has scrolled out of every
ring buffer. The :class:`FlightRecorder` subscribes to the telemetry
event log and, whenever a **trigger** event fires, snapshots everything
an investigation needs into one timestamped JSON file:

* the triggering event itself plus the last ``max_events`` events before
  it (ordered, span-correlated);
* the most recent ``MAX_SPANS`` finished spans and every currently open
  span (so you can see what the system was *in the middle of*);
* every metric value (:func:`~repro.obs.export.metrics_snapshot`);
* recent per-operator query profiles plus the trigger's ``trace_id``
  (a ``query.slow`` dump therefore carries both the span tree and the
  operator-level profile of the offending query);
* recent row-provenance records with their quality summaries, when the
  reporter runs with lineage enabled (so a slow dump also answers *which
  sources fed the answer and how stale were they*);
* the source registry's health entry for each marked source, when wired;
* its SLO status and each source's retained lag series, when it has a
  staleness target.

Dumps are rate-limited by a wall-clock ``cooldown`` (one degraded source
can emit many triggers in a burst), guarded against re-entrancy (the
recorder emits :data:`~repro.obs.events.EVT_FLIGHT_DUMPED` after each
dump, which must not re-trigger it), and named
``flight-<timestamp>-<seq>-<trigger>.json`` under the recorder's
directory. ``trac simulate --flight-dir`` installs one; the shell's
``.flight`` command takes a manual snapshot.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Callable, List, Optional

from repro.obs.events import EVT_FLIGHT_DUMPED, Event
from repro.obs.export import metrics_snapshot

#: Event names that trigger an automatic dump (per the observatory spec):
#: a source degrading, the watchdog detecting silence, a report marking a
#: source exceptional, and a report crossing the slow-query threshold.
#: ``flight.dumped`` is deliberately NOT a trigger.
DEFAULT_TRIGGERS = frozenset(
    {"source.degraded", "watchdog.silence", "report.exceptional", "query.slow"}
)

#: Wall-clock seconds between automatic dumps.
DEFAULT_COOLDOWN = 30.0

#: Finished spans a dump keeps.
MAX_SPANS = 256


class FlightRecorder:
    """Dump telemetry context to disk when anomaly events fire.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.obs.instrument.Telemetry` whose event log,
        tracer and metrics to snapshot. Installs on a disabled telemetry
        too, where it never fires: nothing is ever emitted there.
    directory:
        Where dump files land; created on first dump.
    cooldown:
        Minimum wall-clock seconds between automatic dumps (manual
        :meth:`dump` calls ignore it).
    max_events:
        Retention cap for the dumped events (the spans keep ``MAX_SPANS``).
    sources:
        Optional :class:`~repro.core.sources.SourceRegistry` to embed.
    clock:
        Wall-clock callable, injectable for tests (default
        :func:`time.time`).
    """

    def __init__(
        self,
        telemetry,
        directory: str,
        cooldown: float = DEFAULT_COOLDOWN,
        max_events: int = 256,
        sources=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.telemetry = telemetry
        self.directory = directory
        self.cooldown = cooldown
        self.max_events = max_events
        self.sources = sources
        self._clock = clock or time.time
        self._lock = threading.Lock()
        self._last_dump_wall: Optional[float] = None
        self._dumping = False
        self._installed = False
        self._seq = 0
        #: Paths of every dump written, in order.
        self.dumps: List[str] = []

    # -- subscription -------------------------------------------------------

    def install(self) -> "FlightRecorder":
        """Subscribe to the telemetry event log; returns self."""
        if not self._installed:
            self.telemetry.events.subscribe(self._on_event)
            self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.telemetry.events.unsubscribe(self._on_event)
            self._installed = False

    def _on_event(self, event: Event) -> None:
        if event.name not in DEFAULT_TRIGGERS:
            return
        with self._lock:
            if self._dumping:
                return
            now = self._clock()
            if (
                self._last_dump_wall is not None
                and now - self._last_dump_wall < self.cooldown
            ):
                return
        self.dump(reason=event.name, trigger=event)

    # -- dumping ------------------------------------------------------------

    def dump(self, reason: str = "manual", trigger: Optional[Event] = None) -> str:
        """Write one flight dump now; returns its path."""
        with self._lock:
            if self._dumping:
                raise RuntimeError("flight dump already in progress")
            self._dumping = True
            self._seq += 1
            seq = self._seq
            wall = self._clock()
            self._last_dump_wall = wall
        try:
            payload = self._snapshot(reason, trigger, wall)
            os.makedirs(self.directory, exist_ok=True)
            slug = reason.replace(".", "-").replace("/", "-") or "manual"
            stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(wall))
            path = os.path.join(self.directory, f"flight-{stamp}-{seq:04d}-{slug}.json")
            # Write-then-rename so a crash mid-dump never leaves a torn
            # JSON file where an investigation expects a complete one.
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as fp:
                json.dump(payload, fp, sort_keys=True, indent=2, default=str)
                fp.write("\n")
                fp.flush()
                os.fsync(fp.fileno())
            os.rename(tmp_path, path)
            self.dumps.append(path)
        finally:
            with self._lock:
                self._dumping = False
        self.telemetry.emit(EVT_FLIGHT_DUMPED, severity="info", reason=reason, path=path)
        return path

    def _snapshot(self, reason: str, trigger: Optional[Event], wall: float) -> dict:
        tracer = self.telemetry.tracer
        finished = tracer.tail(MAX_SPANS)
        # The listener runs on the emitting thread, so that thread's span
        # stack is exactly the work in flight around the anomaly.
        open_spans = [s.to_dict() for s in tracer._stack()]
        payload: dict = {
            "format": "trac-flight-v1",
            "reason": reason,
            "wall": wall,
            "trigger": trigger.to_dict() if trigger is not None else None,
            "events": [
                e.to_dict() for e in self.telemetry.events.tail(self.max_events)
            ],
            "events_dropped": self.telemetry.events.dropped,
            "spans": [s.to_dict() for s in finished],
            "open_spans": open_spans,
            "metrics": metrics_snapshot(self.telemetry.metrics),
            "profiles": [p.to_dict() for p in self.telemetry.profiles.tail(self.max_events)],
            "provenance": [p.to_dict() for p in self.telemetry.provenance.tail(self.max_events)],
        }
        # Trace correlation: the trigger's trace id (when stamped) plus
        # recent query profiles, so a query.slow dump carries the span
        # tree AND the per-operator profile of the offending query.
        if trigger is not None and trigger.trace_id:
            payload["trigger_trace_id"] = trigger.trace_id
        sources = self.sources
        if sources is not None:
            payload["health"] = sources.health()
            if sources.target_p95 is not None:
                payload["slo"] = sources.slo_status()
                payload["lag_series"] = sources.lag_series()  # (t, lag) pairs
        return payload

    def __repr__(self) -> str:
        state = "installed" if self._installed else "detached"
        return f"FlightRecorder({self.directory!r}, {state}, dumps={len(self.dumps)})"
