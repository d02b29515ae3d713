"""Per-source state: one record per source, written by the ingest path.

A :class:`SourceState` holds what the deployment knows about one source
beyond its heartbeat; the :class:`SourceRegistry` holds the records, the
staleness SLO's three deployment settings and the one lock.

**Writers** — the ingest path only: the sniffer advances ``recency``; its
supervisor marks ``status`` / ``reason`` / ``since`` and writes ``retries``
/ ``restarts`` / ``breaker`` / ``last_error``; the simulator tick records
one lag sample and, with telemetry on, one poll latency per source.

**Views** — everything asked *of* a source is computed from its record:
health (:meth:`SourceRegistry.degraded`, the ``/healthz`` entry); SLO
standing — at most a ``budget`` fraction of a source's ``window`` lag
samples may exceed ``target_p95``, *burn* is the violating fraction over
the budget, and burn >= 1 is the one *breached* predicate, O(1) per sample
through a running violation count that follows the window's evictions;
the quality half-life (:attr:`SourceRegistry.half_life`); the ``/status``
row (:func:`repro.obs.dashboard.source_rows`); the checkpoint entry
(:meth:`SourceRegistry.checkpoint`). docs/ROBUSTNESS.md, "Per-source
state", has the field-by-field table.
"""

from __future__ import annotations

import copy
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.statistics import percentile
from repro.errors import check_number

#: A source whose sniffer is polling normally.
HEALTHY = "healthy"
#: Transient poll failures: the supervisor is retrying with backoff.
BACKING_OFF = "backing_off"
#: The sniffer crashed and was restarted; the next poll is a probe.
RESTARTING = "restarting"
#: Permanent failure, exhausted restart budget, or silent source: the
#: supervisor gave up and quarantined the source.
DEGRADED = "degraded"

STATUSES = (HEALTHY, BACKING_OFF, RESTARTING, DEGRADED)

#: The usual SLO target: 95th-percentile recency lag below one minute.
DEFAULT_TARGET_P95 = 60.0
#: Default error budget: 5% of window samples may exceed the target.
DEFAULT_BUDGET = 0.05
#: Default rolling-window size, in samples.
DEFAULT_WINDOW = 256
#: Poll latencies retained per source (the dashboard's ``poll ms`` column).
POLL_RING = 32

_SCALARS = (
    "status", "reason", "since", "recency", "retries", "restarts",
    "breaker", "last_error", "violations",
)


class SourceState:
    """Everything the deployment knows about one source.

    ``status`` stays ``None`` until a supervisor marks the source and
    ``breaker`` until one supervises it, so a view can tell "healthy" from
    "nobody is watching". ``recency`` is the sniffer's acknowledged
    watermark (``-inf``: none yet): one float with one writer, so it is read
    and written without the lock. Everything else is written through the
    owning :class:`SourceRegistry`, under its lock.
    """

    __slots__ = ("source_id", "lags", "poll_ms") + _SCALARS

    def __init__(self, source_id: str) -> None:
        self.source_id = source_id
        self.status: Optional[str] = None
        self.reason: Optional[str] = None
        self.since: Optional[float] = None
        self.recency = float("-inf")
        self.retries = 0
        self.restarts = 0
        self.breaker: Optional[str] = None
        self.last_error: Optional[str] = None
        #: Rolling ``(t, lag)`` samples and how many of them exceed the target;
        #: like ``poll_ms``, a bounded deque from its first sample on (most
        #: records of most deployments never get one).
        self.lags: Sequence[Tuple[float, float]] = ()
        self.violations = 0
        self.poll_ms: Sequence[float] = ()

    def health(self) -> Optional[Dict[str, object]]:
        """The ``/healthz`` entry, or ``None`` for a source never marked."""
        if self.status is None:
            return None
        return {
            "source": self.source_id,
            "status": self.status,
            "reason": self.reason,
            "since": self.since,
        }

    def copy(self) -> "SourceState":
        twin = SourceState(self.source_id)
        for name in _SCALARS:
            setattr(twin, name, getattr(self, name))
        twin.lags, twin.poll_ms = copy.copy(self.lags), copy.copy(self.poll_ms)
        return twin

    def __repr__(self) -> str:
        extra = f", reason={self.reason!r}" if self.reason else ""
        return f"SourceState({self.source_id!r}, {self.status}{extra})"


class SourceRegistry:
    """Thread-safe registry of :class:`SourceState` records; see the module
    docstring for who writes and what is read.

    ``target_p95=None`` (default) means no staleness SLO is configured: no
    lag is sampled, nothing can be breached and quality decays by the
    default half-life.
    """

    def __init__(
        self,
        target_p95: Optional[float] = None,
        budget: float = DEFAULT_BUDGET,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if target_p95 is not None:
            target_p95 = float(check_number("SLO target", target_p95, 0, low_open=True))
        check_number("SLO budget", budget, 0, 1, low_open=True, high_open=True)
        check_number("SLO window", window, 1)
        self.target_p95 = target_p95
        self.budget = float(budget)
        self.window = int(window)
        self._lock = threading.Lock()
        self._states: Dict[str, SourceState] = {}
        #: Ids currently marked degraded, kept by :meth:`mark` so a report
        #: or a shard fragment asks in O(1) when nothing ever degraded.
        self._degraded: set = set()

    # -- writers (the ingest path) -------------------------------------------

    def _open(self, source_id: str) -> SourceState:
        state = self._states.get(source_id)
        if state is None:
            state = self._states[source_id] = SourceState(source_id)
        return state

    def open(self, source_id: str) -> SourceState:
        """The live record of ``source_id`` (created on first sight): what a
        sniffer and its supervisor hold on to."""
        with self._lock:
            return self._open(source_id)

    def mark(
        self,
        source_id: str,
        status: str,
        reason: Optional[str] = None,
        at: Optional[float] = None,
    ) -> None:
        """Record ``source_id``'s new status (overwrites the previous one)."""
        if status not in STATUSES:
            raise ValueError(f"unknown source status {status!r}; expected one of {STATUSES}")
        with self._lock:
            state = self._open(source_id)
            state.status, state.reason, state.since = status, reason, at
            if status == DEGRADED:
                self._degraded.add(source_id)
            else:
                self._degraded.discard(source_id)

    def update(self, source_id: str, **fields: object) -> None:
        """Set single fields of one record (a supervisor's counters, breaker
        state and last error)."""
        with self._lock:
            state = self._open(source_id)
            for name, value in fields.items():
                setattr(state, name, value)

    def record_lag(self, source_id: str, t: float, lag: float) -> Tuple[bool, float]:
        """Add one lag sample taken at time ``t`` (needs a ``target_p95``).

        Returns ``(was breached before the sample, burn after it)``, so the
        caller sees a breach on the tick it happens without keeping a set
        of its own.
        """
        with self._lock:
            state = self._open(source_id)
            before = self._burn(state) >= 1.0
            lags = state.lags = state.lags or deque(maxlen=self.window)
            if len(lags) == lags.maxlen and lags[0][1] > self.target_p95:
                state.violations -= 1
            lags.append((t, float(lag)))
            if lag > self.target_p95:
                state.violations += 1
            return before, self._burn(state)

    def record_poll(self, source_id: str, milliseconds: float) -> None:
        """Add one poll wall latency to the source's ring."""
        with self._lock:
            state = self._open(source_id)
            state.poll_ms = state.poll_ms or deque(maxlen=POLL_RING)
            state.poll_ms.append(milliseconds)

    # -- views ---------------------------------------------------------------

    def _burn(self, state: SourceState) -> float:
        return state.violations / len(state.lags) / self.budget if state.lags else 0.0

    def _breached(self) -> List[str]:
        if self.target_p95 is None:
            return []
        return sorted(sid for sid, s in self._states.items() if self._burn(s) >= 1.0)

    def status_of(self, source_id: str) -> Optional[str]:
        """The source's status string, or ``None`` if never marked."""
        with self._lock:
            state = self._states.get(source_id)
            return state.status if state is not None else None

    def degraded(self) -> List[str]:
        """Sorted ids of every source currently marked degraded."""
        with self._lock:
            return sorted(self._degraded)

    def unreported(self) -> List[str]:
        """Sorted ids of sources with no acknowledged record yet."""
        with self._lock:
            return sorted(sid for sid, s in self._states.items() if s.recency == float("-inf"))

    def breached(self) -> List[str]:
        """Sorted ids of sources burning past their budget. O(sources): no
        percentile, safe to ask on every report."""
        with self._lock:
            return self._breached()

    def verdict(self) -> Tuple[List[str], Optional[Dict[str, object]]]:
        """What a report is annotated with, taken at one instant: the
        degraded ids, and the SLO's settings with the breached ids (``None``
        without a target)."""
        with self._lock:
            slo = None
            if self.target_p95 is not None:
                slo = {
                    "target_p95": self.target_p95,
                    "budget": self.budget,
                    "breached": self._breached(),
                }
            return sorted(self._degraded), slo

    @property
    def half_life(self) -> float:
        """Seconds of staleness that halve a source's quality score."""
        return self.target_p95 or DEFAULT_TARGET_P95

    def snapshot(self) -> Dict[str, SourceState]:
        """A point-in-time copy of every record, by id (one lock hold, so
        the views derived from it agree with each other)."""
        with self._lock:
            return {sid: state.copy() for sid, state in sorted(self._states.items())}

    def health(self) -> Dict[str, Dict[str, object]]:
        """The health entry of every marked source, keyed by id."""
        return {sid: s.health() for sid, s in self.snapshot().items() if s.status}

    def standing(self, state: SourceState) -> Dict[str, object]:
        """One record's SLO evaluation (the per-source entry of ``/status``'s
        ``slo`` block). Pure: pass a record taken from :meth:`snapshot`."""
        lags = [lag for _, lag in state.lags]
        burn = self._burn(state)
        fraction = state.violations / len(lags) if lags else 0.0
        return {
            "source": state.source_id,
            "samples": len(lags),
            "latest": lags[-1] if lags else None,
            "mean": sum(lags) / len(lags) if lags else 0.0,
            "p95": percentile(lags, 95.0) if lags else 0.0,
            "max": max(lags, default=0.0),
            "violation_fraction": fraction,
            "burn": burn,
            "breached": burn >= 1.0,
        }

    def standing_of(self, source_id: str) -> Optional[Dict[str, object]]:
        """One source's SLO evaluation, or ``None`` if it was never sampled."""
        with self._lock:
            state = self._states.get(source_id)
            state = state.copy() if state is not None and state.lags else None
        return self.standing(state) if state is not None else None

    def slo_status(self) -> Dict[str, object]:
        """Every sampled source's standing plus the aggregate verdict."""
        sources = [self.standing(s) for s in self.snapshot().values() if s.lags]
        return {
            "target_p95": self.target_p95,
            "budget": self.budget,
            "breached": [s["source"] for s in sources if s["breached"]],
            "worst_burn": max((s["burn"] for s in sources), default=0.0),
            "sources": sources,
        }

    def lag_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Every sampled source's retained ``(t, lag)`` series."""
        return {sid: list(s.lags) for sid, s in self.snapshot().items() if s.lags}

    # -- the checkpoint entry --------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """The records as the ``trac-checkpoint-v1`` blocks they ride in:
        ``health`` (marked sources' entries), ``slo`` (the settings and every
        lag window; absent without a target) and the supervision counters
        that join ``ingest``. ``breaker`` is mechanism state and stays out."""
        records = self.snapshot()
        doc: Dict[str, object] = {
            "health": {sid: s.health() for sid, s in records.items() if s.status} or None,
            "ingest": {
                name: {sid: getattr(s, name) for sid, s in records.items() if getattr(s, name)}
                for name in ("retries", "restarts", "last_error")
            },
        }
        if self.target_p95 is not None:
            doc["slo"] = {
                "target_p95": self.target_p95,
                "budget": self.budget,
                "window": self.window,
                "series": {sid: list(s.lags) for sid, s in records.items() if s.lags},
            }
        return doc

    def restore(self, state: Dict[str, object]) -> None:
        """Put back what :meth:`checkpoint` wrote into ``state``. A key a
        checkpoint lacks (an older writer's) leaves the field at its default."""
        for sid, entry in (state.get("health") or {}).items():
            self.mark(sid, entry["status"], entry.get("reason"), at=entry.get("since"))
        if self.target_p95 is not None:
            for sid, samples in (state.get("slo") or {}).get("series", {}).items():
                for t, lag in samples:
                    self.record_lag(sid, float(t), float(lag))
        ingest = state.get("ingest") or {}
        for name in ("retries", "restarts", "last_error"):
            for sid, value in ingest.get(name, {}).items():
                self.update(sid, **{name: value})

    def __repr__(self) -> str:
        return f"SourceRegistry({len(self._states)} sources, target_p95={self.target_p95})"
