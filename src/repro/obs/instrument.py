"""The telemetry facade, the instrument table and the recorders.

A :class:`Telemetry` bundles a :class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, an
:class:`~repro.obs.events.EventLog` and two :class:`ProfileLog` rings. Off is
a value of that one class: ``Telemetry(enabled=False)`` — shared as
:data:`NULL_TELEMETRY` — owns the same structures, and they stay empty.

**The guard is the contract.** Instrumented code resolves its telemetry and
tests ``enabled`` before it records anything, so the disabled cost is one
attribute load and one branch::

    tel = obs.resolve(self.telemetry)
    if tel.enabled:
        tel.count(obs.BACKEND_QUERIES, backend=self.kind)

That covers every recording call: the four facade recorders (``count``,
``observe``, ``set``, ``emit``) and every direct ``tel.tracer.span(...)``,
``tel.profiles.record(...)`` and ``tel.provenance.record(...)``. A facade
recorder reached without the guard on a disabled instance returns at once
(no validation, nothing stored); an unguarded direct call lands in the real
structure, where ``tests/test_telemetry_off.py`` — a whole-system run that
must leave the disabled default empty — finds it.

Resolution order: an explicit ``telemetry=`` argument (to a reporter,
backend, monitor, ...) wins; otherwise the process-wide default applies,
which is :data:`NULL_TELEMETRY` unless :func:`enable` was called or the
``TRAC_TELEMETRY`` environment variable was set to a truthy value
(``1``/``true``/``yes``/``on``) when this module was imported.

The metric vocabulary is data: every instrument is declared exactly once
below — ``NAME = counter|gauge|histogram("trac_...", help, *label names)``
registers kind, help, label names and buckets in :data:`INSTRUMENTS` and
evaluates to the name string. Instrumented modules record through
:meth:`Telemetry.count`, :meth:`Telemetry.observe` and :meth:`Telemetry.set`,
which (enabled) reject an undeclared name or a label set that differs from
the declaration; nothing else in ``src/`` mints a metric.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.errors import TracError
from repro.obs.events import Event, EventLog
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.ring import BoundedRing
from repro.obs.trace import NULL_SPAN, Tracer

#: Buckets for DNF conjunct counts / expansion factors (dimensionless).
COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 512.0, 4096.0)

#: Buckets for sniff->DB lag (seconds of simulated or wall time).
LAG_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0, 900.0, 3600.0)

#: Buckets for served-query latency: fine-grained under the 100 ms SLO the
#: serve-load guard enforces, coarse above it.
SERVE_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Buckets for row quality scores, which live in (0, 1]: fine near 1
#: (healthy rows cluster there) and a coarse low tail.
QUALITY_BUCKETS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)

# -- the instrument table ---------------------------------------------------


class Instrument(NamedTuple):
    """One declared metric: everything the exposition says about it."""

    name: str
    kind: str
    help: str
    labels: FrozenSet[str]
    buckets: Optional[Tuple[float, ...]]  # histograms only


#: Every metric the system publishes about itself, keyed by name, in
#: declaration order (docs/OBSERVABILITY.md's reference table is rendered
#: from this).
INSTRUMENTS: Dict[str, Instrument] = {}


def _declare(kind: str, name: str, help: str, labels: Tuple[str, ...], buckets=None) -> str:
    if name in INSTRUMENTS:
        raise TracError(f"metric {name!r} is declared twice")
    INSTRUMENTS[name] = Instrument(name, kind, help, frozenset(labels), buckets)
    return name


def counter(name: str, help: str, *labels: str) -> str:
    """Declare a counter; evaluates to ``name``."""
    return _declare("counter", name, help, labels)


def gauge(name: str, help: str, *labels: str) -> str:
    """Declare a gauge; evaluates to ``name``."""
    return _declare("gauge", name, help, labels)


def histogram(name: str, help: str, *labels: str, buckets=DEFAULT_BUCKETS) -> str:
    """Declare a histogram with fixed ``buckets``; evaluates to ``name``."""
    return _declare("histogram", name, help, labels, tuple(buckets))


BACKEND_QUERIES = counter(
    "trac_backend_queries_total", "Queries executed through a backend", "backend"
)
BACKEND_ROWS_RETURNED = counter(
    "trac_backend_rows_returned_total", "Result rows returned by backend queries", "backend"
)
BACKEND_ROWS_SCANNED = counter(
    "trac_backend_rows_scanned_total", "Base-table rows read by executed queries", "backend"
)
SNAPSHOTS_OPENED = counter("trac_backend_snapshots_opened_total", "Snapshots opened", "backend")
SNAPSHOTS_CLOSED = counter("trac_backend_snapshots_closed_total", "Snapshots closed", "backend")
SNAPSHOT_SECONDS = histogram(
    "trac_backend_snapshot_seconds", "How long snapshots stayed open", "backend"
)
COW_COPIES = counter(
    "trac_cow_copies_total", "Copy-on-write row-list copies taken by writers", "table"
)
COW_ROWS_COPIED = counter(
    "trac_cow_rows_copied_total", "Rows duplicated by copy-on-write copies", "table"
)
REPORTS = counter("trac_reports_total", "Recency reports produced", "method")
REPORT_SECONDS = histogram("trac_report_seconds", "End-to-end recency report latency", "method")
PLAN_CACHE_HITS = counter("trac_plan_cache_hits_total", "Relevance-plan LRU cache hits")
QUERY_CACHE_HITS = counter(
    "trac_query_cache_hits_total", "Resolved-query cache hits (parse skipped)"
)
QUERY_CACHE_MISSES = counter(
    "trac_query_cache_misses_total", "Resolved-query cache misses (full parse+resolve)"
)
DNF_CONVERSIONS = counter("trac_dnf_conversions_total", "Predicate DNF conversions performed")
DNF_CONJUNCTS = histogram(
    "trac_dnf_conjuncts", "Conjuncts produced per DNF conversion", buckets=COUNT_BUCKETS
)
DNF_EXPANSION = histogram(
    "trac_dnf_expansion_factor", "DNF blowup: conjuncts produced per input basic term",
    buckets=COUNT_BUCKETS,
)
SNIFFER_EVENTS = counter("trac_sniffer_events_total", "Log events parsed and applied", "machine")
SNIFFER_BATCHES = counter(
    "trac_sniffer_batches_total", "Sniffer polls that applied records", "machine"
)
SNIFFER_LAG = histogram(
    "trac_sniff_lag_seconds", "End-to-end lag from event timestamp to DB load",
    "machine", buckets=LAG_BUCKETS,
)
SNIFFER_BACKLOG = gauge("trac_sniffer_backlog", "Log records written but not loaded", "machine")
SNIFFER_RETRIES = counter(
    "trac_sniffer_retries_total", "Sniffer poll failures retried with backoff", "machine"
)
SNIFFER_RESTARTS = counter(
    "trac_sniffer_restarts_total", "Sniffer crash/restart cycles performed by the supervisor",
    "machine",
)
SOURCES_DEGRADED = gauge(
    "trac_sources_degraded", "Sources currently marked degraded by supervisors"
)
FAULTS_INJECTED = counter(
    "trac_faults_injected_total", "Faults injected by the active FaultPlan", "kind", "machine"
)
BREAKER_TRANSITIONS = counter(
    "trac_sniffer_breaker_transitions_total", "Per-source circuit breaker state transitions",
    "machine", "state",
)
MONITOR_RULE_SECONDS = histogram(
    "trac_monitor_rule_seconds", "Watch-rule evaluation latency", "rule"
)
MONITOR_TRIPS = counter("trac_monitor_trips_total", "Watch-rule conditions tripped", "rule")
SOURCE_LAG = histogram(
    "trac_source_lag_seconds", "Per-source recency lag sampled by the simulator loop",
    "source", buckets=LAG_BUCKETS,
)
SLO_BURN = gauge(
    "trac_slo_error_budget_burn", "Staleness-SLO error-budget burn rate (>= 1 means breached)",
    "source",
)
EVENTS_EMITTED = counter("trac_events_emitted_total", "Structured events emitted", "event")
WAL_RECORDS = counter(
    "trac_wal_records_total", "Records appended to the write-ahead journal", "kind"
)
WAL_SYNCS = counter("trac_wal_syncs_total", "fsync calls issued by the journal writer")
CHECKPOINTS = counter("trac_checkpoints_total", "Checkpoint attempts by outcome", "outcome")
CHECKPOINT_SECONDS = histogram("trac_checkpoint_seconds", "Wall seconds spent writing checkpoints")
RECOVERY_RUNS = counter("trac_recovery_runs_total", "Recovery passes executed")
RECOVERY_REPLAYED = counter(
    "trac_recovery_replayed_total", "WAL records replayed or skipped during recovery", "kind"
)
RECOVERY_TORN_SEGMENTS = counter(
    "trac_recovery_torn_segments_total", "WAL segments whose torn tail was truncated"
)
HTTP_REQUEST_SECONDS = histogram(
    "trac_http_request_seconds", "Observatory HTTP request latency by endpoint", "path", "status"
)
SERVE_REQUEST_SECONDS = histogram(
    "trac_serve_request_seconds", "Served-query latency from worker pickup to response built",
    "tenant", buckets=SERVE_BUCKETS,
)
SERVE_REQUESTS = counter(
    "trac_serve_requests_total", "Queries served through the serving front end", "tenant", "outcome"
)
SERVE_REJECTIONS = counter(
    "trac_serve_rejections_total", "Requests shed by admission control, quotas or deadlines",
    "tenant", "reason",
)
SERVE_INFLIGHT = gauge("trac_serve_inflight", "Admitted-but-unfinished serving requests")
SERVE_QUEUE_DEPTH = gauge("trac_serve_queue_depth", "Jobs waiting in the serving admission queue")
POLL_SECONDS = histogram(
    "trac_poll_seconds", "Wall seconds per sniffer poll inside the grid poll cycle", "machine"
)
SLOW_QUERIES = counter(
    "trac_slow_queries_total", "Reports exceeding the slow-query threshold", "method"
)
INCREMENTAL_HITS = counter(
    "trac_incremental_hits_total", "Reports answered from an incremental entry"
)
INCREMENTAL_MISSES = counter(
    "trac_incremental_misses_total", "Reports computed from scratch (miss) or ineligible (bypass)",
    "outcome",
)
ROW_QUALITY = histogram(
    "trac_row_quality", "Staleness-derived quality scores of provenance-annotated rows",
    "method", buckets=QUALITY_BUCKETS,
)
ROWS_FROM_EXCEPTIONAL = counter(
    "trac_rows_from_exceptional_total", "Result rows citing an exceptional or degraded source",
    "method",
)
SHARD_RPC_SECONDS = histogram(
    "trac_shard_rpc_seconds", "Coordinator-to-shard RPC latency by outcome",
    "shard", "outcome", buckets=SERVE_BUCKETS,
)
SHARD_BREAKER_STATE = gauge(
    "trac_shard_breaker_state",
    "Per-shard federation breaker state (0=closed, 1=half-open, 2=open)", "shard",
)
SHARD_HEDGES = counter(
    "trac_shard_hedged_requests_total", "Hedged (duplicate) shard requests fired at stragglers",
    "shard",
)
FEDERATION_REPORTS = counter("trac_federation_reports_total", "Federated recency reports produced")
FEDERATION_PARTIAL_REPORTS = counter(
    "trac_federation_partial_reports_total",
    "Federated reports answered with one or more shards missing",
)


def _declared(kind: str, name: str, labels: Dict[str, Any]) -> Instrument:
    """The declaration a recorder call must match, or :class:`TracError`."""
    spec = INSTRUMENTS.get(name)
    if spec is None or spec.kind != kind:
        raise TracError(f"metric {name!r} is not a declared {kind}")
    if labels.keys() != spec.labels:
        raise TracError(
            f"metric {name!r} takes labels {sorted(spec.labels)}, got {sorted(labels)}"
        )
    return spec


#: Default slow-query threshold (seconds); overridable via the
#: ``TRAC_SLOW_QUERY_SECONDS`` environment variable. ``0`` disables.
DEFAULT_SLOW_QUERY_SECONDS = 0.0


def slow_query_threshold() -> float:
    """The process slow-query threshold in seconds (0 = disabled).

    Reads ``TRAC_SLOW_QUERY_SECONDS`` at call time so tests and operators
    can flip it without re-importing."""
    raw = os.environ.get("TRAC_SLOW_QUERY_SECONDS", "").strip()
    if not raw:
        return DEFAULT_SLOW_QUERY_SECONDS
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SLOW_QUERY_SECONDS
    return max(0.0, value)


class ProfileLog(BoundedRing):
    """Thread-safe ring buffer of per-operator query profiles.

    Stores the structured :class:`~repro.engine.profile.QueryProfile`
    objects the evaluator produces when telemetry is enabled (duck-typed:
    anything with ``sql``/``trace_id``/``to_dict()`` works). The
    Observatory's ``/profile`` endpoint and the shell's ``.profile`` read
    from here; the ring keeps memory bounded during long runs.
    """

    def __init__(self, capacity: int = 256) -> None:
        super().__init__(capacity)

    record = BoundedRing.push

    def last(self) -> Optional[Any]:
        with self._lock:
            return self._items[-1] if self._items else None


class Telemetry:
    """A tracer + metrics registry + event log + profile log bundle.

    ``enabled`` is fixed at construction and is what instrumented code
    branches on (see the module docstring); a disabled instance records
    nothing through its recorders, so everything it owns reads as empty.

    ``provenance`` is a second :class:`ProfileLog` ring holding
    :class:`~repro.core.quality.ProvenanceRecord` documents — one per
    lineage-enabled report — served by the observatory's
    ``/provenance/<trace_id>`` view (the ring is duck-typed on
    ``sql``/``trace_id``/``to_dict()``, which the records provide).
    """

    __slots__ = ("tracer", "metrics", "events", "profiles", "provenance", "enabled")

    def __init__(self, enabled: bool = True) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        self.profiles = ProfileLog()
        self.provenance = ProfileLog()
        self.enabled = enabled

    def emit(
        self,
        name: str,
        t: Optional[float] = None,
        source: Optional[str] = None,
        severity: str = "info",
        span: Optional[Any] = None,
        **attributes: Any,
    ) -> Optional[Event]:
        """Record a structured event, correlated with the emitting thread's
        innermost open span (see :mod:`repro.obs.events`).

        Pass ``span=`` to correlate with a specific (possibly already
        finished) span instead — e.g. a slow-query event emitted after its
        root span closed."""
        if not self.enabled:
            return None
        if span is None:
            span = self.tracer.current_span()
        self.count(EVENTS_EMITTED, event=name)
        trace_id: Optional[str] = None
        if span is not None and getattr(span, "trace_id", 0):
            trace_id = f"{span.trace_id:032x}"
        return self.events.emit(
            name,
            t=t,
            source=source,
            severity=severity,
            span_id=span.span_id if span is not None else None,
            trace_id=trace_id,
            **attributes,
        )

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` to the declared counter ``name``."""
        if not self.enabled:
            return
        spec = _declared("counter", name, labels)
        self.metrics.counter(name, labels, help=spec.help).inc(amount)

    def observe(
        self, name: str, value: float, trace_id: Optional[str] = None, **labels: Any
    ) -> None:
        """Record ``value`` in the declared histogram ``name``; ``trace_id``
        (32-hex) attaches an exemplar."""
        if not self.enabled:
            return
        spec = _declared("histogram", name, labels)
        self.metrics.histogram(name, labels, spec.buckets, spec.help).observe(value, trace_id)

    def set(self, name: str, value: float, **labels: Any) -> None:
        """Set the declared gauge ``name`` to ``value``."""
        if not self.enabled:
            return
        spec = _declared("gauge", name, labels)
        self.metrics.gauge(name, labels, help=spec.help).set(value)

    def reset(self) -> None:
        """Clear collected spans, every metric, retained events and profiles."""
        self.tracer.reset()
        self.metrics.reset()
        self.events.clear()
        self.profiles.clear()
        self.provenance.clear()

    def __repr__(self) -> str:
        return (
            f"Telemetry(enabled={self.enabled}, spans={len(self.tracer.finished_spans())}, "
            f"metrics={len(self.metrics)}, events={len(self.events)})"
        )


#: The shared disabled telemetry (the process default unless enabled).
NULL_TELEMETRY = Telemetry(enabled=False)


def _env_enabled() -> bool:
    return os.environ.get("TRAC_TELEMETRY", "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


_default = Telemetry() if _env_enabled() else NULL_TELEMETRY


def get_default() -> Telemetry:
    """The process-wide telemetry (``NULL_TELEMETRY`` unless enabled)."""
    return _default


def set_default(telemetry: Telemetry) -> None:
    """Install ``telemetry`` as the process-wide default."""
    global _default
    _default = telemetry


def enable() -> Telemetry:
    """Turn on process-wide telemetry; returns the live instance.

    Idempotent: re-enabling keeps the existing instance (and its data).
    """
    global _default
    if not _default.enabled:
        _default = Telemetry()
    return _default


def disable() -> None:
    """Reset the process-wide default back to :data:`NULL_TELEMETRY`."""
    set_default(NULL_TELEMETRY)


def resolve(telemetry=None):
    """An explicit telemetry if given, else the process default."""
    return telemetry if telemetry is not None else _default


class PhaseTimer:
    """Times a region with :func:`time.perf_counter`; optionally also
    records it as a span.

    This is how :meth:`RecencyReporter.report` keeps its
    :class:`~repro.core.report.ReportTimings` contract on the disabled path
    (durations are always measured) while producing real spans when
    telemetry is on: the timings object becomes a thin view over whatever
    this timer measured.
    """

    __slots__ = ("duration", "span", "_start", "_ctx")

    def __init__(self, tel, name: str, **attributes: Any) -> None:
        self._ctx = tel.tracer.span(name, **attributes) if tel.enabled else NULL_SPAN
        self.span = NULL_SPAN  # the live Span once entered (NULL_SPAN when disabled)
        self.duration = 0.0
        self._start = 0.0

    def __enter__(self) -> "PhaseTimer":
        self.span = self._ctx.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._start
        self._ctx.__exit__(exc_type, exc, tb)

    def set_attribute(self, key: str, value: Any) -> None:
        self.span.set_attribute(key, value)


__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Instrument",
    "INSTRUMENTS",
    "ProfileLog",
    "slow_query_threshold",
    "get_default",
    "set_default",
    "enable",
    "disable",
    "resolve",
    "PhaseTimer",
    "DEFAULT_BUCKETS",
    "COUNT_BUCKETS",
    "LAG_BUCKETS",
    "SERVE_BUCKETS",
    "QUALITY_BUCKETS",
]
