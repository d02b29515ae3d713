"""``QueryService``: concurrent, multi-tenant recency-report serving.

This is the paper's front door grown to production shape: a user submits
SQL (plus a tenant id) and gets back rows *and* the auto-generated
recency report from one snapshot-consistent read. Every request:

1. passes per-tenant admission (:class:`~repro.serve.quota.TenantQuotas`:
   token-bucket rate + inflight ceiling) — rejected requests never wait
   for a slot;
2. passes the :class:`~repro.serve.pool.WorkerPool` slot gate — a full
   wait line sheds the request immediately with a retry hint, and a
   deadline that passes while it waits answers 504 before anything runs;
3. runs on the thread that read it, with a slot-private
   :class:`~repro.core.report.RecencyReporter` whose ``report()`` opens a
   per-request copy-on-write snapshot (``Database.snapshot_view``), so the
   rows and their recency report are consistent with each other and
   isolated from the ingest running beside them;
4. lands in the observatory: a ``serve.request`` span (child of the span
   open on that thread — the server's ``http.request``), the
   ``trac_serve_request_seconds`` histogram with the report's trace id as
   exemplar, outcome counters, and queue/inflight gauges.

The service is transport-agnostic — :meth:`query` is the whole request,
:meth:`handle_http` the whole tenant front end short of the socket — and
the observatory server mounts it at ``POST /v1/query``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, NamedTuple, Optional, Tuple

from repro.core.report import RecencyReporter
from repro.errors import TracError, check_number
from repro.obs import instrument as obs
from repro.obs.dashboard import source_rows
from repro.obs.events import EVT_SERVE_REJECTED
from repro.obs.metrics import histogram_quantile
from repro.serve.pool import DeadlineExceeded, QueueFull, WorkerPool
from repro.serve.quota import QuotaExceeded, TenantQuotas

#: Span name for one served query request.
SPAN_SERVE = "serve.request"

#: Default tenant when a request names none.
DEFAULT_TENANT = "default"

#: Methods a request may name, the default first (``focused_hardcoded``
#: needs a pre-built plan, and no plan crosses the front door).
SERVED_METHODS = ("focused", "naive")

#: Ceiling on a request's ``deadline_seconds``.
MAX_DEADLINE = 30.0

#: req/s is computed over this sliding window of completions (seconds).
RATE_WINDOW_SECONDS = 10.0

#: A served reporter keeps each query's relevance plan on its cached
#: resolution (``RecencyReporter(plan_cache_size=)`` is on/off).
PLAN_CACHE_SIZE = 128


class ServeConfig(NamedTuple):
    """Tunables for one :class:`QueryService` (all keyword-overridable; a
    ``NamedTuple``, not a dataclass: importing ``dataclasses`` costs every
    process that imports ``repro.serve`` ~0.7 MB and a slower collector)."""

    workers: int = 8
    queue_depth: int = 64
    default_deadline: float = 5.0
    tenant_rate: float = 200.0
    tenant_burst: float = 400.0
    max_inflight: int = 64
    #: Annotate every served row with its provenance + quality block.
    lineage: bool = False


class QueryService:
    """Serves recency reports through a slot gate of per-slot reporters.

    Parameters
    ----------
    source:
        What the reports come from. A :class:`~repro.backends.base.Backend`:
        every slot gets a private reporter over it (serve concurrently from
        a :class:`~repro.backends.memory.MemoryBackend` — its snapshots are
        copy-on-write views opened under the backend's lock, so readers never
        race ingest). A :class:`~repro.grid.simulator.GridSimulator`: the
        same over the backend it is loading, plus its ``sources`` registry,
        so every answer names the sources known to be degraded. A
        :class:`~repro.federation.FederationCoordinator`: shared by the
        slots (it locks its own state); the answer is the federated report
        — recency side and completeness envelope, no user-query rows.
    config:
        A :class:`ServeConfig`; defaults apply when omitted.
    telemetry:
        Explicit :class:`~repro.obs.Telemetry`; ``None`` follows the
        process default. Serving works fine with telemetry disabled —
        outcome counts are tracked on the service itself either way.
    """

    def __init__(
        self,
        source,
        config: Optional[ServeConfig] = None,
        telemetry: Optional[object] = None,
    ) -> None:
        self.source = source
        self.config = config or ServeConfig()
        check_number("default_deadline", self.config.default_deadline, 0, low_open=True)
        self.telemetry = telemetry
        self.quotas = TenantQuotas(
            rate=self.config.tenant_rate,
            burst=self.config.tenant_burst,
            max_inflight=self.config.max_inflight,
        )
        self.pool = WorkerPool(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            worker_state_factory=self._make_reporter,
        )
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(
            ("ok", "error", "deadline", "rejected_quota", "rejected_inflight", "rejected_queue"), 0
        )
        self._completions: Deque[float] = deque()
        self._closed = False

    def _make_reporter(self):
        """A slot's reporter. Over a backend or a simulator: a private
        :class:`RecencyReporter` (no cross-thread state; the normal /
        exceptional splits travel in the response body). Over a coordinator:
        the coordinator itself (the gate's ``stop()`` ``close()``s every
        slot's state: for the coordinator that only drops pooled sockets it
        reopens on demand)."""
        source = self.source
        if hasattr(source, "report"):
            return source
        return RecencyReporter(
            getattr(source, "backend", source),
            telemetry=self.telemetry,
            plan_cache_size=PLAN_CACHE_SIZE,
            sources=getattr(source, "sources", None),
            lineage=self.config.lineage,
        )

    # -- the front door ------------------------------------------------------

    def query(
        self,
        sql: str,
        tenant: str = DEFAULT_TENANT,
        method: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Validate, admit and run one query on the calling thread; returns
        the response document (what the HTTP layer calls).

        The request is checked once — before it costs a quota token, a wait
        or a slot. Raises :class:`~repro.errors.TracError` for a malformed
        request or bad SQL, :class:`~repro.serve.quota.QuotaExceeded` or
        :class:`~repro.serve.pool.QueueFull` when the request is shed at
        admission, and :class:`~repro.serve.pool.DeadlineExceeded` when the
        deadline (clamped to ``(0, MAX_DEADLINE]``) passes while it waits for
        a slot; a report that got a slot runs to completion.
        """
        if self._closed:
            raise TracError("query service is closed")
        if not isinstance(sql, str) or not sql.strip():
            raise TracError("'sql' must be a non-empty string")
        if not isinstance(tenant, str) or not tenant:
            raise TracError("'tenant' must be a non-empty string")
        if method is None:
            method = SERVED_METHODS[0]
        elif method not in SERVED_METHODS:
            raise TracError(f"'method' must be one of {SERVED_METHODS}, got {method!r}")
        budget = self.config.default_deadline
        if deadline_seconds is not None:
            try:
                budget = min(float(deadline_seconds), MAX_DEADLINE)
            except (TypeError, ValueError):
                raise TracError("'deadline_seconds' must be a number") from None
            if not budget > 0:  # also refuses NaN
                raise TracError("'deadline_seconds' must be positive")
        try:
            self.quotas.admit(tenant)
        except QuotaExceeded as exc:
            self._record_rejection(tenant, exc.kind)
            raise
        arrived = time.monotonic()
        outcome: Optional[str] = "error"
        try:
            document = self.pool.run(
                lambda reporter: self._execute(reporter, sql, method, tenant, arrived),
                deadline=arrived + budget,
            )
            outcome = "ok"
            return document
        except QueueFull as exc:
            outcome = None  # counted as a rejection
            self._record_rejection(tenant, exc.kind)
            raise
        except DeadlineExceeded:
            outcome = "deadline"
            raise
        finally:
            self.quotas.release(tenant)
            self._leave(tenant, outcome)

    def handle_http(self, raw: bytes) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """``POST /v1/query`` — the tenant front end, transport-free: from
        the raw request body to ``(status, document, extra headers)``.

        Body: ``{"sql": ..., "tenant"?: ..., "method"?: ...,
        "deadline_seconds"?: ...}``. 200 with rows + recency report + trace
        id; 400 for malformed requests or bad SQL; 429 with ``Retry-After``
        when quotas or the gate's wait line shed the request; 504 when the
        deadline passes while it waits for a slot.
        """
        try:
            try:
                doc = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise TracError(f"request body is not valid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise TracError("request body must be a JSON object")
            document = self.query(
                doc.get("sql"),
                tenant=doc.get("tenant", DEFAULT_TENANT),
                method=doc.get("method"),
                deadline_seconds=doc.get("deadline_seconds"),
            )
            return 200, document, {}
        except (QuotaExceeded, QueueFull) as exc:
            retry_after = f"{max(exc.retry_after, 0.05):.3f}"
            return 429, {"error": str(exc)}, {"Retry-After": retry_after}
        except DeadlineExceeded as exc:
            return 504, {"error": str(exc)}, {}
        except TracError as exc:
            return 400, {"error": str(exc)}, {}

    # -- execution (inside the gate) -----------------------------------------

    def _execute(
        self, reporter: RecencyReporter, sql: str, method: str, tenant: str, arrived: float
    ) -> Dict[str, Any]:
        queue_wait = time.monotonic() - arrived
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            report = self._traced_report(tel, reporter, sql, method, tenant, queue_wait)
        else:
            report = reporter.report(sql, method=method)
        document = report.to_dict()  # a fresh dict: the envelope goes on in place
        document["tenant"] = tenant
        document["queue_wait_seconds"] = queue_wait
        return document

    def _traced_report(
        self, tel, reporter: RecencyReporter, sql: str, method: str, tenant: str, queue_wait: float
    ):
        """``reporter.report`` inside a ``serve.request`` span, counted and
        timed in the serving metrics."""
        self._set_gauges(tel)
        start = time.perf_counter()
        outcome, trace_id = "error", None
        try:
            # Opened on the thread that read the request: the span open there
            # (the server's http.request) is its parent.
            with tel.tracer.span(SPAN_SERVE, tenant=tenant, method=method) as span:
                span.set_attribute("queue_wait_s", round(queue_wait, 6))
                report = reporter.report(sql, method=method)
                # A federated report ran the recency side only: no result.
                rows = report.result.rows if report.result is not None else ()
                span.set_attribute("rows", len(rows))
            outcome, trace_id = "ok", report.trace_id
            return report
        finally:
            seconds = time.perf_counter() - start
            tel.count(obs.SERVE_REQUESTS, tenant=tenant, outcome=outcome)
            tel.observe(obs.SERVE_REQUEST_SECONDS, seconds, trace_id=trace_id, tenant=tenant)

    # -- accounting ----------------------------------------------------------

    def _record_rejection(self, tenant: str, kind: str) -> None:
        with self._lock:
            self._counts[f"rejected_{kind}"] += 1  # kind: quota, inflight or queue
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.SERVE_REJECTIONS, tenant=tenant, reason=kind)
            tel.emit(EVT_SERVE_REJECTED, severity="warning", tenant=tenant, reason=kind)

    def _leave(self, tenant: str, outcome: Optional[str]) -> None:
        """An admitted request's exit, its quota already released: count its
        outcome (``None``: shed, counted as a rejection), note a completion
        in the req/s window and refresh the gauges."""
        if outcome is not None:
            with self._lock:
                self._counts[outcome] += 1
                if outcome == "ok":
                    now = time.monotonic()
                    self._completions.append(now)
                    self._prune_completions(now)
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            if outcome == "deadline":
                tel.count(obs.SERVE_REJECTIONS, tenant=tenant, reason="deadline")
            self._set_gauges(tel)

    def _set_gauges(self, tel) -> None:
        """Written on entering the gate and on leaving it, so neither gauge
        keeps a burst's value after the burst; read and written under one
        lock, so the last write reads the last state."""
        with self._lock:
            tel.set(obs.SERVE_QUEUE_DEPTH, self.pool.queued())
            tel.set(obs.SERVE_INFLIGHT, self.quotas.total_inflight())

    def _prune_completions(self, now: float) -> None:
        horizon = now - RATE_WINDOW_SECONDS
        while self._completions and self._completions[0] < horizon:
            self._completions.popleft()

    # -- introspection -------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def requests_per_second(self) -> float:
        """Completed-OK rate over the last :data:`RATE_WINDOW_SECONDS`."""
        now = time.monotonic()
        with self._lock:
            self._prune_completions(now)
            if not self._completions:
                return 0.0
            # Floor the divisor at 1s so one fresh completion reads as
            # ~1 req/s instead of an absurd burst extrapolation.
            span = max(now - self._completions[0], 1.0)
            return len(self._completions) / min(span, RATE_WINDOW_SECONDS)

    def latency_quantile_ms(self, q: float = 0.99) -> Optional[float]:
        """Latency quantile in milliseconds from the
        ``trac_serve_request_seconds`` histogram, merged across tenants
        (``None`` when telemetry is disabled or nothing served yet)."""
        tel = obs.resolve(self.telemetry)
        if not tel.enabled:
            return None
        merged: Dict[float, int] = {}
        for instrument in tel.metrics.collect():
            if instrument.name == obs.SERVE_REQUEST_SECONDS:  # a histogram, by declaration
                for bound, count in instrument.bucket_counts():
                    merged[bound] = merged.get(bound, 0) + count
        value = histogram_quantile(sorted(merged.items()), q)  # None when nothing was served
        return None if value is None else value * 1000.0

    def status(self) -> Dict[str, Any]:
        """The ``/status`` document of a served database: a row per source in the
        heartbeat table the queries answer from, the newest heartbeat as clock."""
        recency = dict(self.source.heartbeat_rows())
        now = max(recency.values(), default=0.0)
        return {"now": now, "sources": source_rows(recency, now)}

    def serving_status(self) -> Dict[str, Any]:
        """The ``serving`` block of the ``/status`` document."""
        pool_stats = self.pool.stats()
        return {
            "workers": pool_stats["workers"],
            "queue_depth": pool_stats["queue_depth"],
            "queue_capacity": pool_stats["queue_capacity"],
            "inflight": self.quotas.total_inflight(),
            "req_per_s": round(self.requests_per_second(), 2),
            "p99_ms": self.latency_quantile_ms(0.99),
            "requests": self.counts(),
            "tenants": self.quotas.snapshot(),
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Stop accepting work, wait for the reports in flight and close
        every slot's reporter."""
        self._closed = True
        self.pool.stop()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

