"""The observatory HTTP server: live, scrapeable telemetry endpoints.

A dependency-free threaded HTTP server (stdlib ``http.server`` only)
exposing one :class:`~repro.obs.instrument.Telemetry` instance:

=========== ==================================== ===========================
path        content type                         body
=========== ==================================== ===========================
/metrics    text/plain; version=0.0.4            Prometheus exposition of
                                                 every registered metric
                                                 (histograms carry trace-id
                                                 exemplars)
/healthz    application/json                     overall status, per-source
                                                 health entries, breaker
                                                 states, degraded list
/spans      application/x-ndjson                 recent finished spans, one
                                                 JSON object per line
                                                 (``?limit=N``, default 500)
/events     application/x-ndjson                 recent events, one JSON
                                                 object per line
                                                 (``?limit=N``, default 500)
/profile    application/json                     recent per-operator query
                                                 profiles (``?limit=N``)
/trace/<id> application/json                     every span, event and
                                                 profile stamped with the
                                                 32-hex trace id
/provenance/<id> application/json                the provenance record
                                                 (row-level source sets +
                                                 quality summary) of the
                                                 report with that trace id
/query      application/json                     run a recency report
                                                 (``?sql=...&method=...``;
                                                 requires a wired reporter)
/status     application/json                     full dashboard payload
                                                 (what ``trac top`` polls)
/v1/query   application/json                     POST: serve one query with
                                                 admission control, tenant
                                                 quotas and deadlines
                                                 (requires a wired
                                                 :class:`~repro.serve.QueryService`)
=========== ==================================== ===========================

A malformed ``limit`` (non-numeric, negative, or absurdly large) returns
HTTP 400 rather than being silently ignored. Unknown paths return 404
with a JSON body listing the endpoints. Method discipline is strict:
a known path hit with the wrong verb gets 405 + ``Allow`` (HEAD works
everywhere GET does), a POST without ``Content-Length`` gets 411, a body
over :data:`MAX_BODY_BYTES` gets 413, malformed JSON gets 400 — never a
traceback.

**Distributed tracing.** When the exposed telemetry is enabled, every
request runs inside an ``http.request`` span. A caller-supplied W3C
``traceparent`` header becomes that span's remote parent, so spans
produced while serving the request — including a full recency report via
``/query`` — share the caller's trace id; per-endpoint latency lands in
the ``trac_http_request_seconds`` histogram with the trace id as an
exemplar.

The server runs on daemon threads (``ThreadingHTTPServer``) so it never
blocks interpreter exit; ``port=0`` binds an ephemeral port, exposed via
:attr:`ObservatoryServer.port`. Start one with ``obs.serve()``, ``trac
serve``, or ``trac simulate --serve PORT``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.export import prometheus_text, write_spans_jsonl
from repro.obs.events import write_events_jsonl
from repro.obs.instrument import record_http_request
from repro.obs.trace import extract_context

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"
NDJSON_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"

_DEFAULT_TAIL = 500

#: Upper bound on ``?limit=`` values; anything larger is a client error.
_MAX_LIMIT = 1_000_000

_ENDPOINTS = [
    "/metrics",
    "/healthz",
    "/spans",
    "/events",
    "/profile",
    "/trace/<id>",
    "/provenance/<trace_id>",
    "/query",
    "/status",
    "/v1/query",
]

#: Allowed methods per fixed path (``/trace/<id>`` is handled by prefix).
#: A known path hit with any other method gets 405 + ``Allow``, never a
#: traceback; HEAD is honoured everywhere GET is (headers only).
_METHODS = {
    "/metrics": ("GET",),
    "/healthz": ("GET",),
    "/spans": ("GET",),
    "/events": ("GET",),
    "/profile": ("GET",),
    "/query": ("GET",),
    "/status": ("GET",),
    "/v1/query": ("POST",),
}

#: Hard cap on accepted request bodies; larger gets 413.
MAX_BODY_BYTES = 1024 * 1024


class _BadRequest(Exception):
    """Client error surfaced as HTTP 400 (never a handler-thread crash)."""


class _HttpError(Exception):
    """Client error with an explicit status (405, 411, 413, ...) and
    optional extra response headers (e.g. ``Allow``, ``Retry-After``)."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _ObservatoryHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server tuned for per-request connections.

    Serving traffic arrives as one HTTP/1.0 connection per request, so
    connection-establishment bursts hit the listen backlog directly; the
    socketserver default of 5 drops SYNs under a few hundred req/s and
    clients see timeouts instead of 429s. 128 rides out the burst while
    the accept loop catches up.
    """

    request_queue_size = 128
    daemon_threads = True


class _ObservatoryHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`ObservatoryServer` via a
    per-instance subclass (the stdlib API offers no cleaner hook)."""

    observatory: "ObservatoryServer"  # set on the generated subclass
    server_version = "TracObservatory/1.0"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapers poll every few seconds; stderr must stay quiet

    def _send(
        self,
        status: int,
        content_type: str,
        body: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> int:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)
        return status

    def _send_json(
        self,
        status: int,
        doc: object,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> int:
        return self._send(
            status, JSON_CONTENT_TYPE, json.dumps(doc, default=str), extra_headers
        )

    def _read_body(self) -> bytes:
        """Read and bound the request body: 411 without a Content-Length,
        400 when it isn't a number, 413 when it exceeds the cap."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            raise _HttpError(411, "Content-Length header is required")
        try:
            length = int(raw)
        except (TypeError, ValueError):
            raise _BadRequest(f"Content-Length must be an integer, got {raw!r}") from None
        if length < 0:
            raise _BadRequest(f"Content-Length must be >= 0, got {length}")
        if length > MAX_BODY_BYTES:
            # Refuse without reading: the connection closes after the 413
            # (a client mid-upload sees a reset — the HTTP norm for this).
            self.close_connection = True
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        return self.rfile.read(length)

    def _limit(self, query: Dict[str, list]) -> int:
        raw = query.get("limit", [_DEFAULT_TAIL])[0]
        try:
            limit = int(raw)
        except (TypeError, ValueError):
            raise _BadRequest(f"limit must be an integer, got {raw!r}") from None
        if limit < 0:
            raise _BadRequest(f"limit must be >= 0, got {limit}")
        if limit > _MAX_LIMIT:
            raise _BadRequest(f"limit must be <= {_MAX_LIMIT}, got {limit}")
        return limit

    def _handle(self, method: str) -> None:
        obs = self.observatory
        tel = obs.telemetry
        parsed = urlparse(self.path)
        query = parse_qs(parsed.query)
        path = parsed.path.rstrip("/") or "/"
        if not tel.enabled:
            self._dispatch(method, path, parsed, query)
            return
        # Request-scoped root span: a caller-supplied traceparent header
        # makes its remote span this one's parent, so everything recorded
        # while serving — including a /v1/query report — joins its trace.
        parent = extract_context(self.headers)
        start = time.perf_counter()
        with tel.tracer.span(
            "http.request", parent=parent, path=path, method=method
        ) as span:
            status = self._dispatch(method, path, parsed, query)
            span.set_attribute("status", status)
            trace_id = span.trace_id_hex
        record_http_request(
            tel, path, status, time.perf_counter() - start, trace_id=trace_id
        )

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._handle("GET")

    def do_HEAD(self) -> None:  # noqa: N802
        self._handle("GET")  # identical routing; _send withholds the body

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    def do_PATCH(self) -> None:  # noqa: N802
        self._handle("PATCH")

    def _check_method(self, method: str, path: str) -> None:
        """405 (with ``Allow``) for a known path hit with the wrong verb."""
        allowed = _METHODS.get(path)
        if allowed is None and (
            path.startswith("/trace/") or path.startswith("/provenance/")
        ):
            allowed = ("GET",)
        if allowed is not None and method not in allowed:
            raise _HttpError(
                405,
                f"method {method} is not allowed on {path}",
                headers={"Allow": ", ".join(allowed)},
            )

    def _dispatch(self, method: str, path: str, parsed, query: Dict[str, list]) -> int:
        """Route one request; returns the HTTP status actually sent."""
        obs = self.observatory
        try:
            self._check_method(method, path)
            if path == "/v1/query":
                return self._serve_query()
            if path == "/metrics":
                return self._send(
                    200, PROMETHEUS_CONTENT_TYPE, prometheus_text(obs.telemetry.metrics)
                )
            if path == "/healthz":
                return self._send(
                    200, JSON_CONTENT_TYPE, json.dumps(obs.healthz(), sort_keys=True)
                )
            if path == "/spans":
                import io

                buffer = io.StringIO()
                spans = obs.telemetry.tracer.finished_spans()
                limit = self._limit(query)
                write_spans_jsonl(spans[-limit:] if limit else [], buffer)
                return self._send(200, NDJSON_CONTENT_TYPE, buffer.getvalue())
            if path == "/events":
                import io

                buffer = io.StringIO()
                write_events_jsonl(
                    obs.telemetry.events.tail(self._limit(query)), buffer
                )
                return self._send(200, NDJSON_CONTENT_TYPE, buffer.getvalue())
            if path == "/profile":
                profiles = obs.profiles(self._limit(query))
                return self._send(200, JSON_CONTENT_TYPE, json.dumps(profiles))
            if path.startswith("/trace/"):
                trace_id = path[len("/trace/") :].strip().lower()
                doc = obs.trace(trace_id)
                if doc is None:
                    return self._send(
                        404,
                        JSON_CONTENT_TYPE,
                        json.dumps({"error": f"no telemetry for trace {trace_id!r}"}),
                    )
                return self._send(200, JSON_CONTENT_TYPE, json.dumps(doc, default=str))
            if path.startswith("/provenance/"):
                trace_id = path[len("/provenance/") :].strip().lower()
                doc = obs.provenance(trace_id)
                if doc is None:
                    return self._send(
                        404,
                        JSON_CONTENT_TYPE,
                        json.dumps({"error": f"no provenance for trace {trace_id!r}"}),
                    )
                return self._send(200, JSON_CONTENT_TYPE, json.dumps(doc, default=str))
            if path == "/query":
                return self._query(query)
            if path == "/status":
                return self._send(
                    200, JSON_CONTENT_TYPE, json.dumps(obs.status(), sort_keys=True)
                )
            body = json.dumps(
                {"error": f"unknown path {parsed.path!r}", "endpoints": _ENDPOINTS}
            )
            return self._send(404, JSON_CONTENT_TYPE, body)
        except _BadRequest as exc:
            try:
                return self._send(
                    400, JSON_CONTENT_TYPE, json.dumps({"error": str(exc)})
                )
            except Exception:
                return 400
        except _HttpError as exc:
            try:
                return self._send_json(
                    exc.status, {"error": str(exc)}, extra_headers=exc.headers
                )
            except Exception:
                return exc.status
        except BrokenPipeError:
            return 499  # scraper hung up mid-response
        except Exception as exc:  # observability must not crash the host
            try:
                return self._send(
                    500,
                    JSON_CONTENT_TYPE,
                    json.dumps({"error": f"{type(exc).__name__}: {exc}"}),
                )
            except Exception:
                return 500

    def _query(self, query: Dict[str, list]) -> int:
        """``/query?sql=...&method=...`` — serve one recency report."""
        obs = self.observatory
        if obs.reporter is None:
            return self._send(
                503,
                JSON_CONTENT_TYPE,
                json.dumps({"error": "no reporter wired to this observatory"}),
            )
        sql_values = query.get("sql")
        if not sql_values or not sql_values[0].strip():
            raise _BadRequest("missing required query parameter 'sql'")
        sql = sql_values[0]
        method = query.get("method", ["focused"])[0]
        from repro.errors import TracError

        try:
            report = obs.reporter.report(sql, method=method)
        except TracError as exc:
            raise _BadRequest(str(exc)) from exc
        return self._send_json(200, report.to_dict())

    def _serve_query(self) -> int:
        """``POST /v1/query`` — mount point of the wired query service,
        which owns the request validation and the status discipline; only
        the transport checks (411/413, in :meth:`_read_body`) live here."""
        service = self.observatory.query_service
        if service is None:
            return self._send_json(
                503, {"error": "no query service wired to this observatory"}
            )
        status, doc, headers = service.handle_http(self._read_body())
        return self._send_json(status, doc, headers)


class ObservatoryServer:
    """Threaded HTTP server exposing one telemetry instance.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.obs.instrument.Telemetry` to expose.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port.
    health:
        Optional :class:`~repro.core.health.SourceHealth` for ``/healthz``.
    breakers:
        Optional zero-argument callable returning ``{source: state}`` for
        the supervisor's circuit breakers.
    status_provider:
        Optional zero-argument callable returning the ``/status`` payload
        (the dashboard document); defaults to a minimal summary.
    reporter:
        Optional :class:`~repro.core.report.RecencyReporter`; when wired,
        ``/query?sql=...`` serves full recency reports over HTTP (503
        otherwise).
    query_service:
        Optional :class:`~repro.serve.QueryService`; when wired, ``POST
        /v1/query`` serves admission-controlled, quota'd, deadline-bounded
        recency reports (503 otherwise) and ``/status`` gains a
        ``serving`` block.
    """

    def __init__(
        self,
        telemetry,
        host: str = "127.0.0.1",
        port: int = 0,
        health=None,
        breakers: Optional[Callable[[], Dict[str, str]]] = None,
        status_provider: Optional[Callable[[], dict]] = None,
        reporter=None,
        query_service=None,
    ) -> None:
        self.telemetry = telemetry
        self.health = health
        self.breakers = breakers
        self.status_provider = status_provider
        self.reporter = reporter
        self.query_service = query_service
        handler = type(
            "BoundObservatoryHandler", (_ObservatoryHandler,), {"observatory": self}
        )
        self._httpd = _ObservatoryHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ObservatoryServer":
        """Serve on a daemon thread; returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"trac-observatory-{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "ObservatoryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- payloads -----------------------------------------------------------

    def healthz(self) -> dict:
        """The ``/healthz`` document."""
        out: dict = {"status": "ok"}
        if self.health is not None:
            snapshot = self.health.to_dict()
            out["sources"] = snapshot
            degraded = sorted(
                sid for sid, entry in snapshot.items() if entry["status"] == "degraded"
            )
            out["degraded"] = degraded
            if degraded:
                out["status"] = "degraded"
        else:
            out["sources"] = {}
            out["degraded"] = []
        if self.breakers is not None:
            out["breakers"] = dict(self.breakers())
        events = self.telemetry.events
        out["events"] = {"retained": len(events), "total": events.total}
        return out

    def status(self) -> dict:
        """The ``/status`` document (dashboard payload)."""
        if self.status_provider is not None:
            doc = dict(self.status_provider())
        else:
            doc = {"healthz": self.healthz()}
        if self.query_service is not None:
            doc.setdefault("serving", self.query_service.serving_status())
        return doc

    def profiles(self, limit: int = _DEFAULT_TAIL) -> list:
        """The ``/profile`` document: recent query profiles, oldest first."""
        log = getattr(self.telemetry, "profiles", None)
        if log is None:
            return []
        recent = log.tail(limit) if limit else []
        return [profile.to_dict() for profile in recent]

    def trace(self, trace_id: str) -> Optional[dict]:
        """The ``/trace/<id>`` document, or None when the id matched
        no span, event, or profile (an unknown or expired trace)."""
        tracer = self.telemetry.tracer
        spans = [span.to_dict() for span in tracer.spans_for_trace(trace_id)]
        events = [
            event.to_dict() for event in self.telemetry.events.for_trace(trace_id)
        ]
        log = getattr(self.telemetry, "profiles", None)
        profiles = (
            [profile.to_dict() for profile in log.for_trace(trace_id)]
            if log is not None
            else []
        )
        if not spans and not events and not profiles:
            return None
        return {
            "trace_id": trace_id,
            "spans": spans,
            "events": events,
            "profiles": profiles,
        }

    def provenance(self, trace_id: str) -> Optional[dict]:
        """The ``/provenance/<trace_id>`` document: the provenance records
        (row-level source sets + quality summary) of the report(s) stamped
        with that trace id, or None when none is retained (reports run
        without lineage enabled, or the record aged out of the ring)."""
        log = getattr(self.telemetry, "provenance", None)
        if log is None:
            return None
        records = [record.to_dict() for record in log.for_trace(trace_id)]
        if not records:
            return None
        return {"trace_id": trace_id, "provenance": records}

    def __repr__(self) -> str:
        running = "running" if self._thread is not None else "stopped"
        return f"ObservatoryServer({self.url}, {running})"


def serve(
    telemetry=None,
    host: str = "127.0.0.1",
    port: int = 0,
    health=None,
    breakers: Optional[Callable[[], Dict[str, str]]] = None,
    status_provider: Optional[Callable[[], dict]] = None,
    reporter=None,
    query_service=None,
) -> ObservatoryServer:
    """Start an :class:`ObservatoryServer` for ``telemetry`` (the process
    default when omitted) and return it already serving."""
    if telemetry is None:
        from repro.obs.instrument import get_default

        telemetry = get_default()
    server = ObservatoryServer(
        telemetry,
        host=host,
        port=port,
        health=health,
        breakers=breakers,
        status_provider=status_provider,
        reporter=reporter,
        query_service=query_service,
    )
    return server.start()
