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
produced while serving the request — including the ``serve.request`` and
``trac.report`` spans of a ``POST /v1/query``, which run on the thread
that read the request — share the caller's trace id; per-endpoint latency lands in the
``trac_http_request_seconds`` histogram with the trace id as an exemplar.

**Connections.** HTTP/1.1 with keep-alive: one handler thread serves a
connection's requests one after another, and every response carries
``Content-Length`` and leaves in a single write (``TCP_NODELAY`` set).
The server owns a connection's lifetime: it closes on ``Connection:
close`` or an HTTP/1.0 request, after a response sent before the request
body was read (the unread bytes must never be parsed as the next
request), after :attr:`ObservatoryServer.idle_timeout` idle seconds, and
on :meth:`ObservatoryServer.stop`. ``docs/SERVING.md`` tables the rules.

Handler threads are daemons, so the server never blocks interpreter exit;
``port=0`` binds an ephemeral port, exposed via
:attr:`ObservatoryServer.port`. :class:`repro.deploy.Deployment` starts the
one behind ``trac serve`` and ``trac simulate --serve PORT``.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.obs.export import prometheus_text
from repro.obs.events import write_jsonl
from repro.obs.instrument import HTTP_REQUEST_SECONDS
from repro.obs.trace import extract_context

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"
NDJSON_CONTENT_TYPE = "application/x-ndjson; charset=utf-8"

_DEFAULT_TAIL = 500

#: Upper bound on ``?limit=`` values; anything larger is a client error.
_MAX_LIMIT = 1_000_000

#: Endpoint -> its allowed method; a known endpoint hit with any other
#: gets 405 + ``Allow``, never a traceback. HEAD is honoured everywhere
#: GET is (headers only); the two ``<id>`` entries match by prefix.
_ROUTES = {
    "/metrics": "GET",
    "/healthz": "GET",
    "/spans": "GET",
    "/events": "GET",
    "/profile": "GET",
    "/trace/<id>": "GET",
    "/provenance/<trace_id>": "GET",
    "/status": "GET",
    "/v1/query": "POST",
}

#: Hard cap on accepted request bodies; larger gets 413.
MAX_BODY_BYTES = 1024 * 1024

#: Seconds ``stop()`` waits for the accept loop, then for requests in flight.
_STOP_GRACE = 5.0


class _HttpError(Exception):
    """Client error with an explicit status (405, 411, 413, ...) and
    optional extra response headers (e.g. ``Allow``, ``Retry-After``);
    surfaced as that response, never a handler-thread crash."""

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = headers or {}


class _ObservatoryHTTPServer(ThreadingHTTPServer):
    """One daemon thread per *connection*, registered with the owning
    :class:`ObservatoryServer` until it closes. (The stdlib mix-in forgets
    its daemon threads: harmless while a connection is one request, but a
    "stopped" server must not keep answering on established sockets.)

    Keep-alive clients connect once; HTTP/1.0 and ``Connection: close``
    clients (urllib, ``trac top``) still connect per request, and a burst
    of those overflows the socketserver default backlog of 5 (dropped
    SYNs: clients see timeouts, not 429s).
    """

    request_queue_size = 128

    def process_request(self, request, client_address) -> None:
        # On the accept thread, before the handler runs: a stop() that has
        # joined the accept loop knows every connection.
        owner = self.RequestHandlerClass.observatory
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"trac-observatory-{owner.port}-conn",
            daemon=True,
        )
        with owner._lock:
            owner.accepted += 1
            owner._connections[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        owner = self.RequestHandlerClass.observatory
        with owner._lock:
            owner._connections.pop(request, None)
        super().shutdown_request(request)


class _ObservatoryHandler(BaseHTTPRequestHandler):
    """Request handler bound to one :class:`ObservatoryServer` via a
    per-instance subclass (the stdlib API offers no cleaner hook). One
    instance serves one connection: :meth:`_handle` runs once per request."""

    observatory: "ObservatoryServer"  # set on the generated subclass
    server_version = "TracObservatory/1.0"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

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
        if self._body_unread or self.observatory.stopping:
            self.close_connection = True
        lines = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(payload)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in (extra_headers or {}).items())
        if self.close_connection:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        # One write: a header segment followed by a body segment on a
        # kept-alive socket is the Nagle / delayed-ACK stall.
        self.wfile.write(head if self.command == "HEAD" else head + payload)
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
        400 when it isn't a number, 413 when it exceeds the cap. Any of
        those leaves the body unread, so the response closes the
        connection (a client mid-upload sees a reset, the HTTP norm)."""
        raw = self.headers.get("Content-Length")
        self._body_unread = True
        if raw is None:
            raise _HttpError(411, "Content-Length header is required")
        try:
            length = int(raw)
        except (TypeError, ValueError):
            raise _HttpError(400, f"Content-Length must be an integer, got {raw!r}") from None
        if length < 0:
            raise _HttpError(400, f"Content-Length must be >= 0, got {length}")
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
            )
        body = self.rfile.read(length)
        self._body_unread = False
        return body

    def _limit(self, query: Dict[str, list]) -> int:
        raw = query.get("limit", [_DEFAULT_TAIL])[0]
        try:
            limit = int(raw)
        except (TypeError, ValueError):
            raise _HttpError(400, f"limit must be an integer, got {raw!r}") from None
        if limit < 0:
            raise _HttpError(400, f"limit must be >= 0, got {limit}")
        if limit > _MAX_LIMIT:
            raise _HttpError(400, f"limit must be <= {_MAX_LIMIT}, got {limit}")
        return limit

    def _handle(self) -> None:
        """Serve one request of this connection."""
        tel = self.observatory.telemetry
        # HEAD routes as GET; _send withholds the body.
        method = "GET" if self.command == "HEAD" else self.command
        # Until _read_body consumes it, a declared body is still in the
        # stream, and a response sent now must close the connection.
        self._body_unread = (
            self.headers.get("Content-Length", "0").strip() != "0"
            or "Transfer-Encoding" in self.headers
        )
        if self.request_version != "HTTP/1.1":
            self.close_connection = True  # HTTP/1.0: one request, as ever
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
        elapsed = time.perf_counter() - start
        tel.observe(
            HTTP_REQUEST_SECONDS, elapsed, trace_id=trace_id, path=path, status=str(status)
        )

    do_GET = do_HEAD = do_POST = do_PUT = do_DELETE = do_PATCH = _handle  # noqa: N815

    def _dispatch(self, method: str, path: str, parsed, query: Dict[str, list]) -> int:
        """Route one request; returns the HTTP status actually sent."""
        obs = self.observatory
        try:
            # A known endpoint hit with the wrong verb: 405 + ``Allow``.
            prefixed = path.startswith(("/trace/", "/provenance/"))
            allowed = "GET" if prefixed else _ROUTES.get(path)
            if allowed is not None and method != allowed:
                raise _HttpError(
                    405, f"method {method} is not allowed on {path}", headers={"Allow": allowed}
                )
            if path == "/v1/query":
                return self._serve_query()
            if path == "/metrics":
                return self._send(
                    200, PROMETHEUS_CONTENT_TYPE, prometheus_text(obs.telemetry.metrics)
                )
            if path in ("/healthz", "/status"):
                doc = obs.healthz() if path == "/healthz" else obs.status()
                return self._send(200, JSON_CONTENT_TYPE, json.dumps(doc, sort_keys=True))
            if path in ("/spans", "/events"):
                buffer = io.StringIO()
                log = obs.telemetry.tracer if path == "/spans" else obs.telemetry.events
                write_jsonl(log.tail(self._limit(query)), buffer)
                return self._send(200, NDJSON_CONTENT_TYPE, buffer.getvalue())
            if path == "/profile":
                return self._send_json(200, obs.profiles(self._limit(query)))
            for prefix, lookup, what in (
                ("/trace/", obs.trace, "telemetry"),
                ("/provenance/", obs.provenance, "provenance"),
            ):
                if path.startswith(prefix):
                    trace_id = path[len(prefix) :].strip().lower()
                    doc = lookup(trace_id)
                    if doc is None:
                        return self._send_json(
                            404, {"error": f"no {what} for trace {trace_id!r}"}
                        )
                    return self._send_json(200, doc)
            return self._send_json(
                404, {"error": f"unknown path {parsed.path!r}", "endpoints": list(_ROUTES)}
            )
        except _HttpError as exc:
            status, doc, headers = exc.status, {"error": str(exc)}, exc.headers
        except (BrokenPipeError, socket.timeout):  # TimeoutError itself from 3.10 on
            self.close_connection = True
            return 499  # scraper hung up mid-response, or stalled mid-request
        except Exception as exc:  # observability must not crash the host
            status, doc, headers = 500, {"error": f"{type(exc).__name__}: {exc}"}, None
        try:
            return self._send_json(status, doc, headers)
        except Exception:
            self.close_connection = True  # the socket is no use for a next request
            return status

    def _serve_query(self) -> int:
        """``POST /v1/query`` — mount point of the wired query service,
        which owns the request validation and the status discipline; only
        the transport checks (411/413, in :meth:`_read_body`) live here."""
        service = self.observatory.query_service
        if service is None:
            return self._send_json(503, {"error": "no query service wired to this observatory"})
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
    status_provider:
        Optional zero-argument callable returning the ``/status`` payload
        (the dashboard document, its ``sources`` rows built by
        :func:`~repro.obs.dashboard.source_rows`); ``/healthz`` projects
        the same rows. Defaults to a minimal summary.
    query_service:
        Optional :class:`~repro.serve.QueryService`; when wired, ``POST
        /v1/query`` serves admission-controlled, quota'd, deadline-bounded
        recency reports (503 otherwise) and ``/status`` gains a
        ``serving`` block.
    """

    #: Seconds a connection may wait for its next complete request before
    #: the server closes it (read when the server is constructed).
    idle_timeout = 10.0

    def __init__(
        self,
        telemetry,
        host: str = "127.0.0.1",
        port: int = 0,
        status_provider: Optional[Callable[[], dict]] = None,
        query_service=None,
    ) -> None:
        self.telemetry = telemetry
        self.status_provider = status_provider
        self.query_service = query_service
        handler = type(
            "BoundObservatoryHandler",
            (_ObservatoryHandler,),
            # The handler's socket timeout is the idle timeout: the stdlib
            # request loop closes a connection whose read waits longer.
            {"observatory": self, "timeout": self.idle_timeout},
        )
        self._httpd = _ObservatoryHTTPServer((host, port), handler)
        #: The bound address (``port=0`` resolved to the ephemeral port).
        self.host, self.port = self._httpd.server_address[:2]
        self.url = f"http://{self.host}:{self.port}"
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: Open connections and the handler thread serving each.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        #: Connections accepted so far (persistent clients keep this small).
        self.accepted = 0
        #: True once :meth:`stop` has begun: every response now closes.
        self.stopping = False

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
        """Stop accepting, let requests in flight send their response, give
        idle connections EOF, join the handler threads: afterwards no
        accepted socket is open and no handler thread is alive."""
        self.stopping = True
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=_STOP_GRACE)
            self._thread = None
        self._httpd.server_close()
        with self._lock:
            live = list(self._connections.items())
        for conn, _thread in live:
            try:
                conn.shutdown(socket.SHUT_RD)  # wakes a handler parked in readline()
            except OSError:
                pass  # already closed by its own thread
        deadline = time.monotonic() + _STOP_GRACE
        for _conn, thread in live:
            thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "ObservatoryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- payloads -----------------------------------------------------------

    def healthz(self) -> dict:
        """The ``/healthz`` document, a projection of the ``/status`` source
        rows: the source registry's health entries and breaker states."""
        wired = self.status_provider is not None
        rows = self.status_provider().get("sources", ()) if wired else ()
        snapshot = {row["id"]: row["health"] for row in rows if "health" in row}
        degraded = sorted(
            sid for sid, entry in snapshot.items() if entry["status"] == "degraded"
        )
        out: dict = {
            "status": "degraded" if degraded else "ok",
            "sources": snapshot,
            "degraded": degraded,
        }
        if wired:
            out["breakers"] = {row["id"]: row["breaker"] for row in rows if "breaker" in row}
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
        recent = self.telemetry.profiles.tail(limit) if limit else []
        return [profile.to_dict() for profile in recent]

    def trace(self, trace_id: str) -> Optional[dict]:
        """The ``/trace/<id>`` document, or None when the id matched
        no span, event, or profile (an unknown or expired trace)."""
        tel = self.telemetry
        doc = {
            "trace_id": trace_id,
            "spans": [s.to_dict() for s in tel.tracer.spans_for_trace(trace_id)],
            "events": [e.to_dict() for e in tel.events.for_trace(trace_id)],
            "profiles": [p.to_dict() for p in tel.profiles.for_trace(trace_id)],
        }
        return doc if doc["spans"] or doc["events"] or doc["profiles"] else None

    def provenance(self, trace_id: str) -> Optional[dict]:
        """The ``/provenance/<trace_id>`` document: the provenance records
        (row-level source sets + quality summary) of the report(s) stamped
        with that trace id, or None when none is retained (reports run
        without lineage enabled, or the record aged out of the ring)."""
        records = [r.to_dict() for r in self.telemetry.provenance.for_trace(trace_id)]
        if not records:
            return None
        return {"trace_id": trace_id, "provenance": records}

    def __repr__(self) -> str:
        running = "running" if self._thread is not None else "stopped"
        return f"ObservatoryServer({self.url}, {running})"

