"""Connection lifetime on the observatory: reuse, framing, idle timeout, stop().

The server keeps HTTP/1.1 connections open, so these tests talk to it the
ways urllib cannot: ``http.client`` for sequential reuse of one socket, and
raw sockets for pipelined bytes, half-sent requests and HTTP/1.0.
"""

import http.client
import json
import re
import socket
import threading
import time
import urllib.request

import pytest

from repro.obs import Telemetry
from repro.obs.instrument import HTTP_REQUEST_SECONDS
from repro.obs.server import MAX_BODY_BYTES, ObservatoryServer
from repro.serve import QueryService, ServeConfig

SQL = "SELECT mach_id FROM activity"
QUERY = json.dumps({"sql": SQL}).encode("utf-8")

#: A complete request; sent as the "body" of a request the server answers
#: without reading a body, it must never be answered.
SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


def read_until_closed(sock) -> str:
    """Everything the server sends until it closes (a reset after the
    response — the server closed with our bytes unread — is a close)."""
    chunks = []
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks).decode("utf-8", "replace")


def responses_in(stream: str) -> int:
    """Status lines in the stream (a body carries no trailing newline, so
    the next response's status line need not start a line)."""
    return len(re.findall(r"HTTP/1\.[01] \d{3} ", stream))


def observatory_threads(server):
    """The live threads of ``server``: its accept loop and its connection
    handlers. Threads another test's server left behind, or has not yet
    joined, are not this server's."""
    name = f"trac-observatory-{server.port}"
    return [t for t in threading.enumerate() if t.name in (name, f"{name}-conn")]


def live_handlers(server, expected):
    """The server's live connection handlers (one per open connection),
    once they number ``expected`` or after 5 s: a handler's thread ends
    just after its socket closes."""
    name = f"trac-observatory-{server.port}-conn"
    deadline = time.monotonic() + 5.0
    while True:
        count = sum(1 for t in threading.enumerate() if t.name == name)
        if count == expected or time.monotonic() > deadline:
            return count
        time.sleep(0.01)


@pytest.fixture
def server(paper_memory_backend):
    tel = Telemetry()
    with QueryService(paper_memory_backend, ServeConfig(workers=2), telemetry=tel) as svc:
        with ObservatoryServer(tel, query_service=svc) as srv:
            yield srv


class TestReuse:
    def test_sequential_requests_share_one_socket(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            for _ in range(5):
                conn.request("POST", "/v1/query", body=QUERY)
                response = conn.getresponse()
                assert response.status == 200
                assert len(json.loads(response.read())["rows"]) == 3
                conn.request("GET", "/status")
                response = conn.getresponse()
                assert response.status == 200
                assert "serving" in json.loads(response.read())
                conn.request("HEAD", "/metrics")
                response = conn.getresponse()
                assert response.status == 200
                assert int(response.headers["Content-Length"]) > 0
                assert response.read() == b""
            assert server.accepted == 1
            assert live_handlers(server, 1) == 1
        finally:
            conn.close()

    def test_client_errors_with_the_body_read_keep_the_socket(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            for body, status in ((b"{nope", 400), (QUERY, 200), (b"[1]", 400), (QUERY, 200)):
                conn.request("POST", "/v1/query", body=body)
                response = conn.getresponse()
                response.read()
                assert response.status == status
            conn.request("GET", "/nope")  # no body: nothing left in the stream
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            assert server.accepted == 1
        finally:
            conn.close()

    def test_connection_close_is_honoured(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            conn.request("POST", "/v1/query", body=QUERY, headers={"Connection": "close"})
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "close"
            response.read()
            assert conn.sock is None  # http.client saw the server's close
        finally:
            conn.close()

    def test_urllib_clients_stay_one_shot(self, server):
        # urllib (and so `trac top`'s poller) sends Connection: close.
        for _ in range(3):
            with urllib.request.urlopen(server.url + "/status", timeout=5.0) as response:
                assert response.status == 200
                response.read()
        assert server.accepted == 3

    def test_http_10_requests_stay_one_shot(self, server):
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            stream = read_until_closed(sock)  # returns: the server closed
        assert responses_in(stream) == 1
        assert " 200 " in stream.splitlines()[0]
        assert "Connection: close" in stream

    def test_spans_and_latency_samples_are_per_request(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            for _ in range(4):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
            # A span ends after its response is written; the connection is
            # served in order, so this reply means the four above are done.
            conn.request("GET", "/status")
            conn.getresponse().read()
        finally:
            conn.close()
        assert server.accepted == 1
        tel = server.telemetry
        spans = [
            s
            for s in tel.tracer.finished_spans()
            if s.name == "http.request" and s.attributes["path"] == "/healthz"
        ]
        assert len(spans) == 4
        assert len({s.trace_id for s in spans}) == 4
        samples = [
            m
            for m in tel.metrics.collect()
            if m.name == HTTP_REQUEST_SECONDS and dict(m.labels)["path"] == "/healthz"
        ]
        assert sum(m.count for m in samples) == 4


class TestFraming:
    """A response sent before the body was read closes the connection:
    the unread bytes are never parsed as the next request."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n", "405"),
            (b"POST /nope HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n", "404"),
            (b"POST /v1/query HTTP/1.1\r\nHost: t\r\n\r\n", "411"),
            (b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: x%d\r\n\r\n", "400"),
            (
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n",
                "413",
            ),
        ],
    )
    def test_unread_body_is_not_the_next_request(self, server, head, status):
        if b"%d" in head:
            head = head % len(SMUGGLED)
        started = time.monotonic()
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(head + SMUGGLED)
            stream = read_until_closed(sock)
        # Closed by the response, not by the idle timeout.
        assert time.monotonic() - started < server.idle_timeout / 2
        assert status in stream.splitlines()[0]
        assert responses_in(stream) == 1
        assert "Connection: close" in stream

    def test_a_read_body_leaves_the_next_request_intact(self, server):
        first = (
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n" % len(QUERY)
            + QUERY
        )
        second = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(first + second)
            stream = read_until_closed(sock)
        assert responses_in(stream) == 2
        assert server.accepted == 1


def exchange(server, request: bytes) -> str:
    """Send ``request`` on a fresh socket; everything the server sends
    until it closes."""
    with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
        sock.sendall(request)
        return read_until_closed(sock)


def post(body: bytes, *fields: str, target: str = "/v1/query", version: str = "HTTP/1.1"):
    """A ``POST`` of ``body`` with exactly the header ``fields`` given."""
    head = "".join(f"{field}\r\n" for field in fields)
    return f"POST {target} {version}\r\n{head}\r\n".encode("latin-1") + body


def body_of(stream: str) -> dict:
    return json.loads(stream.split("\r\n\r\n", 1)[1])


class TestRequestParsing:
    """The header block is parsed by the server itself: the stdlib's limits
    and request-line checks, and a 400 where the stdlib cut the block short."""

    @pytest.mark.parametrize(
        "fields",
        [
            (f"Content-Length: {len(QUERY)}", "Host: t", "Content-Length: 5"),
            ("Host: t", " folded-onto-host", f"Content-Length: {len(QUERY)}"),
            ("Host: t", "no colon here", f"Content-Length: {len(QUERY)}"),
            ("Host: t", "Bad Name: x", f"Content-Length: {len(QUERY)}"),
        ],
        ids=["conflicting-content-length", "folded-line", "no-colon", "space-in-name"],
    )
    def test_malformed_header_block_is_400_and_closes(self, server, fields):
        stream = exchange(server, post(QUERY, *fields) + SMUGGLED)
        assert " 400 " in stream.splitlines()[0]
        assert responses_in(stream) == 1
        assert "Connection: close" in stream

    def test_equal_duplicate_content_length_is_accepted(self, server):
        length = f"Content-Length: {len(QUERY)}"
        stream = exchange(server, post(QUERY, length, "Host: t", length, "Connection: close"))
        assert " 200 " in stream.splitlines()[0]
        assert len(body_of(stream)["rows"]) == 3

    def test_a_line_over_64_kib_is_431(self, server):
        request = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n"
        stream = exchange(server, request)
        assert " 431 " in stream.splitlines()[0]
        assert "Connection: close" in stream

    @pytest.mark.parametrize("fields, status", [(100, " 200 "), (101, " 431 ")])
    def test_more_than_100_header_fields_is_431(self, server, fields, status):
        head = "".join(f"X-Field-{i}: {i}\r\n" for i in range(fields - 1))
        request = f"GET /healthz HTTP/1.1\r\n{head}Connection: close\r\n\r\n"
        stream = exchange(server, request.encode("latin-1"))
        assert status in stream.splitlines()[0]
        assert responses_in(stream) == 1

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET /healthz HTTP/2.0", 505),
            (b"GET /healthz HTTP/1.x", 400),
            (b"GET /healthz HTTP/\xb2.1", 400),
            (b"GET /healthz HTTP/1.1 extra", 400),
            (b"GET", 400),
            (b"POST /v1/query", 400),  # HTTP/0.9 allows GET only
        ],
    )
    def test_request_line_is_checked_as_the_stdlib_does(self, server, line, status):
        # Refused before its version is known, a request is answered as
        # HTTP/0.9, as the stdlib answers it: the error page, no status line.
        stream = exchange(server, line + b"\r\nHost: t\r\n\r\n")
        assert f"Error code: {status}" in stream
        assert responses_in(stream) == 0

    def test_expect_100_continue_gets_100_then_the_response(self, server):
        head = post(
            b"", f"Content-Length: {len(QUERY)}", "Expect: 100-continue", "Connection: close"
        )
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(QUERY)
            stream = read_until_closed(sock)
        assert " 200 " in stream.splitlines()[0]
        assert len(body_of(stream)["rows"]) == 3

    def test_a_leading_double_slash_collapses(self, server):
        stream = exchange(
            server,
            post(QUERY, f"Content-Length: {len(QUERY)}", "Connection: close", target="//v1/query"),
        )
        assert " 200 " in stream.splitlines()[0]
        assert len(body_of(stream)["rows"]) == 3

    def test_header_names_are_case_insensitive(self, server):
        trace_id = "ab" * 16
        stream = exchange(
            server,
            post(
                QUERY,
                f"content-length: {len(QUERY)}",
                f"TRACEPARENT: 00-{trace_id}-00f067aa0ba902b7-01",
                "CONNECTION: close",
            ),
        )
        assert " 200 " in stream.splitlines()[0]
        assert body_of(stream)["trace_id"] == trace_id

    def test_http_10_post_closes_after_one_response(self, server):
        length = f"Content-Length: {len(QUERY)}"
        request = post(QUERY, length, "Connection: keep-alive", version="HTTP/1.0")
        stream = exchange(server, request + SMUGGLED)
        assert responses_in(stream) == 1
        assert " 200 " in stream.splitlines()[0]
        assert "Connection: close" in stream


class TestIdleTimeout:
    @pytest.fixture
    def quick(self, monkeypatch):
        monkeypatch.setattr(ObservatoryServer, "idle_timeout", 0.2)
        with ObservatoryServer(Telemetry()) as srv:
            yield srv

    def test_idle_connection_is_closed_by_the_server(self, quick):
        with socket.create_connection((quick.host, quick.port), timeout=5.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            started = time.monotonic()
            stream = read_until_closed(sock)
            elapsed = time.monotonic() - started
        assert responses_in(stream) == 1
        assert "Connection: close" not in stream  # kept alive, then timed out
        assert 0.15 < elapsed < 3.0
        assert live_handlers(quick, 0) == 0

    def test_half_sent_header_block_is_dropped(self, quick):
        with socket.create_connection((quick.host, quick.port), timeout=5.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost:")
            assert read_until_closed(sock) == ""
        assert live_handlers(quick, 0) == 0

    def test_half_sent_body_is_dropped(self, quick):
        with socket.create_connection((quick.host, quick.port), timeout=5.0) as sock:
            sock.sendall(b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\n{")
            read_until_closed(sock)
        assert live_handlers(quick, 0) == 0


class TestStop:
    def test_kept_alive_client_is_cut_off(self, server):
        idle = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        busy = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            for conn in (idle, busy):
                conn.request("GET", "/healthz")
                assert conn.getresponse().read()
            assert live_handlers(server, 2) == 2
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 3.0  # nobody waited for idle_timeout
            assert live_handlers(server, 0) == 0
            assert observatory_threads(server) == []
            with pytest.raises((ConnectionError, http.client.HTTPException)):
                busy.request("GET", "/healthz")
                busy.getresponse()
            with pytest.raises(ConnectionError):  # and nobody listens any more
                socket.create_connection((server.host, server.port), timeout=1.0)
        finally:
            idle.close()
            busy.close()

    def test_request_in_flight_finishes(self):
        entered = threading.Event()
        release = threading.Event()

        def slow_status():
            entered.set()
            release.wait(timeout=5.0)
            return {"now": 1.0}

        server = ObservatoryServer(Telemetry(), status_provider=slow_status).start()
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        stopper = threading.Thread(target=server.stop)
        try:
            conn.request("GET", "/status")
            assert entered.wait(timeout=5.0)
            stopper.start()
            deadline = time.monotonic() + 5.0
            while not server.stopping and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.stopping  # stop() is under way and will wait for this request
            release.set()
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"now": 1.0}
            assert response.headers["Connection"] == "close"
            stopper.join(timeout=5.0)
            assert not stopper.is_alive()
            assert live_handlers(server, 0) == 0
            assert observatory_threads(server) == []
        finally:
            release.set()
            conn.close()
            stopper.join(timeout=10.0)

    def test_stop_without_start_and_twice(self):
        server = ObservatoryServer(Telemetry())
        server.stop()
        server.stop()
        assert observatory_threads(server) == []
