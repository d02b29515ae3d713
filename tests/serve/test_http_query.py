"""POST /v1/query over real sockets: happy path and adversarial inputs."""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import Telemetry
from repro.obs.server import MAX_BODY_BYTES, ObservatoryServer
from repro.serve import QueryService, ServeConfig

SQL = "SELECT mach_id FROM activity"


def post(url, body=None, raw=None, method="POST", headers=None):
    """Returns (status, parsed-JSON-body, response-headers)."""
    data = raw if raw is not None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers=headers or {"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), dict(exc.headers)


def raw_exchange(host, port, payload: bytes) -> str:
    """One raw TCP request; returns the decoded response."""
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8", "replace")


@pytest.fixture
def server(paper_memory_backend):
    tel = Telemetry()
    with QueryService(paper_memory_backend, ServeConfig(workers=2), telemetry=tel) as svc:
        with ObservatoryServer(tel, query_service=svc) as srv:
            yield srv


class TestHappyPath:
    def test_query_returns_rows_report_and_trace(self, server):
        status, doc, _ = post(
            server.url + "/v1/query", body={"sql": SQL, "tenant": "alice"}
        )
        assert status == 200
        assert sorted(r[0] for r in doc["rows"]) == ["m1", "m2", "m3"]
        assert doc["tenant"] == "alice"
        assert doc["exceptional_sources"] == ["m2"]
        assert len(doc["trace_id"]) == 32
        # The trace is queryable back through the observatory.
        with urllib.request.urlopen(
            server.url + f"/trace/{doc['trace_id']}", timeout=10.0
        ) as response:
            trace = json.loads(response.read())
        assert any(span["name"] == "serve.request" for span in trace["spans"])

    def test_tenant_defaults_when_omitted(self, server):
        status, doc, _ = post(server.url + "/v1/query", body={"sql": SQL})
        assert status == 200
        assert doc["tenant"] == "default"

    def test_status_gains_a_serving_block(self, server):
        post(server.url + "/v1/query", body={"sql": SQL})
        with urllib.request.urlopen(server.url + "/status", timeout=10.0) as response:
            status_doc = json.loads(response.read())
        serving = status_doc["serving"]
        assert serving["requests"]["ok"] == 1
        assert serving["workers"] == 2
        assert serving["p99_ms"] > 0


class TestClientErrors:
    def test_missing_sql_field(self, server):
        status, doc, _ = post(server.url + "/v1/query", body={"tenant": "a"})
        assert status == 400
        assert "sql" in doc["error"]

    def test_malformed_json_body(self, server):
        status, doc, _ = post(server.url + "/v1/query", raw=b"{nope")
        assert status == 400
        assert "JSON" in doc["error"]

    def test_non_object_body(self, server):
        status, doc, _ = post(server.url + "/v1/query", raw=b'["a", "list"]')
        assert status == 400
        assert "object" in doc["error"]

    def test_bad_sql_is_400_not_500(self, server):
        status, doc, _ = post(
            server.url + "/v1/query", body={"sql": "SELECT x FROM no_such_table"}
        )
        assert status == 400
        assert "no_such_table" in doc["error"]

    def test_bad_deadline_type(self, server):
        status, doc, _ = post(
            server.url + "/v1/query", body={"sql": SQL, "deadline_seconds": "soon"}
        )
        assert status == 400

    def test_negative_deadline(self, server):
        status, doc, _ = post(
            server.url + "/v1/query", body={"sql": SQL, "deadline_seconds": -1}
        )
        assert status == 400

    def test_oversized_body_is_413(self, server):
        response = raw_exchange(
            server.host,
            server.port,
            b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert "413" in response.splitlines()[0]

    def test_missing_content_length_is_411(self, server):
        response = raw_exchange(
            server.host, server.port, b"POST /v1/query HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        assert "411" in response.splitlines()[0]

    def test_get_on_v1_query_is_405(self, server):
        status, _, headers = post(
            server.url + "/v1/query", raw=b"", method="GET", headers={}
        )
        assert status == 405
        assert headers.get("Allow") == "POST"


class TestQuotaOverHttp:
    def test_quota_exhaustion_returns_429_with_retry_after(self, paper_memory_backend):
        tel = Telemetry()
        config = ServeConfig(workers=1, tenant_rate=0.0, tenant_burst=1.0)
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                first, _, _ = post(server.url + "/v1/query", body={"sql": SQL})
                second, doc, headers = post(
                    server.url + "/v1/query", body={"sql": SQL}
                )
        assert first == 200
        assert second == 429
        assert float(headers["Retry-After"]) > 0
        assert "rate" in doc["error"]

    def test_a_refused_method_costs_no_token_no_slot_and_no_worker(self, paper_memory_backend):
        tel = Telemetry()
        config = ServeConfig(workers=1, tenant_rate=0.0, tenant_burst=1.0)
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                for method in ("bogus", "focused_hardcoded", "", 7):
                    status, doc, _ = post(
                        server.url + "/v1/query", body={"sql": SQL, "method": method}
                    )
                    assert status == 400 and "method" in doc["error"], method
                assert svc.quotas.snapshot() == {}  # the tenant's one token is untouched
                assert svc.pool.stats()["executed"] == 0
                assert svc.counts()["error"] == 0
                status, _, _ = post(server.url + "/v1/query", body={"sql": SQL})
        assert status == 200

    def test_a_full_wait_line_sheds_one_429_and_no_5xx(self, held_source):
        """One slot, a wait line of one, three concurrent requests while the
        first holds the slot: the second waits and is served, the third is
        shed with ``Retry-After``."""
        tel = Telemetry()
        config = ServeConfig(workers=1, queue_depth=1)
        answers = []

        def send():
            answers.append(post(url, body={"sql": SQL}))

        with QueryService(held_source, config, telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                url = server.url + "/v1/query"
                threads = [threading.Thread(target=send) for _ in range(2)]
                try:
                    threads[0].start()
                    assert held_source.entered.wait(timeout=5.0)
                    threads[1].start()
                    deadline = time.monotonic() + 5.0
                    while svc.pool.queued() < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.001)
                    send()
                finally:
                    held_source.release.set()
                    for thread in threads:
                        thread.join(timeout=10.0)
                counts = svc.counts()
        statuses = sorted(status for status, _, _ in answers)
        assert statuses == [200, 200, 429]
        shed = next(headers for status, _, headers in answers if status == 429)
        assert float(shed["Retry-After"]) > 0
        assert counts["ok"] == 2 and counts["rejected_queue"] == 1
        assert svc.quotas.total_inflight() == 0

    def test_no_service_wired_is_503(self):
        tel = Telemetry()
        with ObservatoryServer(tel) as server:
            status, doc, _ = post(server.url + "/v1/query", body={"sql": SQL})
        assert status == 503
