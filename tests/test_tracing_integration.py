"""Acceptance: end-to-end distributed tracing through the observatory.

A query served through ``POST /v1/query`` with an injected W3C
``traceparent`` header must produce, under the *caller's* trace id:

* spans for the request, its ``serve.request`` (opened on the connection's
  thread, inside ``http.request``: no context crosses a thread) and the
  full recency report beneath that;
* correlated event-log records (forced here via a zero-second slow-query
  threshold so ``query.slow`` fires on every report);
* a structured per-operator :class:`QueryProfile` retrievable via
  ``/profile`` and ``/trace/<id>``;
* histogram latency series (with trace-id exemplars) in ``/metrics``.
"""

import json
import time
import urllib.request

import pytest

from repro.backends.memory import MemoryBackend
from repro.catalog import Catalog, Column, TableSchema
from repro.obs import Telemetry
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig

CALLER_TRACE = "deadbeefdeadbeefdeadbeefdeadbeef"
TRACEPARENT = f"00-{CALLER_TRACE}-00f067aa0ba902b7-01"


def get(url, headers=None, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.status, response.read().decode("utf-8")


def query(server, sql, headers=None):
    """``POST /v1/query``: the one HTTP path to a report."""
    return get(server.url + "/v1/query", headers=headers, body={"sql": sql})


@pytest.fixture()
def observatory(monkeypatch):
    catalog = Catalog()
    catalog.add(
        TableSchema("activity", [Column("mach_id", "TEXT"), Column("state", "TEXT")])
    )
    catalog.add(
        TableSchema(
            "trac_heartbeat", [Column("source_id", "TEXT"), Column("recency", "REAL")]
        )
    )
    telemetry = Telemetry()
    backend = MemoryBackend(catalog, telemetry=telemetry)
    backend.create_tables()
    backend.insert_rows(
        "activity", [(f"m{i % 3 + 1}", "busy" if i % 2 else "idle") for i in range(30)]
    )
    for mid in ("m1", "m2", "m3"):
        backend.upsert_heartbeat(mid, 100.0)
    monkeypatch.setenv("TRAC_SLOW_QUERY_SECONDS", "1e-9")
    with QueryService(backend, ServeConfig(workers=2), telemetry=telemetry) as service:
        with ObservatoryServer(telemetry, query_service=service) as server:
            yield server, telemetry


def wait_for_trace(telemetry, trace_id, deadline_s=5.0):
    deadline = time.monotonic() + deadline_s
    spans = telemetry.tracer.spans_for_trace(trace_id)
    while time.monotonic() < deadline:
        if any(s.name == "http.request" for s in spans):
            return spans
        time.sleep(0.01)
        spans = telemetry.tracer.spans_for_trace(trace_id)
    return spans


def test_traced_query_end_to_end(observatory):
    server, telemetry = observatory
    sql = "SELECT state, COUNT(*) FROM activity GROUP BY state"

    status, body = query(server, sql, headers={"traceparent": TRACEPARENT})
    assert status == 200
    doc = json.loads(body)

    # The report itself is stamped with the caller's trace id.
    assert doc["trace_id"] == CALLER_TRACE
    assert doc["rows"] and doc["columns"] == ["state", "COUNT(*)"]

    # Its profile came back inline, structured per operator.
    ops = [op["op"] for op in doc["profile"]["operators"]]
    assert "scan" in ops and "aggregate" in ops
    assert doc["profile"]["trace_id"] == CALLER_TRACE

    # 1. Spans: the request span plus the whole report span tree share
    # the caller's trace id.
    spans = wait_for_trace(telemetry, CALLER_TRACE)
    names = {s.name for s in spans}
    assert {"http.request", "serve.request", "trac.report"} <= names
    assert len(spans) >= 5  # request + serve + report + its phases
    assert all(s.trace_id_hex == CALLER_TRACE for s in spans)

    # 2. Events: the forced slow-query event correlates by trace id.
    events = telemetry.events.for_trace(CALLER_TRACE)
    assert any(e.name == "query.slow" for e in events)

    # 3. Profile is retrievable via /profile and /trace/<id>.
    _, body = get(server.url + "/profile")
    profiles = json.loads(body)
    assert any(p["trace_id"] == CALLER_TRACE and p["sql"] == sql for p in profiles)
    _, body = get(server.url + f"/trace/{CALLER_TRACE}")
    trace_doc = json.loads(body)
    assert trace_doc["spans"] and trace_doc["events"] and trace_doc["profiles"]
    # ... as one chain: the caller's span -> http.request -> serve.request
    # -> trac.report, each the parent of the next.
    by_name = {s["name"]: s for s in trace_doc["spans"]}
    chain = [by_name[name] for name in ("http.request", "serve.request", "trac.report")]
    assert chain[0]["parent_id"] == 0x00F067AA0BA902B7
    assert [s["parent_id"] for s in chain[1:]] == [s["span_id"] for s in chain[:-1]]

    # 4. Histogram latency series, exemplar-stamped, in /metrics.
    _, metrics = get(server.url + "/metrics")
    assert "trac_report_seconds_bucket" in metrics
    assert "trac_http_request_seconds_bucket" in metrics
    assert f'# {{trace_id="{CALLER_TRACE}"}}' in metrics
    assert "trac_slow_queries_total" in metrics


def test_untraced_query_still_gets_a_fresh_trace(observatory):
    server, telemetry = observatory
    status, body = query(server, "SELECT mach_id FROM activity")
    assert status == 200
    doc = json.loads(body)
    assert doc["trace_id"] and doc["trace_id"] != CALLER_TRACE
    spans = wait_for_trace(telemetry, doc["trace_id"])
    assert any(s.name == "http.request" for s in spans)
