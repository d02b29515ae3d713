#!/usr/bin/env python
"""Profiling tour: distributed traces, exemplars and per-operator profiles.

Walks the end-to-end query tracing story, entirely in-process:

1. build a small monitoring database and run a recency report with
   telemetry on — every query it executes is profiled per operator;
2. print the user query's :class:`~repro.engine.profile.QueryProfile`
   (rows in/out, selectivity, wall ms per operator) straight off the
   :class:`~repro.core.report.RecencyReport`;
3. serve a query over ``POST /v1/query`` with an injected W3C
   ``traceparent`` header, then pull ``/trace/<id>`` to see the caller's
   trace id on every span, event and profile produced while serving it,
   all on the connection thread that read the request;
4. scrape ``/metrics`` and show the latency histograms carrying the
   trace id as an exemplar;
5. trip the slow-query threshold and watch ``query.slow`` fire.

The same surfaces are available from the command line::

    trac explain --db grid.sqlite --analyze "SELECT ..."
    trac shell --db grid.sqlite        # .profile SELECT ...

Run:  python examples/profiling_tour.py
"""

import json
import os
import time
import urllib.request

from repro.backends.memory import MemoryBackend
from repro.catalog import Catalog, Column, TableSchema
from repro.core.report import RecencyReporter
from repro.deploy import Deployment
from repro.obs import Telemetry
from repro.serve import ServeConfig

CALLER_TRACE = "1badb002" * 4  # a 32-hex trace id the "caller" minted


def scrape(url: str, headers=None, body=None) -> str:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(url, data=data, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return response.read().decode("utf-8")


def build_reporter(telemetry: Telemetry) -> RecencyReporter:
    catalog = Catalog()
    catalog.add(
        TableSchema(
            "activity",
            [Column("mach_id", "TEXT"), Column("state", "TEXT"), Column("t", "REAL")],
        )
    )
    catalog.add(
        TableSchema(
            "trac_heartbeat", [Column("source_id", "TEXT"), Column("recency", "REAL")]
        )
    )
    backend = MemoryBackend(catalog, telemetry=telemetry)
    backend.create_tables()
    backend.insert_rows(
        "activity",
        [
            (f"m{i % 4 + 1}", "busy" if i % 3 else "idle", float(i))
            for i in range(40)
        ],
    )
    for i in range(4):
        backend.upsert_heartbeat(f"m{i + 1}", 100.0 + i)
    return RecencyReporter(backend, telemetry=telemetry)


def main() -> None:
    print("=== Profiling tour ===")
    telemetry = Telemetry()
    reporter = build_reporter(telemetry)
    sql = "SELECT state, COUNT(*) FROM activity GROUP BY state"

    print("\n--- 1. every traced report carries its user query's profile ---")
    report = reporter.report(sql, method="focused")
    print(f"report trace_id: {report.trace_id}")
    print(report.profile.render())

    print("\n--- 2. a query served over HTTP joins the caller's trace ---")
    door = Deployment(reporter.backend, port=0, config=ServeConfig(workers=2), telemetry=telemetry)
    with door:
        server = door.server
        traceparent = f"00-{CALLER_TRACE}-00f067aa0ba902b7-01"
        body = scrape(
            f"{server.url}/v1/query", headers={"traceparent": traceparent}, body={"sql": sql}
        )
        doc = json.loads(body)
        print(f"injected  trace_id: {CALLER_TRACE}")
        print(f"report's  trace_id: {doc['trace_id']}")
        ops = ", ".join(op["op"] for op in doc["profile"]["operators"])
        print(f"profile operators over HTTP: {ops}")

        print("\n--- 3. /trace/<id> correlates spans, events and profiles ---")
        # The request's own span closes on the connection thread just
        # after its response is sent; wait for it to land in the trace.
        deadline = time.monotonic() + 5.0
        while True:
            trace_doc = json.loads(scrape(f"{server.url}/trace/{CALLER_TRACE}"))
            names = sorted({span["name"] for span in trace_doc["spans"]})
            if "http.request" in names or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        print(f"spans in the caller's trace: {names}")
        print(
            f"correlated: {len(trace_doc['spans'])} spans, "
            f"{len(trace_doc['events'])} events, "
            f"{len(trace_doc['profiles'])} profiles"
        )

        print("\n--- 4. histogram latency series with trace-id exemplars ---")
        metrics = scrape(f"{server.url}/metrics")
        shown = 0
        for line in metrics.splitlines():
            if " # {" in line and shown < 2:
                print(f"  {line}")
                shown += 1
        assert "trac_http_request_seconds_bucket" in metrics

    print("\n--- 5. slow queries trip an event (and the flight recorder) ---")
    # The threshold operators set; read per report, so it applies at once.
    os.environ["TRAC_SLOW_QUERY_SECONDS"] = "1e-9"  # everything is "slow" now
    slow_report = reporter.report(sql, method="focused")
    slow_events = [
        event for event in telemetry.events.snapshot() if event.name == "query.slow"
    ]
    print(
        f"query.slow events: {len(slow_events)} "
        f"(trace {slow_events[-1].trace_id} == report {slow_report.trace_id})"
    )
    print(f"profiles retained this session: {telemetry.profiles.total}")
    reporter.close()
    print("\ndone: every query is traceable from caller to operator")


if __name__ == "__main__":
    main()
