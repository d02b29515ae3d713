#!/usr/bin/env python
"""Serving tour: POST /v1/query, admission control, and the load story.

TRAC's reporter answers one query at a time; this tour puts it behind
the query-serving front end (``repro.serve``) and exercises the full
request path over real HTTP:

1. build an in-memory grid workload and start a
   :class:`~repro.deploy.Deployment` over it: a :class:`QueryService`
   (per-tenant token-bucket quotas + a gate of ``workers`` slots, each
   report running on the connection thread that read it) behind the
   Observatory's HTTP server;
2. ``POST /v1/query`` and read back rows *plus* the recency report and
   the request's ``trace_id`` — every served query is traceable;
3. exhaust a tenant's quota and watch the server shed with
   ``429 Too Many Requests`` and a ``Retry-After`` hint instead of
   queueing without bound;
4. drive a short open-loop load run with ``tools/loadgen.py`` and
   read the p99 straight from the ``trac_serve_request_seconds``
   histogram, then render the ``trac top`` serving line.

The same stack runs from the command line::

    trac simulate --db grid.sqlite --machines 8 --duration 60
    trac serve --db grid.sqlite --port 9464 --workers 8

Run:  python examples/serving_tour.py
"""

import json
import sys
import urllib.error
import urllib.request
from pathlib import Path

from repro.backends.memory import MemoryBackend
from repro.deploy import Deployment
from repro.obs.dashboard import render_top
from repro.serve import ServeConfig
from repro.workload import WorkloadConfig, loaded_backend, paper_queries

# The load generator is a standard-library script in tools/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from loadgen import LoadgenConfig, run_load  # noqa: E402

SOURCES = 8


def post_query(url: str, sql: str, tenant: str = "default"):
    """POST one query; returns (status, parsed body, headers)."""
    request = urllib.request.Request(
        url + "/v1/query",
        data=json.dumps({"sql": sql, "tenant": tenant}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}"), dict(exc.headers)


def main() -> None:
    print("=== Serving tour ===")
    backend = loaded_backend(WorkloadConfig(num_sources=SOURCES, data_ratio=10), MemoryBackend)
    sql = paper_queries(SOURCES)["Q1"]

    # -- 1. one query, end to end -------------------------------------------
    config = ServeConfig(workers=4, tenant_rate=500.0, tenant_burst=500.0)
    with Deployment(backend, port=0, config=config) as deployment:
        server = deployment.server
        print(f"\nserving on {server.url} (POST /v1/query)")
        status, doc, _ = post_query(server.url, sql, tenant="analytics")
        print(f"POST /v1/query -> {status}: {len(doc['rows'])} rows "
              f"for tenant {doc['tenant']!r}")
        print(f"  relevant sources : {len(doc['relevant_sources'])}")
        for notice in doc["notices"]:
            print(f"  {notice}")
        print(f"  trace_id: {doc['trace_id']}")

        # -- 4a. a short open-loop load run -----------------------------
        result = run_load(
            LoadgenConfig(
                url=server.url + "/v1/query",
                sql=sql,
                rate=50.0,
                duration=1.0,
                senders=8,
            )
        )
        print(f"\nopen-loop load: {result.requests} requests at 50/s, "
              f"ok={result.ok}, p99={result.latency_ms(0.99):.1f} ms")

        # -- 4b. the trac top serving line ------------------------------
        with urllib.request.urlopen(server.url + "/status", timeout=5.0) as resp:
            status_doc = json.loads(resp.read())
        frame = render_top(status_doc)
        serving_line = next(
            line for line in frame.splitlines() if line.startswith("serve:")
        )
        print("\ntrac top serving line:")
        print(f"  {serving_line}")

    # -- 3. overload: the server sheds, it does not queue forever ------------
    print("\nquota shedding (tenant budget: 3 requests, no refill):")
    tight = ServeConfig(workers=2, tenant_rate=0.0, tenant_burst=3.0)
    with Deployment(backend, port=0, config=tight) as deployment:
        for i in range(5):
            status, doc, headers = post_query(deployment.server.url, sql)
            if status == 429:
                print(f"  request {i + 1}: 429 Too Many Requests "
                      f"(Retry-After: {headers['Retry-After']}s)")
            else:
                print(f"  request {i + 1}: {status} OK")
        counts = deployment.service.counts()
    print(f"admitted={counts['ok']} shed={counts['rejected_quota']} "
          "— admission control is exact")
    print("\ndone: rows, recency report and trace travel on every response")


if __name__ == "__main__":
    main()
