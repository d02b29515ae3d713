#!/usr/bin/env python
"""Observatory tour: live endpoints, events, SLOs and the flight recorder.

Walks the Recency Observatory end to end, entirely in-process:

1. run a grid simulation with an injected silence fault and a staleness
   SLO as one :class:`~repro.deploy.Deployment`: telemetry, flight
   recorder and the observatory on an ephemeral port, one ``close()``;
2. scrape the live ``/metrics``, ``/healthz`` and ``/status`` endpoints
   over real HTTP mid-run, exactly as Prometheus or ``trac top`` would —
   and ask the database a question through ``POST /v1/query`` while it
   is loading;
3. render one ``trac top`` dashboard frame from the status document;
4. inspect the structured event log and the flight dump the watchdog
   anomaly triggered.

The same wiring is available from the command line::

    trac simulate --db grid.sqlite --faults plan.json --serve 9464 \
        --flight-dir flights --top

Run:  python examples/observatory_tour.py
"""

import json
import tempfile
import urllib.request

from repro.core.sources import SourceRegistry
from repro.deploy import Deployment
from repro.faults import plan_from_json
from repro.grid import GridSimulator, SimulationConfig
from repro.obs.dashboard import render_top

PLAN = json.dumps(
    {"seed": 7, "faults": [{"kind": "silence", "source": "m2", "start": 5}]}
)


def scrape(url: str, body=None) -> str:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=5.0) as response:
        return response.read().decode("utf-8")


def main() -> None:
    print("=== Observatory tour ===")
    sources = SourceRegistry(target_p95=25.0, budget=0.05)
    sim = GridSimulator(
        SimulationConfig(num_machines=4, seed=7),
        fault_plan=plan_from_json(PLAN),
        silence_timeout=30.0,
        sources=sources,
    )

    flight_dir = tempfile.mkdtemp(prefix="trac-flight-")
    with Deployment(sim, port=0, flight_dir=flight_dir) as deployment:
        server, telemetry, recorder = deployment.server, deployment.telemetry, deployment.recorder
        print(f"observatory serving on {server.url}")

        print("\n--- 1. simulate with an injected silence on m2 ---")
        sim.run(200)
        print(f"simulated to t={sim.now:.0f}s")

        print("\n--- 2. scrape the live endpoints over HTTP ---")
        metrics = scrape(server.url + "/metrics")
        lag_lines = [
            line for line in metrics.splitlines() if line.startswith("trac_source_lag")
        ]
        print(f"scraped /metrics: {len(metrics.splitlines())} lines, "
              f"{len(lag_lines)} lag-histogram samples")
        healthz = json.loads(scrape(server.url + "/healthz"))
        print(f"scraped /healthz: status={healthz['status']} "
              f"degraded={healthz['degraded']}")
        answer = json.loads(scrape(server.url + "/v1/query",
                                   body={"sql": "SELECT mach_id FROM activity"}))
        print(f"POST /v1/query mid-run: {len(answer['rows'])} rows, "
              f"degraded={answer['degraded']}")

        print("\n--- 3. one trac top frame from /status ---")
        status = json.loads(scrape(server.url + "/status"))
        print(render_top(status))

    print("--- 4. the structured event log ---")
    for name, count in sorted(telemetry.events.counts_by_name().items()):
        print(f"  {name:<20} x{count}")

    print("\n--- 5. the flight recorder caught the anomaly ---")
    for path in recorder.dumps:
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
        print(f"flight dump: trigger={doc['trigger']['name']} "
              f"source={doc['trigger']['source']} "
              f"events={len(doc['events'])} spans={len(doc['spans'])} "
              f"lag_series={sorted(doc['lag_series'])}")

    breached = sources.breached()
    state = f"BREACHED ({', '.join(breached)})" if breached else "ok"
    print(f"\nstaleness SLO (p95 < {sources.target_p95:g}s): {state}")


if __name__ == "__main__":
    main()
