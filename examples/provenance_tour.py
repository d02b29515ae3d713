#!/usr/bin/env python
"""Provenance tour: row-level lineage and staleness-derived quality.

Answers "why should I trust this row?" end to end, entirely in-process:

1. run a recency report with ``lineage=True`` — every result row carries
   the set of data sources it derives from, and each row is scored
   against those sources' heartbeat staleness (half-life decay);
2. join two source-attributed tables and watch the min-combine rule: a
   row is only as trustworthy as its weakest contributor;
3. print the per-operator profile with its trailing ``fanin`` column
   (``trac explain --analyze --lineage`` shows the same table);
4. inject staleness into one source and watch row quality degrade
   monotonically;
5. serve the same query through ``POST /v1/query`` — the response
   gains a ``provenance`` block, its ``trace_id`` pivots to
   ``/provenance/<trace_id>``, and ``/metrics`` grows the
   ``trac_row_quality`` histogram.

The same surfaces are available from the command line::

    trac report --db grid.sqlite --lineage "SELECT ..."
    trac explain --db grid.sqlite --analyze --lineage "SELECT ..."

Run:  python examples/provenance_tour.py
"""

import json
import urllib.request

from repro.backends.memory import MemoryBackend
from repro.catalog import Catalog, Column, TableSchema
from repro.core.report import RecencyReporter
from repro.deploy import Deployment
from repro.obs import Telemetry
from repro.serve import ServeConfig


def scrape(url: str, body=None) -> str:
    data = json.dumps(body).encode("utf-8") if body is not None else None
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=10.0) as response:
        return response.read().decode("utf-8")


def build_backend(telemetry: Telemetry) -> MemoryBackend:
    catalog = Catalog()
    catalog.add(
        TableSchema(
            "activity",
            [Column("mach_id", "TEXT"), Column("state", "TEXT"), Column("t", "REAL")],
            source_column="mach_id",
        )
    )
    # The config table is maintained by a separate "registry" source, so
    # joining it against activity gives rows a fan-in of two sources.
    catalog.add(
        TableSchema(
            "config",
            [
                Column("mach_id", "TEXT"),
                Column("owner", "TEXT"),
                Column("src", "TEXT"),
            ],
            source_column="src",
        )
    )
    backend = MemoryBackend(catalog, telemetry=telemetry)
    backend.create_tables()
    backend.insert_rows(
        "activity",
        [
            (f"m{i % 3 + 1}", "busy" if i % 2 else "idle", float(i))
            for i in range(12)
        ],
    )
    backend.insert_rows(
        "config",
        [("m1", "ops", "registry"), ("m2", "ops", "registry"), ("m3", "lab", "registry")],
    )
    # Staggered heartbeats: m1 is freshest; with the default 60 s
    # half-life, 30 s behind scores 2^-0.5 ~= 0.707 and 60 s scores 0.5.
    for i, recency in enumerate([1000.0, 970.0, 940.0]):
        backend.upsert_heartbeat(f"m{i + 1}", recency)
    backend.upsert_heartbeat("registry", 955.0)  # 45 s behind -> ~0.595
    return backend


def show(report, title: str) -> None:
    print(f"\n{title}")
    provenance = report.provenance
    rows = zip(report.result.rows, provenance["row_sources"], report.row_quality)
    for row, sources, row_quality in rows:
        print(f"  {str(row):<24} from {sources}  quality {row_quality:.3f}")
    print(f"  worst row quality: {provenance['quality']['worst_row_quality']:.3f}")


def main() -> None:
    print("=== Provenance tour ===")
    telemetry = Telemetry()
    backend = build_backend(telemetry)
    reporter = RecencyReporter(backend, telemetry=telemetry, lineage=True)

    print("\n--- 1. every row cites the sources it derives from ---")
    report = reporter.report(
        "SELECT mach_id, COUNT(*) FROM activity GROUP BY mach_id"
    )
    show(report, "per-row provenance (one source per group):")
    for source in report.provenance["quality"]["sources"]:
        print(
            f"  {source['source_id']}: staleness {source['staleness']:5.1f}s"
            f" -> quality {source['quality']:.3f}"
        )

    print("\n--- 2. joins union lineage; quality is min over contributors ---")
    joined = reporter.report(
        "SELECT activity.mach_id, config.owner FROM activity, config"
        " WHERE activity.mach_id = config.mach_id AND activity.state = 'idle'"
    )
    show(joined, "a join row is only as trustworthy as its weakest source:")

    print("\n--- 3. the profile's fanin column (trac explain --analyze --lineage) ---")
    print(report.profile.render())

    print("\n--- 4. quality degrades monotonically with injected staleness ---")
    worsening = [report.provenance["quality"]["worst_row_quality"]]
    for lag in (120.0, 600.0):
        backend.upsert_heartbeat("m3", 940.0 - lag)
        worst = reporter.report(
            "SELECT mach_id, COUNT(*) FROM activity GROUP BY mach_id"
        ).provenance["quality"]["worst_row_quality"]
        worsening.append(worst)
        print(f"  m3 a further {lag:5.0f}s stale -> worst row quality {worst:.3f}")
    assert worsening == sorted(worsening, reverse=True)
    print(f"  monotone: {' > '.join(f'{q:.3f}' for q in worsening)}")
    backend.upsert_heartbeat("m3", 940.0)

    print("\n--- 5. the observatory serves the provenance story over HTTP ---")
    config = ServeConfig(workers=2, lineage=True)
    with Deployment(backend, port=0, config=config, telemetry=telemetry) as door:
        server = door.server
        print(f"observatory serving on {server.url}")
        body = scrape(
            server.url + "/v1/query",
            body={"sql": "SELECT mach_id, COUNT(*) FROM activity GROUP BY mach_id"},
        )
        doc = json.loads(body)
        provenance = doc["provenance"]
        print(f"/v1/query provenance block: row_sources={provenance['row_sources']}")
        print(
            "  quality: worst="
            f"{provenance['quality']['worst_row_quality']:.3f}"
            f" attributed={provenance['quality']['attributed_rows']}"
            f"/{provenance['quality']['rows']} rows"
        )
        view = json.loads(scrape(server.url + "/provenance/" + doc["trace_id"]))
        print(
            f"/provenance/{doc['trace_id']}:"
            f" {len(view['provenance'])} record(s) under this trace"
        )
        metrics = scrape(server.url + "/metrics")
        quality_lines = [
            line
            for line in metrics.splitlines()
            if line.startswith("trac_row_quality_count")
        ]
        print("scraped /metrics: " + "; ".join(quality_lines))

    print("\ndone: every row's trust is explainable, source by source")


if __name__ == "__main__":
    main()
