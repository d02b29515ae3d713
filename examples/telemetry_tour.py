#!/usr/bin/env python
"""Telemetry tour: spans, metrics and exporters across the pipeline.

Walks the ``repro.obs`` subsystem end to end:

1. attach a per-component ``Telemetry`` to a reporter and read the
   ``trac.report`` span tree of one recency report;
2. watch the backend, sniffer and watch-rule counters fill in;
3. export everything — span JSONL, Prometheus text, and the same
   human-readable summary ``trac stats`` / the shell's ``.stats`` print.

Telemetry is off by default and costs (nearly) nothing when off — see
docs/OBSERVABILITY.md and tools/check_telemetry_overhead.py.

Run:  python examples/telemetry_tour.py
"""

from repro import (
    Catalog,
    Column,
    FiniteDomain,
    MemoryBackend,
    RecencyReporter,
    TableSchema,
    obs,
)
from repro.core.monitor import RecencyMonitor, WatchRule
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig

BASE = 1_142_431_205.0  # 2006-03-15 14:00:05 UTC, as in the paper


def build_backend() -> MemoryBackend:
    machines = FiniteDomain({f"m{i}" for i in range(1, 6)})
    activity = TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machines),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP"),
        ],
        source_column="mach_id",
    )
    backend = MemoryBackend(Catalog([activity]))
    backend.insert_rows(
        "activity",
        [
            ("m1", "idle", BASE - 900.0),
            ("m2", "busy", BASE - 2000.0),
            ("m3", "idle", BASE - 300.0),
            ("m4", "busy", BASE - 100.0),
            ("m5", "idle", BASE - 60.0),
        ],
    )
    for i, offset in enumerate((20, -30 * 24 * 60, 40, 21, 22), start=1):
        backend.upsert_heartbeat(f"m{i}", BASE + offset * 60)
    return backend


def banner(title: str) -> None:
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    banner("Telemetry tour 1/4: the span tree of one recency report")
    backend = build_backend()
    tel = obs.Telemetry()  # per-component telemetry: nothing global
    backend.telemetry = tel
    reporter = RecencyReporter(backend, telemetry=tel, create_temp_tables=False)
    report = reporter.report(
        "SELECT mach_id FROM activity WHERE value = 'idle'"
    )
    for span, depth in tel.tracer.walk(report.telemetry):
        print(f"{'  ' * depth}{span.name}  {span.duration * 1000:.3f}ms  {span.attributes}")
    print()
    print("ReportTimings is a thin view over those spans:")
    for phase, seconds in report.timings.to_dict().items():
        print(f"  {phase:<16} {seconds * 1000:8.3f}ms")

    banner("Telemetry tour 2/4: sniffer lag and backlog metrics")
    grid_backend = MemoryBackend(monitoring_catalog(["g1"]))
    grid_backend.telemetry = tel
    machine = Machine("g1")
    sniffer = Sniffer(machine, grid_backend, SnifferConfig(lag=2.0))
    machine.set_activity(1.0, "busy")
    machine.set_activity(3.0, "idle")
    machine.set_activity(9.5, "busy")  # behind the horizon at t=10
    sniffer.poll(10.0)
    labels = {"machine": "g1"}
    lag = tel.metrics.histogram(
        "trac_sniff_lag_seconds", labels, buckets=(0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 300.0, 900.0, 3600.0)
    )
    print(f"events applied   : {tel.metrics.counter('trac_sniffer_events_total', labels).value:.0f}")
    print(f"sniff->DB lag    : mean {lag.mean:.1f}s over {lag.count} events")
    print(f"backlog gauge    : {tel.metrics.gauge('trac_sniffer_backlog', labels).value:.0f} record(s) not yet loaded")

    banner("Telemetry tour 3/4: watch-rule evaluation metrics")
    monitor = RecencyMonitor(backend, clock=lambda: BASE + 3600.0, telemetry=tel)
    monitor.add_rule(
        WatchRule(
            "idle-pool",
            "SELECT mach_id FROM activity WHERE value = 'idle'",
            max_staleness=300.0,
            forbid_exceptional=True,
        )
    )
    alerts = monitor.check()
    for alert in alerts:
        print(f"ALERT [{alert.kind}] {alert.message}")
    trips = tel.metrics.counter("trac_monitor_trips_total", {"rule": "idle-pool"})
    print(f"trac_monitor_trips_total{{rule=idle-pool}} = {trips.value:.0f}")

    banner("Telemetry tour 4/4: exporters")
    print("-- span JSONL (first 2 lines) --")
    for line in obs.to_jsonl(tel.tracer.finished_spans()).splitlines()[:2]:
        print(line[:100] + ("..." if len(line) > 100 else ""))
    print()
    print("-- Prometheus text (report counters) --")
    for line in obs.prometheus_text(tel.metrics).splitlines():
        if line.startswith(("trac_reports_total", "trac_backend_queries_total")):
            print(line)
    print()
    print("-- render_summary (what `trac stats` / `.stats` print) --")
    print(obs.render_summary(tel))

    monitor.close()
    reporter.close()


if __name__ == "__main__":
    main()
