#!/usr/bin/env python
"""Quickstart: recency reporting in five minutes.

Builds the paper's Activity table (Table 1), registers heartbeats, and runs
a query through ``RecencyReporter`` with both the Focused and the Naive
method, printing the report the way the PostgreSQL prototype did.

Run:  python examples/quickstart.py
"""

from repro import (
    Catalog,
    Column,
    FiniteDomain,
    MemoryBackend,
    RecencyReporter,
    TableSchema,
)

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

    # Table 1 of the paper (plus two more machines).
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

    # Heartbeats: m2 has been silent for a month — the "exceptional" source.
    backend.upsert_heartbeat("m1", BASE + 20 * 60)
    backend.upsert_heartbeat("m2", BASE - 30 * 24 * 3600)
    backend.upsert_heartbeat("m3", BASE + 40 * 60)
    backend.upsert_heartbeat("m4", BASE + 21 * 60)
    backend.upsert_heartbeat("m5", BASE + 22 * 60)
    return backend


def print_report(report) -> None:
    for notice in report.notices():
        print(notice)
    print()
    print(" | ".join(report.result.columns))
    print("-" * 40)
    for row in report.result.rows:
        print(" | ".join(str(v) for v in row))
    print(f"({len(report.result.rows)} rows)\n")
    print(f"method            : {report.method}")
    print(f"relevant sources  : {sorted(report.relevant_source_ids)}")
    print(f"provably minimal  : {report.minimal}")
    print(f"recency subqueries: {report.plan.sql_statements}")
    print()


def main() -> None:
    backend = build_backend()
    reporter = RecencyReporter(backend, create_temp_tables=True)

    print("=" * 72)
    print("Focused method: which of m1, m2 reported an 'idle' state?")
    print("=" * 72)
    query = (
        "SELECT mach_id, value FROM activity "
        "WHERE mach_id IN ('m1', 'm2') AND value = 'idle'"
    )
    print_report(reporter.report(query))

    print("=" * 72)
    print("Same query, Naive method: every source is reported")
    print("=" * 72)
    print_report(reporter.report(query, method="naive"))

    print("=" * 72)
    print("All idle machines: every source is genuinely relevant here,")
    print("and the month-stale m2 is split out as exceptional")
    print("=" * 72)
    print_report(reporter.report("SELECT mach_id FROM activity WHERE value = 'idle'"))

    # Temp tables persist until the session ends; inspect one.
    report = reporter.report("SELECT mach_id FROM activity WHERE value = 'idle'")
    table = report.temp_tables.normal
    print(f"Recency rows in {table}:")
    for sid, recency in backend.execute(f"SELECT sid, recency FROM {table}").rows:
        print(f"  {sid}: {recency}")
    reporter.close()


if __name__ == "__main__":
    main()
