#!/usr/bin/env python
"""Reproduce the Section 5.1 interactive session, NOTICE for NOTICE.

The paper shows a psql transcript of ``recencyReport`` over an 11-machine
Activity instance: m1 and m3 are idle; m2 is a month out of date (the
exceptional source); m4..m11 reported within minutes. This script rebuilds
that exact state and prints the same report.

Run:  python examples/paper_session.py
"""

from repro import (
    Catalog,
    Column,
    FiniteDomain,
    RecencyReporter,
    SQLiteBackend,
    TableSchema,
)

#: 2006-03-15 14:00:05 UTC.
BASE = 1_142_431_205.0
MACHINES = [f"m{i}" for i in range(1, 12)]


def build_backend() -> SQLiteBackend:
    machines = FiniteDomain(MACHINES)
    activity = TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machines),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP"),
        ],
        source_column="mach_id",
    )
    backend = SQLiteBackend(Catalog([activity]))

    backend.insert_rows(
        "activity",
        [
            ("m1", "idle", BASE - 900.0),
            ("m2", "busy", BASE - 2000.0),
            ("m3", "idle", BASE - 300.0),
        ],
    )
    # The transcript's heartbeats: m1 at 14:20:05, m3 at 14:40:05, m2 a
    # month earlier, m4..m11 one minute apart from 14:21:05.
    backend.upsert_heartbeat("m1", BASE + 20 * 60)
    backend.upsert_heartbeat("m2", BASE - (29 * 86400 + 20 * 3600 + 37 * 60 + 5))
    backend.upsert_heartbeat("m3", BASE + 40 * 60)
    for i in range(4, 12):
        backend.upsert_heartbeat(f"m{i}", BASE + (17 + i) * 60)
    return backend


def main() -> None:
    backend = build_backend()
    reporter = RecencyReporter(backend, create_temp_tables=True)

    query = "SELECT mach_id, value FROM activity A WHERE value = 'idle'"
    print("mydb=# SELECT * FROM recencyReport($$")
    print("           SELECT mach_id, value FROM Activity A")
    print("           WHERE value = 'idle'$$)")
    print("       AS t(mach_id TEXT, activity TEXT);")

    report = reporter.report(query)
    for notice in report.notices():
        print(notice)

    print()
    print(" mach_id | activity")
    print("---------+----------")
    for mach_id, value in sorted(report.result.rows):
        print(f" {mach_id:<7} | {value}")
    print(f"({len(report.result.rows)} rows)")

    print()
    print("-- query the exceptional relevant data sources")
    print(f"mydb=# SELECT * FROM {report.temp_tables.exceptional};")
    print(" sid | recency timestamp")
    print("-----+--------------------")
    rows = backend.execute(
        f"SELECT sid, recency FROM {report.temp_tables.exceptional}"
    ).rows
    from repro.core.statistics import format_timestamp

    for sid, recency in rows:
        print(f" {sid:<3} | {format_timestamp(recency)}")
    print(f"({len(rows)} row{'s' if len(rows) != 1 else ''})")

    print()
    print("-- query the \"normal\" relevant data sources")
    print(f"mydb=# SELECT * FROM {report.temp_tables.normal};")
    print(" sid | recency timestamp")
    print("-----+--------------------")
    rows = backend.execute(
        f"SELECT sid, recency FROM {report.temp_tables.normal}"
    ).rows
    for sid, recency in rows:
        print(f" {sid:<3} | {format_timestamp(recency)}")
    print(f"({len(rows)} rows)")

    reporter.close()
    backend.close()


if __name__ == "__main__":
    main()
