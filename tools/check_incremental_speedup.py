#!/usr/bin/env python
"""Report: incremental maintenance against recompute, by shape and size.

Steady-state hot-query benchmark (see ``docs/PERFORMANCE.md``): stream N
heartbeats into a ``MemoryBackend``, then repeat one predicate-stable
monitoring query M times while a trickle of fresh heartbeats keeps
landing between reports. Two identically-loaded backends are measured:

* **recompute** — a plain :class:`RecencyReporter`; every report re-runs
  the Heartbeat subquery in a snapshot. For ``IN`` that is a lookup of the
  listed sources in the Heartbeat's key index; for ``NOT IN`` a scan of
  all N, since every source but the listed ones is relevant;
* **incremental** — the same reporter wired to an
  :class:`~repro.incremental.IncrementalMaintainer`; after the first
  (miss) report the maintainer remembers which Heartbeat positions are
  relevant, so a report reads the recencies at those positions in its
  snapshot (and decides any position appended since).

For each shape (``IN``, ``NOT IN``) and size the script prints both medians,
the maintainer's lead (recompute / incremental) and how recompute read the
Heartbeat. The lead is a measurement, not a gate: the script fails only
when the two backends' final reports differ, or the hot query was not
served incrementally — a perf win that changed the answer would be no win.

Run:  python tools/check_incremental_speedup.py [--runs N] [--num-sources N ...]
Exit status 0 when every answer agreed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from repro import obs
from repro.backends.memory import MemoryBackend
from repro.catalog import Catalog, Column, TableSchema
from repro.core.report import RecencyReporter
from repro.engine.profile import profile_query
from repro.incremental import IncrementalMaintainer

#: The hot queries: predicate structure stays fixed while heartbeats stream.
#: ``IN`` names three relevant sources, ``NOT IN`` all but three.
SHAPES = {
    word: f"SELECT mach_id FROM activity WHERE mach_id {word} ('s1', 's2', 's3') "
    "AND value = 'idle'"
    for word in ("IN", "NOT IN")
}

#: Heartbeat upserts landing between consecutive reports (steady state).
UPSERTS_PER_REPORT = 10


def build_backend(num_sources: int) -> MemoryBackend:
    catalog = Catalog(
        [
            TableSchema(
                "activity",
                [Column("mach_id", "TEXT"), Column("value", "TEXT")],
                source_column="mach_id",
            )
        ]
    )
    backend = MemoryBackend(catalog)
    backend.insert_rows(
        "activity", [(f"s{i}", "idle" if i != 2 else "busy") for i in range(1, 5)]
    )
    for i in range(num_sources):
        backend.upsert_heartbeat(f"s{i}", 1000.0 + i)
    return backend


def measure(sides, sql: str, runs: int, num_sources: int):
    """Median seconds per report in steady state, one per ``(backend,
    reporter)`` side (first run discarded as warm-up — it is the
    incremental path's registration miss). The sides alternate report by
    report, so a host stall lands on a sample of each rather than on one
    side's whole phase, and medians ignore the sample it does land on. The
    same deterministic heartbeat trickle lands before every report so the
    backends stay identical and maintenance cost is paid inside the loop."""
    samples = [[] for _ in sides]
    for run in range(runs):
        for side, (backend, reporter) in zip(samples, sides):
            for j in range(UPSERTS_PER_REPORT):
                sid = (run * UPSERTS_PER_REPORT + j) % num_sources
                backend.upsert_heartbeat(f"s{sid}", 2000.0 + run + j / 10.0)
            start = time.perf_counter()
            reporter.report(sql, method="focused")
            side.append(time.perf_counter() - start)
    return [statistics.median(side[1:] or side) for side in samples]


def heartbeat_read(backend: MemoryBackend, reporter: RecencyReporter, sql: str):
    """The scan operator of ``sql``'s Heartbeat subquery, run on a snapshot
    view as a report runs it: its detail says whether it was an index lookup,
    its ``rows_in`` how many Heartbeat rows it read."""
    subquery = reporter.plan_for(sql).subqueries[0].sql
    view = backend.db.snapshot_view()
    try:
        return profile_query(view, subquery).operators[0]
    finally:
        backend.db.release_view(view)


def compare(num_sources: int, sql: str, runs: int) -> dict:
    """One row of the table: both medians, the final verdict, whether the
    final reports agreed, and recompute's Heartbeat read."""
    recompute_backend = build_backend(num_sources)
    recompute = RecencyReporter(recompute_backend, plan_cache_size=32)
    incremental_backend = build_backend(num_sources)
    incremental = RecencyReporter(
        incremental_backend, plan_cache_size=32,
        incremental=IncrementalMaintainer(incremental_backend),
    )
    t_recompute, t_incremental = measure(
        [(recompute_backend, recompute), (incremental_backend, incremental)],
        sql, runs, num_sources,
    )
    # Same mutation sequence hit both backends: the answers must agree.
    final_recompute = recompute.report(sql)
    final_incremental = incremental.report(sql)
    return {
        "recompute": t_recompute,
        "incremental": t_incremental,
        "agreed": final_recompute.split.normal == final_incremental.split.normal
        and final_recompute.split.exceptional == final_incremental.split.exceptional,
        "verdict": final_incremental.incremental,
        "read": heartbeat_read(recompute_backend, recompute, sql),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=31)
    parser.add_argument(
        "--num-sources", type=int, nargs="+", default=[1_000, 8_000, 100_000]
    )
    args = parser.parse_args(argv)

    obs.disable()
    print(f"incremental maintenance vs recompute (median ms per report, {args.runs} runs)")
    print(f"  {'sources':>8}  {'shape':<6}  {'recompute':>9}  {'incremental':>11}  "
          f"{'lead':>7}  recompute's Heartbeat read")
    failed = False
    for num_sources in args.num_sources:
        for shape, sql in SHAPES.items():
            row = compare(num_sources, sql, args.runs)
            lead = row["recompute"] / row["incremental"] if row["incremental"] else float("inf")
            read = row["read"]
            print(f"  {num_sources:>8}  {shape:<6}  {row['recompute'] * 1e3:9.3f}  "
                  f"{row['incremental'] * 1e3:11.3f}  {lead:6.2f}x  "
                  f"{read.detail.partition(',')[0]}, {read.rows_in} rows")
            if not row["agreed"]:
                print(f"FAIL: {shape} at {num_sources}: incremental report diverged "
                      "from recompute", file=sys.stderr)
                failed = True
            if row["verdict"] != "hit":
                print(f"FAIL: {shape} at {num_sources}: hot query was not served "
                      f"incrementally (verdict {row['verdict']!r})", file=sys.stderr)
                failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
