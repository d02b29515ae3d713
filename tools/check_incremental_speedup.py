#!/usr/bin/env python
"""Guard: incremental maintenance must keep hot reports >= 5x recompute.

Steady-state hot-query benchmark (see ``docs/PERFORMANCE.md``): stream N
heartbeats into a ``MemoryBackend``, then repeat one predicate-stable
monitoring query M times while a trickle of fresh heartbeats keeps
landing between reports. Two identically-loaded backends are measured:

* **recompute** — a plain :class:`RecencyReporter`; every report re-runs
  the heartbeat subqueries, i.e. an O(N) scan per report;
* **incremental** — the same reporter wired to an
  :class:`~repro.incremental.IncrementalMaintainer`; after the first
  (miss) report the relevant-source set is materialized and each
  heartbeat maintains it in O(affected entries), so a report pays a
  dictionary copy.

The script asserts the measured speedup meets the threshold (default 5x)
and that the final reports of both backends are identical — a perf win
that changed the answer would be no win at all.

Run:  python tools/check_incremental_speedup.py [--runs N] [--threshold X]
Exit status 0 when the speedup holds, 1 otherwise.
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
from repro.incremental import IncrementalMaintainer

#: The hot query: predicate structure stays fixed while heartbeats stream.
HOT_QUERY = (
    "SELECT mach_id FROM activity "
    "WHERE mach_id IN ('s1', 's2', 's3') AND value = 'idle'"
)

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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=31)
    parser.add_argument("--threshold", type=float, default=5.0, help="min speedup")
    parser.add_argument("--num-sources", type=int, default=8000)
    args = parser.parse_args(argv)

    obs.disable()

    recompute_backend = build_backend(args.num_sources)
    recompute = RecencyReporter(recompute_backend, plan_cache_size=32)
    incremental_backend = build_backend(args.num_sources)
    maintainer = IncrementalMaintainer(incremental_backend)
    incremental = RecencyReporter(
        incremental_backend, plan_cache_size=32, incremental=maintainer
    )
    t_recompute, t_incremental = measure(
        [(recompute_backend, recompute), (incremental_backend, incremental)],
        HOT_QUERY,
        args.runs,
        args.num_sources,
    )

    # Same mutation sequence hit both backends: the answers must agree.
    final_recompute = recompute.report(HOT_QUERY)
    final_incremental = incremental.report(HOT_QUERY)
    if (
        final_recompute.split.normal != final_incremental.split.normal
        or final_recompute.split.exceptional != final_incremental.split.exceptional
    ):
        print("FAIL: incremental report diverged from recompute", file=sys.stderr)
        return 1
    if final_incremental.incremental != "hit":
        print(
            f"FAIL: hot query was not served incrementally "
            f"(verdict {final_incremental.incremental!r})",
            file=sys.stderr,
        )
        return 1

    speedup = t_recompute / t_incremental if t_incremental > 0 else float("inf")
    stats = maintainer.stats()

    print("incremental speedup guard")
    print(f"  heartbeat sources                    : {args.num_sources}")
    print(f"  recompute report time (O(N) scan)    : {t_recompute * 1e3:9.3f} ms")
    print(f"  incremental report time (dict copy)  : {t_incremental * 1e3:9.3f} ms")
    print(f"  speedup                              : {speedup:9.2f} x"
          f"  (threshold {args.threshold}x)")
    print(f"  maintainer hit rate                  : {stats['hit_rate'] * 100:8.1f} %"
          f"  ({stats['updates']} maintenance updates)")

    if speedup < args.threshold:
        print("FAIL: incremental speedup fell below the threshold", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
