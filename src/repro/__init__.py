"""TRAC — recency and consistency reporting for databases with distributed
data sources.

A full reproduction of Huang, Naughton and Livny, *"TRAC: Toward Recency and
Consistency Reporting in a Database with Distributed Data Sources"*
(VLDB 2006). See DESIGN.md for the system inventory and EXPERIMENTS.md for
the paper-vs-measured record.

Quickstart
----------
>>> from repro import (
...     Catalog, TableSchema, Column, FiniteDomain,
...     MemoryBackend, RecencyReporter,
... )
>>> activity = TableSchema(
...     "Activity",
...     [
...         Column("mach_id", "TEXT", FiniteDomain({"m1", "m2", "m3"})),
...         Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
...         Column("event_time", "TIMESTAMP"),
...     ],
...     source_column="mach_id",
... )
>>> backend = MemoryBackend(Catalog([activity]))
>>> backend.insert_rows("Activity", [("m1", "idle", 100.0)])
>>> backend.upsert_heartbeat("m1", 100.0)
>>> backend.upsert_heartbeat("m2", 90.0)
>>> backend.upsert_heartbeat("m3", 120.0)
>>> reporter = RecencyReporter(backend)
>>> report = reporter.report(
...     "SELECT mach_id FROM Activity WHERE mach_id IN ('m1','m2') AND value = 'idle'"
... )
>>> sorted(report.relevant_source_ids)
['m1', 'm2']
"""

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.backends import MemoryBackend, SQLiteBackend
from repro.core import RecencyMonitor, WatchRule, RecencyReporter

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "Column",
    "FiniteDomain",
    "TableSchema",
    "MemoryBackend",
    "SQLiteBackend",
    "RecencyMonitor",
    "WatchRule",
    "RecencyReporter",
    "__version__",
]
