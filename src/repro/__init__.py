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

from repro.catalog import (
    Catalog,
    Column,
    Domain,
    FiniteDomain,
    IntegerDomain,
    RealDomain,
    TableSchema,
    TextDomain,
    TimestampDomain,
    heartbeat_schema,
    HEARTBEAT_TABLE,
    HEARTBEAT_SOURCE_COLUMN,
    HEARTBEAT_RECENCY_COLUMN,
)
from repro.backends import Backend, MemoryBackend, SQLiteBackend
from repro.core import (
    Alert,
    RecencyMonitor,
    WatchRule,
    explain_sql,
    RecencyReport,
    RecencyReporter,
    RelevancePlan,
    Session,
    SourceRecency,
    brute_force_relevant_sources,
    build_naive_plan,
    build_relevance_plan,
    describe,
    recency_report,
    zscore_split,
)
from repro.core import SourceRegistry
from repro.errors import SimulationError, TracError
from repro.faults import FaultPlan, InjectedFault

__version__ = "1.0.0"

__all__ = [
    "Catalog",
    "Column",
    "Domain",
    "FiniteDomain",
    "IntegerDomain",
    "RealDomain",
    "TextDomain",
    "TimestampDomain",
    "TableSchema",
    "heartbeat_schema",
    "HEARTBEAT_TABLE",
    "HEARTBEAT_SOURCE_COLUMN",
    "HEARTBEAT_RECENCY_COLUMN",
    "Backend",
    "MemoryBackend",
    "SQLiteBackend",
    "Alert",
    "RecencyMonitor",
    "WatchRule",
    "explain_sql",
    "RecencyReport",
    "RecencyReporter",
    "RelevancePlan",
    "Session",
    "SourceRecency",
    "brute_force_relevant_sources",
    "build_naive_plan",
    "build_relevance_plan",
    "describe",
    "recency_report",
    "zscore_split",
    "SourceRegistry",
    "FaultPlan",
    "InjectedFault",
    "TracError",
    "SimulationError",
    "__version__",
]
