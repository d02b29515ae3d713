"""Synthetic data generation for the Section 5.2 experiments.

Schema: the Activity / Routing / Heartbeat triple of the paper's examples,
with source names ``Tao1 ... TaoK`` (the paper ran on Tao Linux and its
queries name machines ``Tao1, Tao10, ...``).

Key properties preserved from the paper's generator:

* ``data_ratio x num_sources = total_rows`` in Activity;
* roughly half the activity values are ``idle`` (the queried value) so the
  non-selective queries touch data from almost every source;
* the Routing table has one row per source and **maps the query machines
  onto themselves** — the assumption the paper states when computing the
  Naive method's false-positive rates for Q3/Q4;
* Heartbeat recency timestamps advance one step per source, with an
  optional set of "exceptional" sources frozen far in the past to exercise
  the z-score split.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.backends.base import Backend
from repro.catalog import (
    Catalog,
    Column,
    FiniteDomain,
    TableSchema,
    TimestampDomain,
)
from repro.errors import TracError, check_number

#: Rows per ``insert_rows`` call when :func:`load_workload` bulk-loads.
LOAD_BATCH = 50_000


def source_name(index: int) -> str:
    """Name of the ``index``-th data source (1-based): ``Tao<i>``."""
    if index < 1:
        raise TracError("source indexes are 1-based")
    return f"Tao{index}"


def workload_catalog(num_sources: int) -> Catalog:
    """Catalog for the benchmark schema with finite machine domains."""
    machines = FiniteDomain({source_name(i) for i in range(1, num_sources + 1)})
    activity = TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machines),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )
    routing = TableSchema(
        "routing",
        [
            Column("mach_id", "TEXT", machines),
            Column("neighbor", "TEXT", machines),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )
    return Catalog([activity, routing])


class WorkloadConfig:
    """Parameters of one workload instance.

    Parameters
    ----------
    num_sources:
        Number of data sources (machines).
    data_ratio:
        Rows per source in the Activity table.
    seed:
        RNG seed for value assignment.
    idle_fraction:
        Fraction of activity rows with value ``idle``.
    exceptional_sources:
        Indexes (1-based) of sources whose heartbeat is frozen
        ``exceptional_gap`` seconds before ``base_time`` (z-score outliers).
    skew:
        Zipf exponent for the per-source row counts. 0 (the paper's setup)
        gives every source exactly ``data_ratio`` rows; larger values
        concentrate rows on low-index sources while keeping the *total* at
        ``num_sources x data_ratio`` (every source keeps at least one row).
        An ablation axis: real grids are never uniform.
    """

    #: Epoch timestamp of the oldest event (around the paper's March 2006).
    base_time = 1_142_368_000.0
    #: Seconds between consecutive sources' recency timestamps.
    heartbeat_step = 60.0
    #: How far before ``base_time`` an exceptional source's heartbeat froze.
    exceptional_gap = 30 * 24 * 3600.0

    def __init__(
        self,
        num_sources: int,
        data_ratio: int,
        seed: int = 0,
        idle_fraction: float = 0.5,
        exceptional_sources: Sequence[int] = (),
        skew: float = 0.0,
    ) -> None:
        check_number("num_sources", num_sources, 1)
        check_number("data_ratio", data_ratio, 1)
        check_number("skew", skew, 0)
        self.num_sources = num_sources
        self.data_ratio = data_ratio
        self.seed = seed
        self.idle_fraction = idle_fraction
        self.exceptional_sources = tuple(exceptional_sources)
        self.skew = skew

    def rows_per_source(self) -> List[int]:
        """Per-source Activity row counts (uniform or Zipf-skewed)."""
        if self.skew == 0.0:
            return [self.data_ratio] * self.num_sources
        weights = [1.0 / (i ** self.skew) for i in range(1, self.num_sources + 1)]
        scale = self.total_rows / sum(weights)
        counts = [max(1, int(w * scale)) for w in weights]
        # Fix rounding drift on the largest source, keeping it >= 1.
        drift = self.total_rows - sum(counts)
        counts[0] = max(1, counts[0] + drift)
        return counts

    @property
    def total_rows(self) -> int:
        return self.num_sources * self.data_ratio

    def __repr__(self) -> str:
        return (
            f"WorkloadConfig(sources={self.num_sources}, ratio={self.data_ratio}, "
            f"rows={self.total_rows})"
        )


class WorkloadData:
    """Generated rows, ready to load into any backend."""

    def __init__(
        self,
        config: WorkloadConfig,
        activity: List[Tuple[str, str, float]],
        routing: List[Tuple[str, str, float]],
        heartbeat: List[Tuple[str, float]],
    ) -> None:
        self.config = config
        self.activity = activity
        self.routing = routing
        self.heartbeat = heartbeat

    @property
    def sources(self) -> List[str]:
        return [source_name(i) for i in range(1, self.config.num_sources + 1)]

    def __repr__(self) -> str:
        return (
            f"WorkloadData(activity={len(self.activity)}, routing={len(self.routing)}, "
            f"heartbeat={len(self.heartbeat)})"
        )


def generate_workload(
    config: WorkloadConfig,
    query_machine_indexes: Sequence[int] = (),
) -> WorkloadData:
    """Generate the Activity / Routing / Heartbeat rows.

    ``query_machine_indexes`` are the (1-based) indexes of the machines the
    benchmark queries name; Routing maps that set onto itself (cyclically),
    as the paper assumes when deriving the Naive fpr formulas. All other
    machines route to their successor.
    """
    rng = random.Random(config.seed)
    names = [source_name(i) for i in range(1, config.num_sources + 1)]

    activity: List[Tuple[str, str, float]] = []
    event_time = config.base_time
    for name, row_count in zip(names, config.rows_per_source()):
        idle_count = round(row_count * config.idle_fraction)
        for row_index in range(row_count):
            value = "idle" if row_index < idle_count else "busy"
            activity.append((name, value, event_time))
            event_time += 1.0
    rng.shuffle(activity)

    query_set = [source_name(i) for i in query_machine_indexes if i <= config.num_sources]
    routing = _build_routing(names, query_set, config.base_time)

    exceptional = set(config.exceptional_sources)
    heartbeat: List[Tuple[str, float]] = []
    for i, name in enumerate(names, start=1):
        if i in exceptional:
            recency = config.base_time - config.exceptional_gap
        else:
            recency = config.base_time + i * config.heartbeat_step
        heartbeat.append((name, recency))

    return WorkloadData(config, activity, routing, heartbeat)


def _build_routing(
    names: List[str], query_set: List[str], base_time: float
) -> List[Tuple[str, str, float]]:
    routing: List[Tuple[str, str, float]] = []
    query_cycle: Dict[str, str] = {}
    if query_set:
        for i, name in enumerate(query_set):
            query_cycle[name] = query_set[(i + 1) % len(query_set)]
    for i, name in enumerate(names):
        if name in query_cycle:
            neighbor = query_cycle[name]
        else:
            neighbor = names[(i + 1) % len(names)]
        routing.append((name, neighbor, base_time))
    return routing


def load_workload(backend: Backend, data: WorkloadData) -> None:
    """Bulk-load generated rows into a backend (tables are cleared first)."""
    backend.delete_all("activity")
    backend.delete_all("routing")
    backend.delete_all("heartbeat")
    for start in range(0, len(data.activity), LOAD_BATCH):
        backend.insert_rows("activity", data.activity[start : start + LOAD_BATCH])
    for start in range(0, len(data.routing), LOAD_BATCH):
        backend.insert_rows("routing", data.routing[start : start + LOAD_BATCH])
    for start in range(0, len(data.heartbeat), LOAD_BATCH):
        backend.insert_rows("heartbeat", data.heartbeat[start : start + LOAD_BATCH])
