"""Synthetic workloads reproducing Section 5.2's experimental setup.

The paper fixed ``data_ratio x num_sources = 10,000,000`` rows in the
Activity table and swept the data ratio from 10 to 1,000,000 by factors of
ten. This package generates that data (at a configurable total), the
Heartbeat and Routing tables that go with it, and the four test queries
Q1–Q4.
"""

from typing import Callable

from repro.backends.base import Backend
from repro.catalog import Catalog
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    workload_catalog,
)
from repro.workload.queries import query_machine_indexes, paper_queries


def loaded_backend(
    config: WorkloadConfig, backend_factory: Callable[[Catalog], Backend]
) -> Backend:
    """A backend holding one workload instance: the benchmark catalog, rows
    generated with Routing mapping the query machines onto themselves (what
    Q3/Q4 and the Naive fpr formulas assume), bulk-loaded."""
    backend = backend_factory(workload_catalog(config.num_sources))
    data = generate_workload(config, query_machine_indexes(config.num_sources))
    load_workload(backend, data)
    return backend


__all__ = [
    "WorkloadConfig",
    "generate_workload",
    "load_workload",
    "loaded_backend",
    "workload_catalog",
    "query_machine_indexes",
    "paper_queries",
]
