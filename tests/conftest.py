"""Shared fixtures: the paper's example schema and data, plus backends."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

#: "deep" multiplies every example budget by this and drops the deadline:
#: the default 100 becomes 2,000, and a test's own max_examples=N becomes
#: N times this (``pytest_collection_modifyitems``). Select it with
#: HYPOTHESIS_PROFILE=deep (the nightly run).
DEEP_FACTOR = 20
settings.register_profile("default", settings())
settings.register_profile(
    "deep",
    settings(max_examples=100 * DEEP_FACTOR, deadline=None, print_blob=True),
)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items) -> None:
    """Under "deep", multiply the example budget each Hypothesis test set
    for itself by DEEP_FACTOR and drop its deadline: a test's own
    ``@settings(max_examples=N)`` wins over any profile, so the profile
    alone would leave it at N. A test that set no budget already runs the
    profile's."""
    if PROFILE != "deep":
        return
    # One function may be many items (parametrized): deepen it once.
    for test in {getattr(item.obj, "__func__", item.obj) for item in items if hasattr(item, "obj")}:
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if getattr(test, "is_hypothesis_test", False):
            if own.max_examples != settings.default.max_examples:
                test._hypothesis_internal_use_settings = settings(
                    own, max_examples=own.max_examples * DEEP_FACTOR, deadline=None
                )


from repro import (
    Catalog,
    Column,
    FiniteDomain,
    MemoryBackend,
    SQLiteBackend,
    TableSchema,
)
from repro.catalog import TimestampDomain

#: Machine ids used by the paper's running examples (Sections 4 and 5.1 use
#: m1..m3 in the tables and m1..m11 in the session transcript).
MACHINES = tuple(f"m{i}" for i in range(1, 12))

#: Base epoch used for the sample heartbeats: 2006-03-15 14:00:05 UTC.
BASE_TIME = 1_142_431_205.0


def machine_domain() -> FiniteDomain:
    return FiniteDomain(MACHINES)


def activity_schema() -> TableSchema:
    return TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machine_domain()),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )


def routing_schema() -> TableSchema:
    return TableSchema(
        "routing",
        [
            Column("mach_id", "TEXT", machine_domain()),
            Column("neighbor", "TEXT", machine_domain()),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )


@pytest.fixture
def paper_catalog() -> Catalog:
    """Activity + Routing, as in the paper's Sections 4.1.1 / 4.1.2."""
    return Catalog([activity_schema(), routing_schema()])


def _load_paper_data(backend) -> None:
    # Table 1 (Activity) and Table 2 (Routing), with event times as epochs.
    backend.insert_rows(
        "activity",
        [
            ("m1", "idle", BASE_TIME - 1000.0),
            ("m2", "busy", BASE_TIME - 2000.0),
            ("m3", "idle", BASE_TIME - 500.0),
        ],
    )
    backend.insert_rows(
        "routing",
        [
            ("m1", "m3", BASE_TIME - 800.0),
            ("m2", "m3", BASE_TIME - 1800.0),
        ],
    )
    # Heartbeats mirroring the Section 5.1 transcript: m2 is a month stale
    # (the "exceptional" source), m1 the least recent normal source, m3 the
    # most recent, m4..m11 spread one minute apart in between.
    backend.upsert_heartbeat("m1", BASE_TIME + 20 * 60 + 0.0)       # 14:20:05
    backend.upsert_heartbeat("m2", BASE_TIME - 30 * 24 * 3600.0)    # a month ago
    backend.upsert_heartbeat("m3", BASE_TIME + 40 * 60 + 0.0)       # 14:40:05
    for i in range(4, 12):
        backend.upsert_heartbeat(f"m{i}", BASE_TIME + (17 + i) * 60.0)


@pytest.fixture
def paper_memory_backend(paper_catalog) -> MemoryBackend:
    backend = MemoryBackend(paper_catalog)
    _load_paper_data(backend)
    return backend


@pytest.fixture
def paper_sqlite_backend(paper_catalog):
    backend = SQLiteBackend(paper_catalog)
    _load_paper_data(backend)
    yield backend
    backend.close()


@pytest.fixture(params=["memory", "sqlite"])
def paper_backend(request, paper_catalog):
    """Both backends, parametrized, loaded with the paper's sample data."""
    if request.param == "memory":
        backend = MemoryBackend(paper_catalog)
        _load_paper_data(backend)
        yield backend
    else:
        backend = SQLiteBackend(paper_catalog)
        _load_paper_data(backend)
        yield backend
        backend.close()
