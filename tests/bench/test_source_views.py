"""Tier-1 gate, counted not timed: a report carries its relevant sources as
two columns, ``(ids, recencies)``, and builds a
:class:`~repro.core.statistics.SourceRecency` only when a caller asks.

Every ``SourceRecency.__init__`` is counted. Over 10,000 sources a report
builds at most two (the statistics' least and most recent source) through
``report()``, ``relevant_source_ids`` and ``to_dict()``. Reading
``normal_sources`` then builds one per normal source, once. The gate runs
on the three fetch stages: a from-scratch memory ``NOT IN``, an incremental
hit and a federated merge.
"""

from types import SimpleNamespace

import pytest

from repro import MemoryBackend
from repro.core.report import RecencyReporter
from repro.core.statistics import SourceRecency
from repro.federation import FederationCoordinator, ShardInfo, ShardRegistry
from repro.federation.rpc import RPCServer
from repro.incremental import IncrementalMaintainer
from repro.workload import WorkloadConfig, loaded_backend, paper_queries

SOURCES = 10_000


@pytest.fixture
def built(monkeypatch):
    """The running count of ``SourceRecency.__init__`` calls."""
    count = [0]
    init = SourceRecency.__init__

    def counting(self, source_id, recency):
        count[0] += 1
        init(self, source_id, recency)

    monkeypatch.setattr(SourceRecency, "__init__", counting)
    return count


@pytest.fixture(scope="module")
def backend():
    backend = loaded_backend(WorkloadConfig(SOURCES, 1), MemoryBackend)
    yield backend
    backend.close()


def assert_views_on_request(make_report, built):
    before = built[0]
    report = make_report()
    assert len(report.relevant_source_ids) >= SOURCES - 6
    document = report.to_dict()
    assert len(document["normal"]) + len(document["exceptional"]) == len(
        report.relevant_source_ids
    )
    assert built[0] - before <= 2
    before = built[0]
    normal = report.normal_sources
    assert built[0] - before == len(normal) == len(report.split.normal_ids)
    assert report.normal_sources is normal
    assert built[0] - before == len(normal)
    assert [[s.source_id, s.recency] for s in normal] == document["normal"]


def test_a_from_scratch_not_in_report(backend, built):
    reporter = RecencyReporter(backend)
    sql = paper_queries(SOURCES)["Q2"]
    assert_views_on_request(lambda: reporter.report(sql), built)


def test_an_incremental_hit(backend, built):
    reporter = RecencyReporter(backend, incremental=IncrementalMaintainer(backend))
    sql = paper_queries(SOURCES)["Q2"]
    assert reporter.report(sql).incremental == "miss"

    def hit():
        report = reporter.report(sql)
        assert report.incremental == "hit"
        return report

    assert_views_on_request(hit, built)


def test_a_federated_merge(built):
    half = SOURCES // 2
    replies = [
        {"results": [[[f"m{i}", 1000.0 + i] for i in range(k * half, (k + 1) * half)]],
         "guards": {}, "degraded": [], "ok": True}
        for k in range(2)
    ]
    servers = [RPCServer(lambda request, k=k: replies[k]).start() for k in range(2)]
    registry = ShardRegistry()
    for k, server in enumerate(servers):
        registry.add(ShardInfo(f"s{k}", server.host, server.port, [f"m{k}"]))
    plan = SimpleNamespace(
        mode="focused", minimal=False, subqueries=[SimpleNamespace(sql="q0", guards=[])]
    )
    coordinator = FederationCoordinator(registry, deadline=5.0, attempt_timeout=2.0)

    def federated():
        report = coordinator.report("q", plan=plan)
        assert report.complete
        return report

    try:
        assert_views_on_request(federated, built)
    finally:
        coordinator.close()
        for server in servers:
            server.stop()
