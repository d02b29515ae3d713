"""One report document: every surface serves ``RecencyReport.to_dict()``.

The same report — one settled grid partition, one query — is produced
in-process, over ``POST /v1/query``, by a ``FederationCoordinator`` whose
single shard holds every machine, and over the ``POST /v1/query`` of a
deployment over that coordinator. Each surface's JSON must be the
report document plus that surface's declared envelope keys and nothing
else, and must agree with the in-process report on everything that is not
a clock reading.
"""

import json
import urllib.request

import pytest

from repro.core.report import RecencyReporter
from repro.deploy import Deployment
from repro.federation import FederationCoordinator, ShardRegistry, ShardServer
from repro.grid.simulator import SimulationConfig
from repro.obs import Telemetry
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig

SQL = "SELECT mach_id, value FROM activity WHERE value = 'busy'"

#: The keys every report document carries, whatever is switched on.
ALWAYS = {
    "sql", "method", "columns", "rows", "notices", "relevant_sources",
    "exceptional_sources", "normal", "exceptional", "degraded",
    "bound_of_inconsistency", "minimal", "timings",
}
#: Keys that appear only when what they describe is on (never as ``null``).
OPTIONAL = {
    "trace_id": "telemetry enabled",
    "profile": "telemetry enabled on reporter and memory backend alike",
    "incremental": "the reporter has an incremental maintainer",
    "provenance": "lineage on",
}
#: Which of them each surface of the fixture below turns on: the reporter
#: and the HTTP surface share one enabled ``Telemetry`` (the backend does
#: not, so no profile); the coordinator follows the disabled default.
ON = {
    "reporter": {"trace_id"},
    "POST /v1/query": {"trace_id"},
    "federation": set(),
    "federated POST /v1/query": set(),
}

#: What each surface may add to the report document.
ENVELOPES = {
    "reporter": set(),
    "POST /v1/query": {"tenant", "queue_wait_seconds"},
    "federation": {"shards_total", "shards_ok", "missing_shards", "stale_shards", "complete"},
}
#: ``trac simulate --shards --serve``: the federated report through the door.
ENVELOPES["federated POST /v1/query"] = ENVELOPES["POST /v1/query"] | ENVELOPES["federation"]

#: Keys that read a clock or a per-request id, so differ between two runs.
VOLATILE = {"timings", "trace_id", "profile"}
#: A federated report runs only the recency side: no user-query rows.
USER_QUERY = {"columns", "rows"}


def fetch_json(url, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=10.0) as response:
        return json.loads(response.read())


@pytest.fixture(scope="module")
def documents():
    """The one report, as each surface's JSON document."""
    shard = ShardServer("s0", SimulationConfig(num_machines=6, seed=3))
    shard.server.start()  # RPC only: no stepping thread, the data stands still
    with shard._lock:
        for _ in range(120):
            shard.sim.step()
    backend = shard.sim.backend
    registry = ShardRegistry()
    registry.register(shard.host, shard.port)
    coordinator = FederationCoordinator(registry, deadline=5.0, attempt_timeout=2.0)
    tel = Telemetry()
    reporter = RecencyReporter(backend, create_temp_tables=False, telemetry=tel)
    try:
        docs = {
            # Through JSON and back, like the wire surfaces (tuples -> lists).
            "reporter": json.loads(json.dumps(reporter.report(SQL).to_dict(), default=str)),
            "federation": json.loads(json.dumps(coordinator.report(SQL).to_dict())),
        }
        with QueryService(backend, ServeConfig(workers=1), telemetry=tel) as service:
            with ObservatoryServer(tel, query_service=service) as server:
                docs["POST /v1/query"] = fetch_json(
                    server.url + "/v1/query", body={"sql": SQL, "tenant": "ops"}
                )
        with Deployment(coordinator, port=0, config=ServeConfig(workers=1), telemetry=tel) as door:
            docs["federated POST /v1/query"] = fetch_json(
                door.server.url + "/v1/query", body={"sql": SQL, "tenant": "ops"}
            )
    finally:
        reporter.close()
        coordinator.close()
        shard.close()
    return docs


@pytest.mark.parametrize("surface", list(ENVELOPES))
def test_surface_serves_the_report_document_plus_its_envelope(documents, surface):
    local, doc = documents["reporter"], documents[surface]
    assert local["relevant_sources"], "the fixture query must have relevant sources"
    assert ON[surface] <= set(OPTIONAL)
    assert set(doc) == ALWAYS | ON[surface] | ENVELOPES[surface]
    skip = VOLATILE | (USER_QUERY if "federat" in surface else set())
    for key in ALWAYS - skip:
        assert doc[key] == local[key], key


def test_envelopes_carry_what_they_declare(documents):
    for surface in ("POST /v1/query", "federated POST /v1/query"):
        served = documents[surface]
        assert served["tenant"] == "ops" and served["queue_wait_seconds"] >= 0.0
    for surface in ("federation", "federated POST /v1/query"):
        fed = documents[surface]
        assert (fed["shards_total"], fed["shards_ok"], fed["complete"]) == (1, 1, True)
        assert fed["missing_shards"] == [] and fed["stale_shards"] == {}
        assert fed["columns"] == [] and fed["rows"] == []


def test_the_document_says_nothing_about_what_is_off(paper_memory_backend):
    """Telemetry off, no maintainer, no lineage: exactly the ``ALWAYS`` keys;
    each optional key arrives with its feature and is never ``null``. A
    ``null`` ``bound_of_inconsistency`` is a finding, not an absence."""
    from repro.incremental import IncrementalMaintainer

    sql = "SELECT mach_id FROM activity WHERE value = 'idle'"
    with RecencyReporter(paper_memory_backend) as plain:
        assert set(plain.report(sql).to_dict()) == ALWAYS
    maintainer = IncrementalMaintainer(paper_memory_backend)
    paper_memory_backend.telemetry = tel = Telemetry()
    with RecencyReporter(
        paper_memory_backend, incremental=maintainer, lineage=True, telemetry=tel
    ) as full:
        doc = full.report(sql).to_dict()
    paper_memory_backend.telemetry = None
    assert set(doc) == ALWAYS | set(OPTIONAL)
    assert all(doc[key] is not None for key in OPTIONAL)
    paper_memory_backend.delete_all("heartbeat")
    with RecencyReporter(paper_memory_backend) as plain:
        silent = plain.report(sql).to_dict()
    assert silent["relevant_sources"] == [] and silent["bound_of_inconsistency"] is None


#: ``to_dict()`` without ``timings`` for the paper's queries at 40 sources x 3
#: rows (seed 5; sources 7 and 31 a month stale): sha256 of the sorted-key
#: JSON, and the relevant-source count. Q1-Q4 run Focused, "naive" is Q2 by
#: the Naive method. The same on both backends.
PINNED = {
    "Q1": ("49d451b1b597e9c41773f14357a4939d1f244d2efe6a7e860702d4de619ad79b", 6),
    "Q2": ("492b6cc8616fb002b2207856c2580bd5373c14f3d896b9912c513981b972d603", 34),
    "Q3": ("2f296fc047c086ccd2c3410e2109c0f35a0d36862803a22dc210621b164785df", 6),
    "Q4": ("ecb4657d4843a1b2380259e2c7d86d8f9e73d5152101527279941644c79cf3d7", 36),
    "naive": ("574e449b26c0c55bd06986ff832777bc297e8e919967fc6628334224f3748d0a", 40),
}


@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_paper_query_documents_are_pinned(backend_name):
    import hashlib

    from repro.backends import MemoryBackend, SQLiteBackend
    from repro.workload import WorkloadConfig, loaded_backend, paper_queries

    factory = {"memory": MemoryBackend, "sqlite": SQLiteBackend}[backend_name]
    backend = loaded_backend(WorkloadConfig(40, 3, seed=5, exceptional_sources=(7, 31)), factory)
    queries = paper_queries(40)
    cases = {name: (sql, "focused") for name, sql in queries.items()}
    cases["naive"] = (queries["Q2"], "naive")
    with RecencyReporter(backend) as reporter:
        for name, (sql, method) in cases.items():
            doc = reporter.report(sql, method=method).to_dict()
            del doc["timings"]
            digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()
            assert (digest, len(doc["relevant_sources"])) == PINNED[name], name
            stale = ["Tao31", "Tao7"] if name in ("Q2", "Q4", "naive") else []
            assert doc["exceptional_sources"] == stale
    backend.close()
