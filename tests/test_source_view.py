"""One source view: every deployment's ``/status`` says what the report says.

One heartbeat set — 16 sources, one far enough behind for ``|z| >= 3`` (the
largest ``|z|`` n values can reach is ``sqrt(n - 1)``, so n >= 11) — is shown
three ways: by a ``GridSimulator`` (``trac simulate --serve``), by a
``QueryService`` over its mirror (``trac serve``) and by a two-shard registry
(``trac simulate --shards --serve``). Each ``/status`` document must carry
the z-score, the state and the quality a recency report over the same
heartbeats computes, because ``source_rows`` computes them the same way.
"""

import pytest

from repro.backends import MemoryBackend, copy_tables
from repro.core.quality import QualityModel
from repro.core.report import RecencyReporter
from repro.core.sources import SourceRegistry
from repro.durable import DurabilityManager, DurabilityPolicy
from repro.faults import FaultPlan
from repro.federation import FederationCoordinator, ShardRegistry
from repro.federation.coordinator import ShardInfo
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.grid.supervisor import MAX_RESTARTS
from repro.obs import Telemetry
from repro.obs.dashboard import fetch_status
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig

LAGGARD = "m16"
HEARTBEATS = {f"m{i}": 1000.0 + i for i in range(1, 16)}
HEARTBEATS[LAGGARD] = 100.0
NEWEST = max(HEARTBEATS.values())
SIM_NOW = 1020.0


def served_status(provider, **wiring):
    """The document as ``trac top`` would fetch it: over HTTP from ``/status``."""
    with ObservatoryServer(Telemetry(), status_provider=provider, **wiring) as server:
        return fetch_status(server.url)


@pytest.fixture(scope="module")
def simulator():
    sim = GridSimulator(SimulationConfig(num_machines=16, seed=5))
    for mid, recency in HEARTBEATS.items():
        sim.backend.upsert_heartbeat(mid, recency)
        sim.sniffers[mid].record.recency = recency
    sim.now = SIM_NOW
    return sim


@pytest.fixture(scope="module")
def documents(simulator):
    """``{deployment: (its /status document, its clock)}``."""
    docs = {"simulate": (served_status(simulator.status), SIM_NOW)}
    mirror = copy_tables(simulator.backend, MemoryBackend(simulator.catalog))
    with QueryService(mirror, ServeConfig(workers=1)) as service:
        docs["serve"] = (served_status(service.status, query_service=service), NEWEST)
    registry = ShardRegistry()
    for k, machines in enumerate((sorted(HEARTBEATS)[:8], sorted(HEARTBEATS)[8:])):
        info = ShardInfo(f"s{k}", "127.0.0.1", 1, machines)
        info.recency = {mid: HEARTBEATS[mid] for mid in machines}
        registry.add(info)
    docs["shards"] = (served_status(FederationCoordinator(registry).status), NEWEST)
    return docs


@pytest.fixture(scope="module")
def report(simulator):
    with RecencyReporter(simulator.backend) as reporter:
        return reporter.report("SELECT * FROM activity", method="naive")


def rows_of(document):
    return {row["id"]: row for row in document["sources"]}


@pytest.mark.parametrize("deployment", ["simulate", "serve", "shards"])
def test_status_rows_carry_the_reports_verdict(documents, report, deployment):
    document, now = documents[deployment]
    rows = rows_of(document)
    assert set(rows) == set(HEARTBEATS) and document["now"] == now

    exceptional = {s.source_id for s in report.exceptional_sources}
    assert exceptional == {LAGGARD}
    assert {sid for sid, row in rows.items() if row["state"] == "exceptional"} == exceptional
    assert {row["state"] for sid, row in rows.items() if sid != LAGGARD} == {"healthy"}

    split = report.split
    assert abs((split.mean - HEARTBEATS[LAGGARD]) / split.stddev) >= split.threshold
    scores = QualityModel().score_sources(
        list(HEARTBEATS), list(HEARTBEATS.values()), exceptional, set(), now=now
    )
    for sid, row in rows.items():
        assert row["recency"] == HEARTBEATS[sid]
        assert row["z"] == pytest.approx((split.mean - row["recency"]) / split.stddev, abs=1e-9)
        assert row["quality"] == pytest.approx(scores[sid]["quality"], abs=1e-12)
        assert row["age"] == pytest.approx(now - row["recency"])
    assert rows[LAGGARD]["z"] > 0  # positive is staler


def test_every_deployment_shows_the_same_state_and_z(documents):
    views = {name: rows_of(document) for name, (document, _now) in documents.items()}
    for sid in HEARTBEATS:
        states = {name: rows[sid]["state"] for name, rows in views.items()}
        assert len(set(states.values())) == 1, states
        for name in ("serve", "shards"):
            assert views[name][sid]["z"] == pytest.approx(views["simulate"][sid]["z"], abs=1e-9)


def test_a_dead_shards_sources_read_unknown():
    registry = ShardRegistry()
    for k, alive in enumerate((True, False)):
        info = ShardInfo(f"s{k}", "127.0.0.1", 1, [f"m{k + 1}"])
        info.recency, info.alive = {f"m{k + 1}": 50.0 + k}, alive
        registry.add(info)
    rows = rows_of(FederationCoordinator(registry).status())
    assert (rows["m1"]["state"], rows["m2"]["state"]) == ("healthy", "unknown")


def test_a_degraded_source_reads_as_the_registry_and_the_report_say():
    """The ``trac simulate --serve`` wiring, supervised: ``state`` is the source
    registry's, ``quality`` what a ``sources=``-wired report's provenance
    block gives the source, and ``/healthz`` — a projection of the same
    rows — what the registry and the supervisors' breakers say."""
    plan = FaultPlan(seed=11).silence("m3", start=60.0)
    sim = GridSimulator(
        SimulationConfig(num_machines=6, seed=7),
        fault_plan=plan,
        silence_timeout=40.0,
    )
    sim.run(300.0)
    assert sim.sources.degraded() == ["m3"]
    # One source reports at the clock, so the report's reference (the newest
    # relevant heartbeat) and the simulator's clock are the same instant.
    sim.backend.upsert_heartbeat("m1", sim.now)
    sim.sniffers["m1"].record.recency = sim.now

    with ObservatoryServer(Telemetry(), status_provider=sim.status) as server:
        rows = rows_of(fetch_status(server.url))
        healthz = server.healthz()
    with RecencyReporter(sim.backend, sources=sim.sources, lineage=True) as reporter:
        block = reporter.report("SELECT mach_id FROM activity", method="naive").to_dict()
    cited = {source["source_id"]: source for source in block["provenance"]["quality"]["sources"]}

    assert rows["m3"]["state"] == sim.sources.status_of("m3") == "degraded"
    assert rows["m3"]["health"] == sim.sources.health()["m3"]
    assert cited["m3"]["degraded"] and set(cited) == set(rows)
    for sid, row in rows.items():
        assert row["quality"] == pytest.approx(cited[sid]["quality"], abs=1e-12)
    assert healthz["sources"] == sim.sources.health()
    assert healthz["degraded"] == ["m3"] and healthz["status"] == "degraded"
    assert healthz["breakers"] == {mid: sup.breaker.state for mid, sup in sim.supervisors.items()}


RECORD_COLUMNS = (
    "state", "health", "retries", "restarts", "lag", "lag_p95", "burn", "lag_series",
)


def supervised_durable_sim(data_dir, resume=False):
    """The chaos wiring under a data directory: m3 goes silent (and is
    degraded by the watchdog), m2's polls fail four times in ten."""
    return GridSimulator(
        SimulationConfig(num_machines=6, seed=7),
        fault_plan=FaultPlan(seed=11).silence("m3", start=60.0).poll_error("m2", probability=0.4),
        silence_timeout=40.0,
        sources=SourceRegistry(target_p95=20.0),
        durability=DurabilityManager(
            str(data_dir),
            DurabilityPolicy(fsync="never", checkpoint_interval=40.0),
            resume=resume,
        ),
    )


def test_resume_keeps_the_whole_record(tmp_path):
    """Close and re-open: every column a record owns reads as it did, the
    supervisor knows why its source is degraded, and a spent restart budget
    stays spent. ``breaker`` is the one mechanism column: it shows the rebuilt
    breaker's real state."""
    sim = supervised_durable_sim(tmp_path)
    sim.run(300.0)
    before = rows_of(sim.status())
    assert before["m3"]["state"] == "degraded" and before["m2"]["retries"] > 0
    assert before["m2"]["restarts"] >= 1  # the scenario does spend budget
    sim.durability.close(sim.now)

    resumed = supervised_durable_sim(tmp_path, resume=True)
    after = rows_of(resumed.status())
    assert resumed.now == sim.now and set(after) == set(before)
    for sid, row in before.items():
        for column in RECORD_COLUMNS:
            assert after[sid][column] == row[column], (sid, column)
        assert after[sid]["breaker"] == resumed.supervisors[sid].breaker.state

    reason = resumed.sources.health()["m3"]["reason"]
    assert reason.startswith("silent source: no progress for 40s")
    assert resumed.supervisors["m3"].record.reason == reason
    assert resumed.sniffers["m3"].failed  # a degraded source stays dark

    # The restarts m2 spent before the checkpoint stay spent: what is left of
    # its budget restarts it, the next crash degrades it.
    supervisor = resumed.supervisors["m2"]
    for _ in range(MAX_RESTARTS - before["m2"]["restarts"]):
        supervisor._restart(resumed.now)
        assert not supervisor.degraded
    supervisor._restart(resumed.now)
    assert supervisor.degraded and "restart budget exhausted" in supervisor.record.reason
    resumed.durability.close(resumed.now, final_checkpoint=False)
