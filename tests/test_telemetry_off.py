"""Telemetry off stays empty — the guard contract, checked on the whole system.

``Telemetry(enabled=False)`` owns ordinary structures; they stay empty only
because every recording site in ``src/`` sits under ``if tel.enabled:``
(see :mod:`repro.obs.instrument`). One run through every instrumented
subsystem on the disabled default finds the site that forgot its guard: an
unguarded ``tel.tracer.span(...)`` or ``tel.profiles.record(...)`` leaves a
span or a profile behind where a no-op twin used to swallow it.
"""

import urllib.error
import urllib.request

import pytest

from repro import MemoryBackend, obs
from repro.core.report import RecencyReporter
from repro.core.sources import SourceRegistry
from repro.durable import DurabilityManager, DurabilityPolicy, recover
from repro.faults import FaultPlan
from repro.federation import FederationCoordinator, ShardRegistry, ShardServer
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import NULL_TELEMETRY, Telemetry
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig

SQL = "SELECT mach_id, value FROM activity WHERE value = 'busy'"
JOIN_SQL = (
    "SELECT a.mach_id, COUNT(*) FROM activity a, routing r "
    "WHERE a.mach_id = r.mach_id GROUP BY a.mach_id"
)


@pytest.fixture(autouse=True)
def disabled_default():
    obs.disable()
    yield
    obs.disable()


def retained(tel):
    """Everything a telemetry holds, as counts (all zero = nothing recorded)."""
    return {
        "spans": len(tel.tracer.finished_spans()),
        "spans_dropped": tel.tracer.dropped,
        "open_span": tel.tracer.current_span(),
        "instruments": len(tel.metrics),
        "events": (len(tel.events), tel.events.total),
        "profiles": (len(tel.profiles), tel.profiles.total),
        "provenance": (len(tel.provenance), tel.provenance.total),
    }


EMPTY = retained(Telemetry(enabled=False))


def test_the_whole_system_leaves_the_disabled_default_empty(tmp_path, monkeypatch):
    tel = obs.get_default()
    assert tel is NULL_TELEMETRY and type(tel) is Telemetry and tel.enabled is False
    assert retained(tel) == EMPTY

    # A supervised grid under a fault plan, journaled, incrementally maintained.
    plan = (
        FaultPlan(seed=11)
        .silence("m3", start=60.0)
        .poll_error("m2", probability=0.2)
        .backend_error("*", op="heartbeat", at=[50.0])
        .durability_error("*", op="wal", probability=0.05)
        .durability_error("*", op="checkpoint", probability=0.3)
    )
    data_dir = str(tmp_path / "data")
    durability = DurabilityManager(
        data_dir, DurabilityPolicy(fsync="never", checkpoint_interval=40.0)
    )
    sources = SourceRegistry(target_p95=20.0)
    sim = GridSimulator(
        SimulationConfig(num_machines=6, seed=7),
        fault_plan=plan,
        silence_timeout=40.0,
        sources=sources,
        durability=durability,
        incremental=True,
    )
    sim.run(300.0)
    assert plan.injected and sources.degraded()

    # Reports by all three methods, lineage on, every annotation wired.
    monkeypatch.setenv("TRAC_SLOW_QUERY_SECONDS", "1e-9")
    with RecencyReporter(
        sim.backend,
        create_temp_tables=True,
        plan_cache_size=8,
        sources=sources,
        incremental=sim.incremental,
        lineage=True,
    ) as reporter:
        for sql in (SQL, JOIN_SQL, SQL):
            for method in ("focused", "focused_hardcoded", "naive"):
                plan_ = reporter.plan_for(sql) if method == "focused_hardcoded" else None
                report = reporter.report(sql, method=method, plan=plan_)
                assert report.provenance is not None
                assert report.trace_id is None and report.profile is None

    # One served request (it asks for no span context) and one federated
    # report.
    with QueryService(sim.backend, ServeConfig(workers=1, lineage=True)) as service:
        with monkeypatch.context() as patched:
            patched.setattr(tel.tracer, "current_span", lambda: pytest.fail("asked for a span"))
            assert service.query(SQL)["relevant_sources"]
    shard = ShardServer("s0", SimulationConfig(num_machines=3, seed=3))
    shard.server.start()
    registry = ShardRegistry()
    coordinator = FederationCoordinator(registry, deadline=5.0, attempt_timeout=2.0)
    try:
        with shard._lock:
            for _ in range(60):
                shard.sim.step()
        registry.register(shard.host, shard.port)
        assert coordinator.report(SQL).complete
    finally:
        coordinator.close()
        shard.close()

    # A WAL recovery into a fresh backend.
    durability.close(sim.now, final_checkpoint=False)
    fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
    assert recover(data_dir, backend=fresh).replayed_events > 0

    assert retained(tel) == EMPTY


def test_an_unguarded_direct_call_is_what_the_run_above_would_catch():
    """The detector detects: the twins' ``span()`` / ``record()`` absorbed
    such a call; the real structures of a disabled telemetry keep it."""
    tel = Telemetry(enabled=False)
    with tel.tracer.span("forgot.the.guard"):
        pass
    tel.profiles.record(object())
    assert retained(tel) != EMPTY
    assert retained(tel)["spans"] == 1 and retained(tel)["profiles"] == (1, 1)


# -- the read side ------------------------------------------------------------
#
# Status and body of every observatory GET endpoint over a disabled
# telemetry, as served at the parent commit by the no-op twins.

_HEALTHZ = '{"degraded": [], "events": {"retained": 0, "total": 0}, "sources": {}, "status": "ok"}'
_TRACE = "a" * 32
_ENDPOINTS = (
    '"endpoints": ["/metrics", "/healthz", "/spans", "/events", '
    '"/profile", "/trace/<id>", "/provenance/<trace_id>", "/status", "/v1/query"]}'
)

DISABLED_ENDPOINTS = {
    "/": (404, '{"error": "unknown path \'/\'", ' + _ENDPOINTS),
    "/metrics": (200, ""),
    "/spans": (200, ""),
    "/spans?limit=5": (200, ""),
    "/events": (200, ""),
    "/events?limit=5": (200, ""),
    "/profile": (200, "[]"),
    "/profile?limit=2": (200, "[]"),
    "/healthz": (200, _HEALTHZ),
    "/status": (200, '{"healthz": ' + _HEALTHZ + "}"),
    "/trace/" + _TRACE: (404, '{"error": "no telemetry for trace \'' + _TRACE + '\'"}'),
    "/provenance/" + _TRACE: (404, '{"error": "no provenance for trace \'' + _TRACE + '\'"}'),
    # One front door: the GET report endpoint is gone, POST /v1/query is the path.
    "/query?sql=SELECT+1": (404, '{"error": "unknown path \'/query\'", ' + _ENDPOINTS),
}


@pytest.mark.parametrize("path", list(DISABLED_ENDPOINTS))
def test_get_endpoints_over_a_disabled_telemetry_serve_what_they_served(path):
    status, body = DISABLED_ENDPOINTS[path]
    with ObservatoryServer(obs.get_default()) as server:
        try:
            with urllib.request.urlopen(server.url + path, timeout=10.0) as response:
                served = response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            served = exc.code, exc.read().decode("utf-8")
    assert served == (status, body)
    assert retained(obs.get_default()) == EMPTY


def test_flight_recorder_installs_on_and_summary_renders_a_disabled_telemetry(tmp_path):
    tel = obs.get_default()
    recorder = FlightRecorder(tel, str(tmp_path))
    recorder.install()
    try:
        assert tel.emit("source.degraded", source="m1", severity="error") is None
    finally:
        recorder.uninstall()
    assert recorder.dumps == [] and list(tmp_path.iterdir()) == []
    assert obs.render_summary(tel) == (
        "telemetry is disabled (enable with TRAC_TELEMETRY=1 or repro.obs.enable())"
    )
