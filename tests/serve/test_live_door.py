"""The live front door: ``POST /v1/query`` while the database loads.

A ``GridSimulator`` (32 machines, one silenced, one with a flaky sniffer)
steps flat out inside a :class:`~repro.deploy.Deployment` while four clients
query it over HTTP. Every answer's rows and recency must come from one
snapshot — recency is never overstated, and since a poll's rows and its
heartbeat land as one write, never understated either — and once ingest
stops the answer must cover the brute-force minimum.
"""

import json
import threading
import time
import urllib.request

from repro.core.bruteforce import brute_force_relevant_sources
from repro.deploy import Deployment
from repro.faults import FaultPlan
from repro.grid import GridSimulator, SimulationConfig
from repro.grid.events import EventKind
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve

MACHINES = 32
CLIENTS = 4
REQUESTS_PER_CLIENT = 24
SILENCED, FLAKY = "m3", "m5"

SINGLE = "SELECT mach_id, event_time FROM activity"
JOIN = (
    "SELECT A.mach_id FROM routing R, activity A "
    "WHERE R.neighbor = A.mach_id AND A.value = 'idle'"
)


def post(url, sql):
    request = urllib.request.Request(url + "/v1/query", data=json.dumps({"sql": sql}).encode())
    with urllib.request.urlopen(request, timeout=30.0) as response:
        assert response.status == 200
        return json.loads(response.read())


def reported(doc):
    return dict(map(tuple, doc["normal"] + doc["exceptional"]))


def acknowledged(sim, source, at_least):
    """The sniffer's acknowledged recency, read after the response arrived.
    The record is written one statement after the heartbeat row, so a reading
    behind the response waits out the tick in flight before it counts."""
    record = sim.sniffers[source].record
    tick, deadline = sim.now, time.monotonic() + 10.0
    while record.recency < at_least and sim.now == tick and time.monotonic() < deadline:
        time.sleep(0)
    return record.recency


def newest_state_event(sim, source, up_to):
    """Timestamp of ``source``'s newest MACHINE_STATE log record at or before
    ``up_to`` (``None`` when it logged none by then)."""
    log = sim.machines[source].log
    stamps = [
        event.timestamp
        for event in list(getattr(log, "inner", log))
        if event.kind is EventKind.MACHINE_STATE and event.timestamp <= up_to
    ]
    return max(stamps, default=None)


def client(url, sim, failures):
    try:
        last = {}
        for k in range(REQUESTS_PER_CLIENT):
            known_degraded = set(sim.sources.degraded())
            doc = post(url, SINGLE if k % 2 == 0 else JOIN)
            recency = reported(doc)
            # (c) a source the ingest path had degraded is named.
            assert known_degraded <= set(doc["degraded"])
            for source, value in recency.items():
                # (a) never newer than what ingest acknowledged; monotone.
                assert value <= acknowledged(sim, source, value), source
                assert value >= last.get(source, value), source
            last.update(recency)
            if doc["sql"] != SINGLE:
                continue
            # (b) rows and recency came from one snapshot: a machine's row is
            # at least as new as its newest state change the recency covers.
            rows = dict(map(tuple, doc["rows"]))
            for source, value in recency.items():
                expected = newest_state_event(sim, source, value)
                if expected is not None:
                    assert rows[source] >= expected, (source, rows[source], expected, value)
            # (d) a poll's rows and its heartbeat land as one write: no row is
            # newer than its source's reported recency (and none lacks one).
            for source, stamp in rows.items():
                assert stamp <= recency.get(source, float("-inf")), (source, stamp, recency)
    except BaseException as exc:  # noqa: BLE001 — reported by the main thread
        failures.append(exc)


def test_every_answer_is_one_snapshot_of_a_database_that_is_loading():
    plan = FaultPlan(seed=3).silence(SILENCED, start=30.0).poll_error(FLAKY, probability=0.3)
    sim = GridSimulator(
        SimulationConfig(num_machines=MACHINES, seed=5),
        fault_plan=plan,
        silence_timeout=60.0,
    )
    failures = []
    with Deployment(sim, port=0) as deployment:
        url = deployment.server.url
        deployment.start_stepping(0)
        stepper = next(t for t in threading.enumerate() if t.name == "trac-step")
        deadline = time.monotonic() + 30.0
        while SILENCED not in sim.sources.degraded():
            assert stepper.is_alive() and time.monotonic() < deadline
            time.sleep(0.01)
        clients = [
            threading.Thread(target=client, args=(url, sim, failures)) for _ in range(CLIENTS)
        ]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert stepper.is_alive(), "ingest must have run beside every request"
        assert not failures, failures[0]
        assert plan.injected.get("poll_error"), "the flaky sniffer never failed a poll"

        deployment.stop()
        stepper.join(timeout=10.0)
        assert not stepper.is_alive()
        for sql in (SINGLE, JOIN):
            doc = post(url, sql)
            exact = brute_force_relevant_sources(
                sim.backend.db, resolve(parse_query(sql), sim.catalog)
            )
            assert set(doc["relevant_sources"]) >= exact, sql
            assert SILENCED in doc["degraded"]
            assert reported(doc) == {
                source: recency
                for source, recency in sim.backend.heartbeat_rows()
                if source in doc["relevant_sources"]
            }
