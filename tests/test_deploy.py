"""``repro.deploy.Deployment``: one composition, one teardown order."""

import pathlib
import re
import socket
import threading

import pytest

from repro import obs
from repro.deploy import Deployment
from repro.durable import DurabilityManager
from repro.federation import ShardServer
from repro.grid import GridSimulator, SimulationConfig

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def front_door_threads():
    """Live accept and connection-handler threads, as objects: a test
    compares them against the set it started with, so a thread another test
    left behind (or has not yet joined) is never this test's."""
    return {
        t for t in threading.enumerate() if t.name.startswith("trac-observatory")
    }


def test_close_runs_the_one_teardown_order(tmp_path, monkeypatch):
    before = front_door_threads()
    durability = DurabilityManager(str(tmp_path / "data"))
    sim = GridSimulator(SimulationConfig(num_machines=3, seed=1), durability=durability)
    calls = []

    class Door:
        def stop(self):
            calls.append("rpc door")

    deployment = Deployment(sim, port=0, flight_dir=str(tmp_path / "flights"), doors=[Door()])
    assert obs.get_default().enabled and deployment.telemetry is obs.get_default()
    deployment.start_stepping(0)
    stepper = next(t for t in threading.enumerate() if t.name == "trac-step")

    def spy(owner, method, label, alive=None):
        real = getattr(owner, method)

        def wrapper(*args, **kwargs):
            calls.append(label if alive is None else (label, alive()))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, method, wrapper)

    # Registered callbacks hold the bound methods: spy on what they call.
    spy(deployment.server._httpd, "shutdown", "front door", alive=stepper.is_alive)
    spy(deployment.service.pool, "stop", "workers")
    spy(durability, "close", "durability")
    spy(deployment.telemetry.events, "unsubscribe", "recorder")
    spy(obs.instrument, "set_default", "telemetry")
    deployment.close()
    assert calls == [
        "rpc door", ("front door", False), "workers", "durability", "recorder", "telemetry",
    ]
    assert not obs.get_default().enabled and sim.durability is None
    assert not front_door_threads() - before and not stepper.is_alive()
    deployment.close()  # safe to call twice
    assert len(calls) == 6


def test_no_port_mounts_no_front_door_and_leaves_telemetry_alone():
    before = front_door_threads()
    with ShardServer("s0", SimulationConfig(num_machines=2, seed=1)) as shard:
        deployment = shard.deployment
        assert deployment.server is None and deployment.service is None
        assert deployment.telemetry is None and not obs.get_default().enabled
        assert not front_door_threads() - before
    assert shard.stopping


def test_a_failed_start_unwinds_what_was_started(tmp_path):
    before = front_door_threads()
    closed = []
    sim = GridSimulator(SimulationConfig(num_machines=2, seed=1))
    sim.backend.close = lambda: closed.append("backend")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        with pytest.raises(OSError):
            Deployment(sim, port=taken.getsockname()[1], flight_dir=str(tmp_path / "f"))
    assert closed == ["backend"] and not obs.get_default().enabled
    assert not front_door_threads() - before


def test_src_builds_the_front_door_in_one_place():
    """``ObservatoryServer(`` and ``QueryService(`` are constructed by the
    composition and nowhere else in ``src/`` (their own modules aside), and
    the simulator is stepped by one loop."""
    sites = {"ObservatoryServer(": set(), "QueryService(": set(), ".sim.step()": set()}
    for path in SRC.rglob("*.py"):
        code = re.sub(r'""".*?"""', "", path.read_text(), flags=re.S)
        for needle, found in sites.items():
            if needle in code and path.name not in ("server.py", "service.py"):
                found.add(path.relative_to(SRC).as_posix())
    assert sites == {
        "ObservatoryServer(": {"deploy.py"},
        "QueryService(": {"deploy.py"},
        ".sim.step()": {"deploy.py"},
    }
