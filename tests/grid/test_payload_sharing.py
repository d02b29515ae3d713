"""A logged record is held once: read-only payloads that equal records share.

Every path that builds events (machine emission, ``parse_line``, a resumed
mirror, a replayed directory) hands out the same payload object for the
same all-string payload, and nothing a caller can do changes an event after
it is built. The memory guard counts bytes with ``tracemalloc``; it times
nothing.
"""

import gc
import tracemalloc

import pytest

from repro import MemoryBackend
from repro.durable import DurabilityManager, DurabilityPolicy
from repro.grid.events import PAYLOAD_TABLE_SIZE, EventKind, LogEvent, _shared_payload
from repro.grid.logformat import format_line, parse_line
from repro.grid.machine import Machine
from repro.grid.persist import LOG_HEADER, archive_simulation, log_path, replay_directory
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog



def shared(kind, **payload):
    """The payload object a record of ``kind`` built now gets."""
    return LogEvent(0.0, "m0", kind, payload).payload


def durable_sim(directory, resume=False, machines=4, seed=3):
    manager = DurabilityManager(
        str(directory), DurabilityPolicy(fsync="never", checkpoint_interval=25.0), resume=resume
    )
    sim = GridSimulator(SimulationConfig(num_machines=machines, seed=seed), durability=manager)
    return sim, manager


def payloads_of(events, kind, **payload):
    """The distinct payload objects of ``events``' records of ``kind`` that
    equal ``payload``."""
    return {id(e.payload) for e in events if e.kind is kind and e.payload == payload}


class TestReadOnly:
    def test_a_write_to_the_payload_raises(self):
        event = LogEvent(1.0, "m1", EventKind.MACHINE_STATE, {"value": "idle"})
        with pytest.raises(TypeError):
            event.payload["value"] = "busy"  # type: ignore[index]

    def test_the_dict_passed_in_can_change_afterwards(self):
        payload = {"value": "idle"}
        event = LogEvent(1.0, "m1", EventKind.MACHINE_STATE, payload)
        payload["value"] = "busy"
        assert event.value("value") == "idle"

    def test_an_unhashable_value_keeps_a_private_copy(self):
        payload = {"tags": ["a"]}
        event = LogEvent(1.0, "m1", EventKind.JOB_SUBMITTED, payload)
        payload["tags"] = ["b"]
        assert event.payload == {"tags": ["a"]}
        twin = LogEvent(2.0, "m1", EventKind.JOB_SUBMITTED, {"tags": ["a"]})
        assert event.payload is not twin.payload

    def test_equal_values_of_other_types_are_not_conflated(self):
        one = LogEvent(1.0, "m1", EventKind.JOB_SUBMITTED, {"job_id": 1})
        true = LogEvent(1.0, "m1", EventKind.JOB_SUBMITTED, {"job_id": True})
        assert format_line(one, coerce=True).endswith("job_id=1")
        assert format_line(true, coerce=True).endswith("job_id=True")


class TestEveryPathShares:
    def test_emission_shares(self):
        machine = Machine("m1")
        machine.heartbeat(1.0)
        machine.set_activity(2.0, "idle")
        machine.heartbeat(3.0)
        machine.set_activity(4.0, "idle")
        events = list(machine.log)
        assert payloads_of(events, EventKind.HEARTBEAT) == {id(shared(EventKind.HEARTBEAT))}
        idle = shared(EventKind.MACHINE_STATE, value="idle")
        assert payloads_of(events, EventKind.MACHINE_STATE, value="idle") == {id(idle)}

    def test_parse_line_shares(self):
        assert parse_line("5.000000 m7 HEARTBEAT").payload is shared(EventKind.HEARTBEAT)
        idle = shared(EventKind.MACHINE_STATE, value="idle")
        assert parse_line("5.000000 m7 MACHINE_STATE value=idle").payload is idle

    def test_a_resumed_mirror_shares(self, tmp_path):
        sim, _manager = durable_sim(tmp_path)
        sim.run(80.0)
        del sim, _manager  # a crash: no close
        resumed, manager = durable_sim(tmp_path, resume=True)
        restored = [event for machine in resumed.machines.values() for event in machine.log]
        assert manager.recovered.has_checkpoint and restored
        assert payloads_of(restored, EventKind.HEARTBEAT) == {id(shared(EventKind.HEARTBEAT))}
        for value in ("idle", "busy"):
            same = payloads_of(restored, EventKind.MACHINE_STATE, value=value)
            assert same == {id(shared(EventKind.MACHINE_STATE, value=value))}
        manager.close(resumed.now)

    def test_replay_directory_shares(self, tmp_path):
        sim = GridSimulator(SimulationConfig(num_machines=3, seed=1))
        sim.run(120.0)
        archive_simulation(sim, str(tmp_path))
        backend = MemoryBackend(monitoring_catalog(sim.machine_ids))
        sniffers = replay_directory(backend, str(tmp_path))
        replayed = [event for sniffer in sniffers.values() for event in sniffer.machine.log]
        assert payloads_of(replayed, EventKind.HEARTBEAT) == {id(shared(EventKind.HEARTBEAT))}
        idle = shared(EventKind.MACHINE_STATE, value="idle")
        assert payloads_of(replayed, EventKind.MACHINE_STATE, value="idle") == {id(idle)}


class TestSameAsBefore:
    def test_job_payloads_compare_and_format_as_before(self):
        payload = {"job_id": "j17", "remote_machine": "m4"}
        event = LogEvent(1142431265.0, "m1", EventKind.JOB_SCHEDULED, payload)
        assert event.payload == payload and event == parse_line(format_line(event))
        assert hash(event) == hash((1142431265.0, "m1", EventKind.JOB_SCHEDULED))
        line = "1142431265.000000 m1 JOB_SCHEDULED job_id=j17 remote_machine=m4"
        assert format_line(event) == line

    def test_repr_prints_a_plain_dict(self):
        event = LogEvent(1.0, "m1", EventKind.MACHINE_STATE, {"value": "idle"})
        assert repr(event) == "LogEvent(t=1.0, src='m1', kind=machine_state, {'value': 'idle'})"

    def test_mirror_files_are_the_in_memory_logs_byte_for_byte(self, tmp_path):
        sim, manager = durable_sim(tmp_path)
        sim.run(150.0)
        for mid, machine in sim.machines.items():
            lines = "".join(format_line(e, coerce=True) + "\n" for e in machine.log)
            with open(log_path(manager.logs_dir, mid), "rb") as handle:
                assert handle.read() == (LOG_HEADER + lines).encode()
        manager.close(sim.now)

    def test_the_sharing_table_stays_bounded(self):
        for number in range(PAYLOAD_TABLE_SIZE + 50):
            LogEvent(1.0, "m1", EventKind.JOB_STARTED, {"job_id": f"bounded-{number}"})
        assert _shared_payload.cache_info().currsize <= PAYLOAD_TABLE_SIZE
        assert _shared_payload.cache_info().maxsize == PAYLOAD_TABLE_SIZE


class TestRetainedMemory:
    """A seeded durable run retains at most 120 bytes per logged record:
    the record's ``LogEvent`` and its slot in the log, and a share of the
    rest of the simulation's growth (a private payload dict per record
    would add over 100)."""

    def test_bytes_retained_per_logged_record(self, tmp_path):
        sim, manager = durable_sim(tmp_path, machines=64, seed=5)
        for _ in range(60):
            sim.step()

        def logged():
            return sum(len(machine.log) for machine in sim.machines.values())

        gc.collect()
        tracemalloc.start()
        try:
            records, before = logged(), tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                sim.step()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
            records = logged() - records
        finally:
            tracemalloc.stop()
        manager.close(sim.now)
        assert records > 5000
        assert retained / records <= 120, f"{retained / records:.1f} bytes per logged record"
