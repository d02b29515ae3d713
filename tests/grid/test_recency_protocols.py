"""The two recency protocols of Section 3.1."""

import pytest

from repro import MemoryBackend
from repro.errors import SimulationError
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig


@pytest.fixture
def backend():
    return MemoryBackend(monitoring_catalog(["m1"]))


def sniffer_with(machine, backend, protocol, **kwargs):
    config = SnifferConfig(lag=2.0, recency_protocol=protocol, **kwargs)
    return Sniffer(machine, backend, config)


class TestConfig:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(SimulationError):
            SnifferConfig(recency_protocol="telepathy")


class TestLastEventProtocol:
    def test_quiet_source_looks_stale(self, backend):
        """The paper's stated disadvantage: with nothing to report for a
        long time, the source appears very out of date."""
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "last_event")
        machine.set_activity(1.0, "busy")
        sniffer.poll(10.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 1.0
        # Long quiet period: recency is frozen at the last event.
        sniffer.poll(1000.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 1.0

    def test_heartbeat_records_compensate(self, backend):
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "last_event")
        machine.set_activity(1.0, "busy")
        machine.heartbeat(500.0)
        sniffer.poll(1000.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 500.0

    def test_recency_never_regresses(self, backend):
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "last_event")
        machine.heartbeat(5.0)
        sniffer.poll(10.0)
        # An out-of-band (manual) heartbeat bump is not overwritten by a
        # poll that loads nothing.
        sniffer.poll(20.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 5.0


class TestHorizonProtocol:
    def test_quiet_source_stays_fresh(self, backend):
        """The protocol fix: recency advances to the visibility horizon
        even with nothing to report."""
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "horizon")
        machine.set_activity(1.0, "busy")
        sniffer.poll(10.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 8.0  # horizon = 10 - lag
        sniffer.poll(1000.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 998.0

    def test_horizon_not_advanced_past_unread_batch(self, backend):
        """With a truncated (batched) read the drain is incomplete, so the
        horizon claim would be false — recency must stay at the last loaded
        event."""
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "horizon", batch_size=2)
        for t in (1.0, 2.0, 3.0, 4.0):
            machine.heartbeat(t)
        sniffer.poll(10.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 2.0  # 2 of 4 loaded
        sniffer.poll(20.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 18.0  # now fully drained

    def test_dead_machine_hazard(self, backend):
        """Documented hazard: the horizon protocol cannot distinguish a
        quiet source from a dead one — the failed machine's recency keeps
        advancing. (Under the last-event protocol it would freeze and be
        flagged exceptional.)"""
        machine = Machine("m1")
        sniffer = sniffer_with(machine, backend, "horizon")
        machine.set_activity(1.0, "busy")
        sniffer.poll(10.0)
        machine.fail()
        sniffer.poll(500.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 498.0  # advances regardless


class TestProtocolComparison:
    def test_min_recency_guarantee_holds_for_both(self, backend):
        """Whatever the protocol, every event at or before the reported
        recency is in the database — the Section 4.3 snapshot guarantee."""
        for protocol in ("last_event", "horizon"):
            backend = MemoryBackend(monitoring_catalog(["m1"]))
            machine = Machine("m1")
            sniffer = sniffer_with(machine, backend, protocol)
            for t in (1.0, 5.0, 9.0):
                machine.heartbeat(t)
            machine.set_activity(9.5, "busy")
            sniffer.poll(12.0)
            recency = dict(backend.heartbeat_rows()).get("m1")
            assert recency is not None
            loaded = sniffer.offset
            log_events = list(machine.log)
            for i, event in enumerate(log_events):
                if event.timestamp <= recency:
                    assert i < loaded, (protocol, event)
