"""Log event and log file tests."""

import pytest

from repro.errors import SimulationError
from repro.grid.events import EventKind, LogEvent
from repro.grid.logfile import LogFile


def ev(t, kind=EventKind.HEARTBEAT, source="m1", **payload):
    return LogEvent(t, source, kind, payload)


class TestLogEvent:
    def test_payload_access(self):
        event = ev(1.0, EventKind.MACHINE_STATE, value="idle")
        assert event.value("value") == "idle"

    def test_missing_payload_key(self):
        with pytest.raises(KeyError):
            ev(1.0).value("nope")

    def test_equality(self):
        assert ev(1.0) == ev(1.0)
        assert ev(1.0) != ev(2.0)

    def test_timestamp_coerced_to_float(self):
        assert isinstance(ev(1).timestamp, float)


class TestLogFile:
    def test_append_and_len(self):
        log = LogFile("m1")
        log.append(ev(1.0))
        log.append(ev(2.0))
        assert len(log) == 2

    def test_ownership_enforced(self):
        log = LogFile("m1")
        with pytest.raises(SimulationError):
            log.append(ev(1.0, source="m2"))

    def test_monotone_timestamps_enforced(self):
        log = LogFile("m1")
        log.append(ev(5.0))
        with pytest.raises(SimulationError):
            log.append(ev(4.0))

    def test_equal_timestamps_allowed(self):
        log = LogFile("m1")
        log.append(ev(5.0))
        log.append(ev(5.0))
        assert len(log) == 2

    def test_read_from_respects_horizon(self):
        log = LogFile("m1")
        for t in (1.0, 2.0, 3.0, 4.0):
            log.append(ev(t))
        events, offset = log.read_from(0, up_to_time=2.5)
        assert [e.timestamp for e in events] == [1.0, 2.0]
        assert offset == 2

    def test_read_from_resumes_at_offset(self):
        log = LogFile("m1")
        for t in (1.0, 2.0, 3.0):
            log.append(ev(t))
        _, offset = log.read_from(0, up_to_time=1.5)
        events, offset = log.read_from(offset, up_to_time=10.0)
        assert [e.timestamp for e in events] == [2.0, 3.0]
        assert offset == 3

    def test_read_nothing_new(self):
        log = LogFile("m1")
        log.append(ev(1.0))
        _, offset = log.read_from(0, up_to_time=5.0)
        events, offset2 = log.read_from(offset, up_to_time=5.0)
        assert events == []
        assert offset2 == offset

    def test_invalid_offset(self):
        log = LogFile("m1")
        with pytest.raises(SimulationError):
            log.read_from(5, up_to_time=1.0)
        with pytest.raises(SimulationError):
            log.read_from(-1, up_to_time=1.0)
