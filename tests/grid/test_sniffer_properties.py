"""Property-based sniffer invariants under random polling schedules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryBackend
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig

_event_gaps = st.lists(st.floats(0.1, 30.0), min_size=0, max_size=25)
_poll_times = st.lists(st.floats(0.0, 600.0), min_size=1, max_size=15)
_lag = st.floats(0.0, 20.0)
_batch = st.one_of(st.none(), st.integers(1, 5))
_protocol = st.sampled_from(["last_event", "horizon"])


def _run(event_gaps, poll_times, lag, batch, protocol):
    backend = MemoryBackend(monitoring_catalog(["m1"]))
    machine = Machine("m1")
    t = 0.0
    for gap in event_gaps:
        t += gap
        machine.heartbeat(t)
    sniffer = Sniffer(
        machine,
        backend,
        SnifferConfig(lag=lag, batch_size=batch, recency_protocol=protocol),
    )
    recencies = []
    for poll_at in sorted(poll_times):
        sniffer.poll(poll_at)
        recency = dict(backend.heartbeat_rows()).get("m1")
        if recency is not None:
            recencies.append((poll_at, recency))
    return machine, sniffer, backend, recencies


class TestSnifferInvariants:
    @given(_event_gaps, _poll_times, _lag, _batch, _protocol)
    @settings(max_examples=200, deadline=None)
    def test_recency_is_monotone(self, gaps, polls, lag, batch, protocol):
        """The reported recency timestamp never goes backwards."""
        _, _, _, recencies = _run(gaps, polls, lag, batch, protocol)
        values = [r for _, r in recencies]
        assert values == sorted(values)

    @given(_event_gaps, _poll_times, _lag, _batch, _protocol)
    @settings(max_examples=200, deadline=None)
    def test_offset_accounting(self, gaps, polls, lag, batch, protocol):
        """loaded + backlog always equals the log length, and the offset
        never exceeds it."""
        machine, sniffer, _, _ = _run(gaps, polls, lag, batch, protocol)
        assert sniffer.offset + sniffer.backlog == len(machine.log)
        assert 0 <= sniffer.offset <= len(machine.log)

    @given(_event_gaps, _poll_times, _lag, _batch, _protocol)
    @settings(max_examples=200, deadline=None)
    def test_recency_guarantee(self, gaps, polls, lag, batch, protocol):
        """Section 3.1's contract: every event with a timestamp at or below
        the reported recency has been loaded — under BOTH protocols, with
        any lag and any batching."""
        machine, sniffer, backend, _ = _run(gaps, polls, lag, batch, protocol)
        recency = dict(backend.heartbeat_rows()).get("m1")
        if recency is None:
            return
        events = list(machine.log)
        for position, event in enumerate(events):
            if event.timestamp <= recency:
                assert position < sniffer.offset, (
                    f"event at t={event.timestamp} <= recency {recency} "
                    f"but offset is {sniffer.offset} ({protocol})"
                )

    @given(_event_gaps, _poll_times, _lag, _batch)
    @settings(max_examples=100, deadline=None)
    def test_horizon_never_behind_last_event(self, gaps, polls, lag, batch):
        """After identical schedules, the horizon protocol's recency is
        always >= the last-event protocol's (it is strictly more
        informative, never less)."""
        _, _, backend_a, _ = _run(gaps, polls, lag, batch, "last_event")
        _, _, backend_b, _ = _run(gaps, polls, lag, batch, "horizon")
        last_event = dict(backend_a.heartbeat_rows()).get("m1")
        horizon = dict(backend_b.heartbeat_rows()).get("m1")
        if last_event is not None:
            assert horizon is not None
            assert horizon >= last_event
