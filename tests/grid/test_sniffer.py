"""Sniffer tests: log-to-database loading with lag, batching and failures."""

import pytest

from repro import MemoryBackend
from repro.errors import SimulationError
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig


@pytest.fixture
def backend():
    return MemoryBackend(monitoring_catalog(["m1", "m2"]))


@pytest.fixture
def machine():
    return Machine("m1")


def make_sniffer(machine, backend, **kwargs):
    return Sniffer(machine, backend, SnifferConfig(**kwargs))


class TestConfigValidation:
    def test_bad_poll_interval(self):
        with pytest.raises(SimulationError):
            SnifferConfig(poll_interval=0)

    def test_bad_lag(self):
        with pytest.raises(SimulationError):
            SnifferConfig(lag=-1)

    def test_bad_batch(self):
        with pytest.raises(SimulationError):
            SnifferConfig(batch_size=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "5"])
    def test_non_finite_poll_interval_rejected(self, value):
        # NaN notoriously slips past plain `<= 0` checks.
        with pytest.raises(SimulationError):
            SnifferConfig(poll_interval=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "2"])
    def test_non_finite_lag_rejected(self, value):
        with pytest.raises(SimulationError):
            SnifferConfig(lag=value)

    def test_error_message_names_the_value(self):
        with pytest.raises(SimulationError, match="nan"):
            SnifferConfig(poll_interval=float("nan"))


class TestLoading:
    def test_activity_upserted_not_appended(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.set_activity(1.0, "busy")
        machine.set_activity(2.0, "idle")
        sniffer.poll(10.0)
        rows = backend.execute("SELECT mach_id, value FROM activity").rows
        assert rows == [("m1", "idle")]

    def test_routing_rows_keyed_by_pair(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.add_neighbor(1.0, "m2")
        machine.add_neighbor(2.0, "m2")  # repeated announcement
        sniffer.poll(10.0)
        assert backend.row_count("routing") == 1

    def test_job_flow(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.log_job_submitted(1.0, "j1", "alice")
        machine.log_job_scheduled(2.0, "j1", "m2")
        sniffer.poll(10.0)
        rows = backend.execute(
            "SELECT sched_machine_id, job_id, remote_machine_id FROM sched_jobs"
        ).rows
        assert rows == [("m1", "j1", "m2")]

    def test_run_rows_deleted_on_completion(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.start_job(1.0, "j1")
        sniffer.poll(5.0)
        assert backend.row_count("run_jobs") == 1
        machine.complete_job(6.0, "j1")
        sniffer.poll(10.0)
        assert backend.row_count("run_jobs") == 0

    def test_heartbeat_advances_recency_without_rows(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.heartbeat(7.0)
        sniffer.poll(10.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 7.0
        assert backend.row_count("activity") == 0

    def test_recency_is_newest_loaded_timestamp(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.set_activity(3.0, "busy")
        machine.set_activity(9.0, "idle")
        sniffer.poll(20.0)
        assert dict(backend.heartbeat_rows()).get("m1") == 9.0


class TestLagAndBatching:
    def test_lag_hides_recent_records(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=5.0)
        machine.set_activity(7.0, "busy")
        sniffer.poll(10.0)  # horizon = 5.0, record at 7.0 invisible
        assert backend.row_count("activity") == 0
        sniffer.poll(13.0)  # horizon = 8.0
        assert backend.row_count("activity") == 1

    def test_batch_size_limits_progress(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0, batch_size=2)
        for t in range(1, 6):
            machine.heartbeat(float(t))
        applied = sniffer.poll(10.0)
        assert applied == 2
        assert sniffer.backlog == 3
        assert dict(backend.heartbeat_rows()).get("m1") == 2.0

    def test_maybe_poll_respects_interval(self, machine, backend):
        sniffer = make_sniffer(machine, backend, poll_interval=5.0, lag=0.0)
        machine.heartbeat(1.0)
        assert sniffer.maybe_poll(2.0) == 1
        machine.heartbeat(3.0)
        assert sniffer.maybe_poll(4.0) == 0   # interval not elapsed
        assert sniffer.maybe_poll(7.0) == 1

    def test_one_poll_drains_a_large_backlog(self, machine, backend):
        for t in range(5000):
            machine.heartbeat(float(t))
        sniffer = make_sniffer(machine, backend, lag=0.0)
        assert sniffer.poll(1e9) == 5000
        assert sniffer.backlog == 0
        assert dict(backend.heartbeat_rows()) == {"m1": 4999.0}

    def test_records_loaded_counter(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.heartbeat(1.0)
        machine.heartbeat(2.0)
        sniffer.poll(5.0)
        assert sniffer.records_loaded == 2


class TestFailures:
    def test_failed_sniffer_freezes_recency(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.heartbeat(1.0)
        sniffer.poll(2.0)
        sniffer.fail()
        machine.heartbeat(5.0)
        assert sniffer.poll(6.0) == 0
        assert dict(backend.heartbeat_rows()).get("m1") == 1.0

    def test_recovery_resumes_from_offset(self, machine, backend):
        sniffer = make_sniffer(machine, backend, lag=0.0)
        machine.heartbeat(1.0)
        sniffer.poll(2.0)
        sniffer.fail()
        machine.heartbeat(5.0)
        machine.heartbeat(6.0)
        sniffer.recover()
        applied = sniffer.poll(10.0)
        assert applied == 2  # nothing was lost
        assert dict(backend.heartbeat_rows()).get("m1") == 6.0
