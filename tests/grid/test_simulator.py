"""Grid simulator integration tests."""

import pytest

from repro.errors import SimulationError
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog


def make_sim(**kwargs):
    defaults = dict(num_machines=5, seed=11, job_submit_probability=0.0)
    defaults.update(kwargs)
    return GridSimulator(SimulationConfig(**defaults))


class TestConfigValidation:
    def test_zero_machines_rejected(self):
        with pytest.raises(SimulationError):
            SimulationConfig(num_machines=0)

    def test_bad_scheduler_count(self):
        with pytest.raises(SimulationError):
            SimulationConfig(num_machines=3, num_schedulers=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tick": 0.0},
            {"tick": float("nan")},
            {"tick": float("inf")},
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": float("nan")},
            {"transfer_delay": -1.0},
            {"activity_flip_probability": 1.5},
            {"activity_flip_probability": float("nan")},
            {"job_submit_probability": -0.1},
            {"machine_failure_probability": 2.0},
            {"machine_recover_probability": float("inf")},
            {"job_duration_range": (0.0, 10.0)},
            {"job_duration_range": (20.0, 10.0)},
            {"job_duration_range": (float("nan"), 10.0)},
            {"sniffer_poll_interval_range": (5.0, 3.0)},
            {"sniffer_poll_interval_range": (0.0, 3.0)},
            {"sniffer_lag_range": (-1.0, 3.0)},
            {"sniffer_lag_range": (5.0, 3.0)},
            {"sniffer_lag_range": (1.0, float("inf"))},
        ],
    )
    def test_bad_numeric_config_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SimulationConfig(**kwargs)

    def test_supervised_with_a_fault_plan_or_a_silence_timeout(self):
        from repro.faults import FaultPlan

        config = SimulationConfig(num_machines=2)
        assert not GridSimulator(config).supervisors
        assert GridSimulator(config, fault_plan=FaultPlan()).supervisors
        supervised = GridSimulator(config, silence_timeout=30.0)
        assert supervised.supervisors["m1"].silence_timeout == 30.0

    def test_zero_lag_allowed(self):
        config = SimulationConfig(sniffer_lag_range=(0.0, 0.0))
        assert config.sniffer_lag_range == (0.0, 0.0)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = make_sim(seed=3, job_submit_probability=0.2)
        b = make_sim(seed=3, job_submit_probability=0.2)
        a.run(60)
        b.run(60)
        assert sorted(a.backend.heartbeat_rows()) == sorted(b.backend.heartbeat_rows())
        assert sorted(a.backend.execute("SELECT * FROM activity").rows) == sorted(
            b.backend.execute("SELECT * FROM activity").rows
        )

    def test_different_seed_diverges(self):
        a = make_sim(seed=1, job_submit_probability=0.3)
        b = make_sim(seed=2, job_submit_probability=0.3)
        a.run(120)
        b.run(120)
        assert sorted(a.backend.heartbeat_rows()) != sorted(b.backend.heartbeat_rows())


class TestTopologyAndBootstrap:
    def test_every_machine_has_neighbors(self):
        sim = make_sim(neighbor_degree=2)
        for machine in sim.machines.values():
            assert len(machine.neighbors) == 2

    def test_routing_loaded_after_drain(self):
        sim = make_sim(neighbor_degree=2)
        sim.run(30)
        sim.drain()
        assert sim.backend.row_count("routing") == 5 * 2

    def test_all_machines_report_activity(self):
        sim = make_sim()
        sim.run(30)
        sim.drain()
        machines = {r[0] for r in sim.backend.execute("SELECT mach_id FROM activity").rows}
        assert machines == set(sim.machine_ids)


class TestJobLifecycle:
    def test_submitted_job_runs_and_completes(self):
        sim = make_sim()
        job = sim.submit_job("alice", "m1", duration=10.0)
        sim.run(30)
        assert job.state.value == "completed"
        assert job.started_at is not None
        assert job.completed_at == pytest.approx(job.started_at + 10.0, abs=sim.config.tick)

    def test_job_rows_appear_and_disappear(self):
        sim = make_sim()
        sim.submit_job("alice", "m1", duration=20.0)
        sim.run(10)
        sim.drain()
        assert sim.backend.row_count("sched_jobs") == 1
        assert sim.backend.row_count("run_jobs") == 1
        sim.run(30)
        sim.drain()
        assert sim.backend.row_count("run_jobs") == 0

    def test_submit_to_non_scheduler_rejected(self):
        sim = make_sim(num_schedulers=1)
        with pytest.raises(SimulationError):
            sim.submit_job("alice", "m5")

    def test_job_rescheduled_when_target_fails(self):
        sim = make_sim(num_machines=3, neighbor_degree=2)
        # Fail every machine except the scheduler, then submit: the job must
        # eventually run on the scheduler machine itself.
        sim.machines["m2"].fail()
        sim.machines["m3"].fail()
        job = sim.submit_job("alice", "m1", duration=5.0)
        sim.run(30)
        assert job.state.value == "completed"
        assert job.remote_machine == "m1"


class TestHeartbeats:
    def test_heartbeats_advance_during_quiet_periods(self):
        sim = make_sim(activity_flip_probability=0.0, heartbeat_interval=10.0)
        sim.run(100)
        sim.drain()
        for machine_id in sim.machine_ids:
            recency = dict(sim.backend.heartbeat_rows()).get(machine_id)
            assert recency is not None
            assert recency >= 80.0

    def test_failed_machine_recency_freezes(self):
        sim = make_sim(
            activity_flip_probability=0.0,
            heartbeat_interval=5.0,
            machine_recover_probability=0.0,
        )
        sim.run(30)
        sim.machines["m2"].fail()
        frozen_log_end = list(sim.machines["m2"].log)[-1].timestamp
        sim.run(100)
        sim.drain()
        recency = dict(sim.backend.heartbeat_rows()).get("m2")
        assert recency == frozen_log_end
        # Healthy machines kept advancing.
        assert dict(sim.backend.heartbeat_rows()).get("m1") > recency


class TestStalenessWindow:
    def test_database_lags_reality(self):
        """Right after a burst of activity, sniffer lag means the DB has not
        caught up — the core premise of the paper."""
        sim = make_sim(
            activity_flip_probability=0.5,
            sniffer_lag_range=(5.0, 10.0),
            sniffer_poll_interval_range=(8.0, 12.0),
        )
        sim.run(40)
        backlog = sum(s.backlog for s in sim.sniffers.values())
        assert backlog > 0


class TestMonitoringCatalog:
    def test_tables_present(self):
        catalog = monitoring_catalog(["m1", "m2"])
        for table in ("activity", "routing", "sched_jobs", "run_jobs", "heartbeat"):
            assert catalog.has(table)

    def test_machine_domain_is_finite(self):
        catalog = monitoring_catalog(["m1", "m2"])
        domain = catalog.get("activity").column("mach_id").domain
        assert domain.is_finite
        assert domain.cardinality() == 2
