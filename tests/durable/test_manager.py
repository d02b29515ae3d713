"""DurabilityManager integration: durable runs, crash-resume, checkpoints.

The heavyweight proof (SIGKILL at randomized points) lives in
``tools/crash_matrix.py`` / ``test_crash_matrix.py``; these tests cover
the same invariants in-process, where failures are easy to debug.
"""

import os

import pytest

from repro.backends.memory import MemoryBackend
from repro.durable import DurabilityManager, DurabilityPolicy, recover
from repro.durable.wal import list_wal_segments, read_wal, wal_path
from repro.errors import DurabilityError
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog

SEED = 3
MACHINES = 4


def make_manager(directory, resume=False, checkpoint_interval=25.0):
    policy = DurabilityPolicy(fsync="always", checkpoint_interval=checkpoint_interval)
    return DurabilityManager(str(directory), policy=policy, resume=resume)


def make_sim(durability=None, machines=MACHINES, seed=SEED, **kwargs):
    return GridSimulator(
        SimulationConfig(num_machines=machines, seed=seed), durability=durability, **kwargs
    )


def database_state(backend, catalog):
    state = {
        schema.name: sorted(backend.execute(f"SELECT * FROM {schema.name}").rows)
        for schema in catalog.monitored_tables()
    }
    state["heartbeat"] = sorted(backend.heartbeat_rows())
    return state


def oracle_state(duration, machines=MACHINES, seed=SEED):
    sim = make_sim(machines=machines, seed=seed)
    sim.run(duration)
    return database_state(sim.backend, sim.catalog)


class TestDurableRun:
    def test_journaling_does_not_perturb_the_simulation(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(120.0)
        manager.close(sim.now)
        assert database_state(sim.backend, sim.catalog) == oracle_state(120.0)

    def test_recovery_rebuilds_the_live_database(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(120.0)
        manager.close(sim.now, final_checkpoint=False)
        fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
        recover(str(tmp_path), backend=fresh)
        assert database_state(fresh, sim.catalog) == database_state(
            sim.backend, sim.catalog
        )

    def test_acked_watermarks_under_fsync_always(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        acked = manager.acked()
        # Every journaled record was fsynced, so acked == journaled.
        assert acked["offsets"] == manager._journaled_offsets
        assert acked["recency"] == manager._journaled_recency
        assert sum(acked["offsets"].values()) > 0
        manager.close(sim.now)


class TestCrashResume:
    def crash_then_resume(self, tmp_path, crash_at, total, checkpoint_interval=25.0):
        manager = make_manager(tmp_path, checkpoint_interval=checkpoint_interval)
        sim = make_sim(durability=manager)
        sim.run(crash_at)
        # Crash: no close(), no final checkpoint. fsync="always" means the
        # WAL already holds everything, exactly as after a SIGKILL.
        del sim, manager
        resumed_manager = make_manager(
            tmp_path, resume=True, checkpoint_interval=checkpoint_interval
        )
        resumed = make_sim(durability=resumed_manager)
        resumed.run(total - resumed.now)
        resumed_manager.close(resumed.now)
        return resumed, resumed_manager

    def test_resume_after_checkpoint_matches_oracle(self, tmp_path):
        resumed, manager = self.crash_then_resume(tmp_path, crash_at=80.0, total=160.0)
        assert resumed.now == pytest.approx(160.0)
        assert manager.recovered is not None and manager.recovered.has_checkpoint
        assert database_state(resumed.backend, resumed.catalog) == oracle_state(160.0)

    def test_wal_only_resume_matches_oracle(self, tmp_path):
        # Crash before the first checkpoint: recovery has only the WAL and
        # the simulator deterministically regrows from t=0.
        resumed, manager = self.crash_then_resume(
            tmp_path, crash_at=40.0, total=120.0, checkpoint_interval=10_000.0
        )
        assert manager.recovered is not None and not manager.recovered.has_checkpoint
        assert database_state(resumed.backend, resumed.catalog) == oracle_state(120.0)

    def test_double_crash_matches_oracle(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        del sim, manager
        second = make_manager(tmp_path, resume=True)
        sim2 = make_sim(durability=second)
        sim2.run(110.0 - sim2.now)
        del sim2, second
        third = make_manager(tmp_path, resume=True)
        sim3 = make_sim(durability=third)
        sim3.run(180.0 - sim3.now)
        third.close(sim3.now)
        assert database_state(sim3.backend, sim3.catalog) == oracle_state(180.0)

    def test_a_checkpoint_written_before_the_counters_rode_along_still_resumes(self, tmp_path):
        """A ``trac-checkpoint-v1`` state as PR 21 and earlier wrote it: no
        ``retries`` / ``restarts`` / ``last_error`` under ``ingest``. The
        health and SLO blocks restore as ever; the absent counters read 0 / None."""
        from repro.core.sources import SourceRegistry
        from repro.durable.checkpoint import latest_valid_checkpoint, write_checkpoint

        def supervised(resume):
            return GridSimulator(
                SimulationConfig(num_machines=MACHINES, seed=SEED),
                fault_plan=FaultPlan(seed=1).poll_error("m2", probability=0.5),
                sources=SourceRegistry(target_p95=20.0),
                durability=make_manager(tmp_path, resume=resume),
            )

        sim = supervised(resume=False)
        sim.run(60.0)
        assert sim.sources.open("m2").retries > 0
        sim.durability.close(sim.now)
        epoch, state, _ = latest_valid_checkpoint(str(tmp_path))
        for key in ("retries", "restarts", "last_error"):
            assert state["ingest"].pop(key) is not None
        assert set(state["ingest"]) == {
            "offsets", "last_poll", "recency", "last_loaded", "records_loaded"
        }
        write_checkpoint(str(tmp_path), epoch, state)

        resumed = supervised(resume=True)
        assert resumed.now == sim.now
        assert resumed.sources.health() == sim.sources.health() == state["health"]
        assert resumed.sources.lag_series() == sim.sources.lag_series()
        record = resumed.sources.open("m2")
        assert (record.retries, record.restarts, record.last_error) == (0, 0, None)
        resumed.durability.close(resumed.now, final_checkpoint=False)

    def test_a_resumed_supervised_log_is_injection_over_the_disk_mirror(self, tmp_path):
        """The binding installs the mirrors before supervisors wrap the logs:
        each ``machine.log`` is a FaultyLog over the DurableLogFile, and what
        the resumed run appends reaches the mirror on disk."""
        from repro.durable.manager import DurableLogFile
        from repro.faults.log import FaultyLog
        from repro.grid.persist import read_log_events

        def supervised(resume):
            return make_sim(
                durability=make_manager(tmp_path, resume=resume),
                fault_plan=FaultPlan(seed=1).poll_error("m2", probability=0.5),
            )

        sim = supervised(resume=False)
        sim.run(60.0)
        sim.durability.close(sim.now)

        resumed = supervised(resume=True)
        assert resumed.durability.recovered.has_checkpoint
        resumed.run(30.0)
        for mid, machine in resumed.machines.items():
            assert isinstance(machine.log, FaultyLog)
            assert isinstance(machine.log.inner, DurableLogFile)
            events, _ = read_log_events(machine.log.inner.writer.path, mid, lenient=True)
            assert len(events) == len(machine.log) > len(sim.machines[mid].log)
        resumed.durability.close(resumed.now, final_checkpoint=False)

    def test_machine_set_mismatch_refuses_resume(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        manager.close(sim.now)
        with pytest.raises(DurabilityError, match="covers machines"):
            make_sim(durability=make_manager(tmp_path, resume=True), machines=MACHINES + 2)

    def test_saved_config_round_trips(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        manager.close(sim.now)
        saved = make_manager(tmp_path, resume=True).saved_config()
        assert saved is not None
        assert SimulationConfig.from_dict(saved).to_dict() == sim.config.to_dict()

    def test_fresh_start_wipes_previous_artifacts(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        manager.close(sim.now)
        assert manager.epoch > 0
        second = make_manager(tmp_path)  # resume=False
        fresh_sim = make_sim(durability=second)
        names = sorted(
            n for n in os.listdir(tmp_path) if n.endswith((".wal", ".json"))
        )
        assert names == [os.path.basename(wal_path(str(tmp_path), 0))]
        fresh_sim.run(1.0)
        second.close(fresh_sim.now, final_checkpoint=False)


class TestLossyDelivery:
    """Records dropped between the log and the sniffer: the journal holds
    what was delivered, and never loses track of the offsets consumed."""

    def lossy_sim(self, directory, resume=False):
        # A fresh plan per run: its RNG stream is stateful.
        plan = FaultPlan(seed=1).drop_records("m2", probability=0.7)
        manager = make_manager(directory, resume=resume)
        sim = GridSimulator(
            SimulationConfig(num_machines=MACHINES, seed=SEED),
            fault_plan=plan,
            durability=manager,
        )
        return sim, manager

    def assert_recovers_to(self, directory, sim):
        fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
        recover(str(directory), backend=fresh)
        assert database_state(fresh, sim.catalog) == database_state(sim.backend, sim.catalog)

    def test_a_poll_whose_records_were_all_dropped_leaves_no_journal_gap(self, tmp_path):
        sim, manager = self.lossy_sim(tmp_path)
        sim.run(400.0)  # DurabilityError "journal gap for m2" at t = 37 before the fix
        assert sim.now == pytest.approx(400.0)
        assert sim.fault_plan.injected["drop_records"] > 0
        del manager  # crash: no close(), no final checkpoint
        self.assert_recovers_to(tmp_path, sim)

        resumed, resumed_manager = self.lossy_sim(tmp_path, resume=True)
        assert resumed.now > 0 and resumed_manager.recovered.has_checkpoint
        resumed.run(500.0 - resumed.now)
        resumed_manager.close(resumed.now, final_checkpoint=False)
        self.assert_recovers_to(tmp_path, resumed)

    def test_a_poll_is_one_frame_however_many_events_it_delivers(self, tmp_path):
        manager = make_manager(tmp_path, checkpoint_interval=10_000.0)
        sim = make_sim(durability=manager)
        sim.run(30.0)
        sniffer = sim.sniffers["m1"]
        machine = sim.machines["m1"]
        for i in range(25):
            machine.set_activity(sim.now + i * 0.01, "busy" if i % 2 else "idle")
        (_, path), = list_wal_segments(str(tmp_path))
        frames, records = len(read_wal(path)[0]), manager.stats()["wal_records"]
        assert sniffer.poll(sim.now + 100.0) >= 25
        appended = read_wal(path)[0][frames:]
        # One frame: the delivery and the recency it publishes, together.
        assert [r["k"] for r in appended] == ["bat"]
        assert appended[0]["b"] - appended[0]["a"] == len(appended[0]["l"]) >= 25
        assert appended[0]["r"] == sniffer.record.recency == sniffer.last_loaded_timestamp
        # stats count records journaled (log records + heartbeats), not frames
        assert manager.stats()["wal_records"] - records == len(appended[0]["l"]) + 1
        manager.close(sim.now, final_checkpoint=False)

    def test_a_poll_that_only_advances_recency_is_one_hb_frame(self, tmp_path):
        """The horizon protocol republishes recency with nothing new read."""
        from repro.grid.sniffer import Sniffer, SnifferConfig

        manager = make_manager(tmp_path, checkpoint_interval=10_000.0)
        sim = make_sim(durability=manager)
        sim.run(30.0)
        machine = sim.machines["m1"]
        sniffer = Sniffer(machine, sim.backend, SnifferConfig(recency_protocol="horizon"))
        sniffer.journal, sniffer.offset = manager, len(machine.log)  # nothing new to read
        (_, path), = list_wal_segments(str(tmp_path))
        frames = len(read_wal(path)[0])
        assert sniffer.poll(sim.now + 50.0) == 0
        appended = read_wal(path)[0][frames:]
        assert appended == [{"k": "hb", "s": "m1", "r": sim.now + 48.0}]
        assert dict(sim.backend.heartbeat_rows()).get("m1") == sim.now + 48.0
        manager.close(sim.now, final_checkpoint=False)

    def test_a_segment_written_two_frames_per_poll_replays_to_the_same_tables(self, tmp_path):
        """A segment whose polls are a ``bat`` frame then an ``hb`` frame (the
        format before a poll became one frame) replays to the tables a
        one-frame-per-poll segment of the same run replays to."""
        from repro.durable.wal import FrameWriter, encode_batch, encode_heartbeat

        manager = make_manager(tmp_path / "new", checkpoint_interval=10_000.0)
        sim = make_sim(durability=manager)
        sim.run(120.0)
        manager.close(sim.now, final_checkpoint=False)
        (_, path), = list_wal_segments(str(tmp_path / "new"))
        records = read_wal(path)[0]
        assert any("r" in r for r in records if r["k"] == "bat")
        old = tmp_path / "old"
        with FrameWriter(wal_path(str(old), 0), fsync="never") as writer:
            for r in records:
                if r["k"] == "bat":
                    writer.append(encode_batch(r["s"], r["a"], r["b"], r["l"]))
                if "r" in r:
                    writer.append(encode_heartbeat(r["s"], r["r"]))
        assert len(read_wal(wal_path(str(old), 0))[0]) > len(records)
        states = []
        for directory in (tmp_path / "new", old):
            fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
            recovered = recover(str(directory), backend=fresh)
            states.append((database_state(fresh, sim.catalog), recovered.offsets, recovered.recency))
        assert states[0] == states[1]
        assert states[0][0] == database_state(sim.backend, sim.catalog)


class TestCheckpointing:
    def test_maybe_checkpoint_cadence(self, tmp_path):
        manager = make_manager(tmp_path, checkpoint_interval=30.0)
        sim = make_sim(durability=manager)
        # GridSimulator drives maybe_checkpoint from step(); with a 30s
        # interval and the first call only baselining, 100s yields 2-3.
        sim.run(100.0)
        assert 2 <= manager.checkpoints_written <= 3
        assert manager.epoch == manager.checkpoints_written
        assert os.path.exists(wal_path(str(tmp_path), manager.epoch))
        manager.close(sim.now)

    def test_explicit_state_checkpoint_without_simulator(self, tmp_path):
        manager = DurabilityManager(str(tmp_path))
        assert manager.checkpoint(10.0, state={"marker": 1}) is True
        assert manager.epoch == 1 and manager.checkpoints_written == 1
        recovered = recover(str(tmp_path))
        assert recovered.state == {"marker": 1}
        manager.close()

    def test_checkpoint_failure_is_survivable(self, tmp_path):
        plan = FaultPlan().durability_error(op="checkpoint", probability=1.0)
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager, fault_plan=plan)
        sim.run(100.0)
        assert manager.checkpoints_written == 0
        assert manager.checkpoint_failures >= 2
        assert manager.epoch == 0  # never rotated
        manager.close(sim.now, final_checkpoint=False)
        # The unrotated WAL still recovers the whole run.
        fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
        recover(str(tmp_path), backend=fresh)
        assert database_state(fresh, sim.catalog) == database_state(
            sim.backend, sim.catalog
        )

    def test_stats_shape(self, tmp_path):
        manager = make_manager(tmp_path)
        sim = make_sim(durability=manager)
        sim.run(60.0)
        manager.close(sim.now)
        stats = manager.stats()
        assert stats["wal_records"] > 0
        assert stats["wal_syncs"] > 0
        assert stats["checkpoints_written"] == stats["epoch"]
        assert "recovered" not in stats
