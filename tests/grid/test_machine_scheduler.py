"""Machine and scheduler behaviour tests."""

import random

import pytest

from repro.errors import SimulationError
from repro.grid.events import EventKind
from repro.grid.job import Job, JobState
from repro.grid.machine import Machine
from repro.grid.scheduler import Scheduler


class TestMachine:
    def test_set_activity_logs_event(self):
        machine = Machine("m1")
        machine.set_activity(1.0, "busy")
        assert machine.activity == "busy"
        events = list(machine.log)
        assert events[-1].kind is EventKind.MACHINE_STATE
        assert events[-1].value("value") == "busy"

    def test_invalid_activity_rejected(self):
        with pytest.raises(SimulationError):
            Machine("m1").set_activity(1.0, "sleeping")

    def test_add_neighbor(self):
        machine = Machine("m1")
        machine.add_neighbor(1.0, "m2")
        assert machine.neighbors == ["m2"]
        assert list(machine.log)[-1].value("neighbor") == "m2"

    def test_start_job_makes_busy(self):
        machine = Machine("m1")
        machine.start_job(1.0, "j1")
        assert machine.activity == "busy"
        assert "j1" in machine.running_jobs
        kinds = [e.kind for e in machine.log]
        assert EventKind.JOB_STARTED in kinds
        assert EventKind.MACHINE_STATE in kinds

    def test_complete_last_job_goes_idle(self):
        machine = Machine("m1")
        machine.start_job(1.0, "j1")
        machine.complete_job(2.0, "j1")
        assert machine.activity == "idle"
        assert machine.running_jobs == set()

    def test_completing_one_of_two_jobs_stays_busy(self):
        machine = Machine("m1")
        machine.start_job(1.0, "j1")
        machine.start_job(1.0, "j2")
        machine.complete_job(2.0, "j1")
        assert machine.activity == "busy"

    def test_failed_machine_writes_nothing(self):
        machine = Machine("m1")
        machine.fail()
        machine.set_activity(1.0, "busy")
        machine.heartbeat(2.0)
        assert len(machine.log) == 0

    def test_recover_emits_heartbeat(self):
        machine = Machine("m1")
        machine.fail()
        machine.recover(5.0)
        events = list(machine.log)
        assert events[-1].kind is EventKind.HEARTBEAT
        assert events[-1].timestamp == 5.0


class TestJob:
    def test_lifecycle(self):
        job = Job("j1", "alice", "m1", submitted_at=0.0)
        assert job.state is JobState.SUBMITTED
        job.transition(JobState.SCHEDULED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        assert not job.is_active

    def test_illegal_transition(self):
        job = Job("j1", "alice", "m1", submitted_at=0.0)
        with pytest.raises(SimulationError):
            job.transition(JobState.RUNNING)  # must be scheduled first

    def test_completed_is_terminal(self):
        job = Job("j1", "alice", "m1", submitted_at=0.0)
        job.transition(JobState.SCHEDULED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        with pytest.raises(SimulationError):
            job.transition(JobState.SCHEDULED)

    def test_suspend_resume(self):
        job = Job("j1", "alice", "m1", submitted_at=0.0)
        job.transition(JobState.SCHEDULED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.SUSPENDED)
        job.transition(JobState.RUNNING)
        assert job.state is JobState.RUNNING


class TestScheduler:
    def _setup(self):
        machines = {mid: Machine(mid) for mid in ("m1", "m2", "m3")}
        machines["m1"].add_neighbor(0.0, "m2")
        machines["m1"].add_neighbor(0.0, "m3")
        scheduler = Scheduler(machines["m1"], random.Random(7))
        return machines, scheduler

    def test_submit_logs_event(self):
        machines, scheduler = self._setup()
        job = Job("j1", "alice", "m1", submitted_at=1.0)
        scheduler.submit(1.0, job)
        events = [e for e in machines["m1"].log if e.kind is EventKind.JOB_SUBMITTED]
        assert len(events) == 1
        assert events[0].value("job_id") == "j1"

    def test_submit_to_wrong_machine_rejected(self):
        machines, scheduler = self._setup()
        job = Job("j1", "alice", "m2", submitted_at=1.0)
        with pytest.raises(SimulationError):
            scheduler.submit(1.0, job)

    def test_duplicate_job_rejected(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        with pytest.raises(SimulationError):
            scheduler.submit(2.0, Job("j1", "bob", "m1", submitted_at=2.0))

    def test_schedule_prefers_idle_neighbor(self):
        machines, scheduler = self._setup()
        machines["m2"].set_activity(0.0, "busy")
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        target = scheduler.schedule(1.0, "j1", machines)
        assert target == "m3"

    def test_schedule_explicit_target(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        target = scheduler.schedule(1.0, "j1", machines, target="m2")
        assert target == "m2"
        job = scheduler.jobs["j1"]
        assert job.remote_machine == "m2"
        assert job.state is JobState.SCHEDULED

    def test_schedule_logs_event(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        scheduler.schedule(1.0, "j1", machines, target="m2")
        events = [e for e in machines["m1"].log if e.kind is EventKind.JOB_SCHEDULED]
        assert events[0].value("remote_machine") == "m2"

    def test_schedule_avoids_failed_machines(self):
        machines, scheduler = self._setup()
        machines["m2"].fail()
        machines["m3"].fail()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        target = scheduler.schedule(1.0, "j1", machines)
        assert target == "m1"  # falls back to itself

    def test_reschedule(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        scheduler.schedule(1.0, "j1", machines, target="m2")
        machines["m2"].fail()
        new_target = scheduler.reschedule(2.0, "j1", machines)
        assert new_target != "m2"

    def test_reschedule_running_job_rejected(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        scheduler.schedule(1.0, "j1", machines, target="m2")
        scheduler.jobs["j1"].transition(JobState.RUNNING)
        with pytest.raises(SimulationError):
            scheduler.reschedule(2.0, "j1", machines)

    def test_unknown_job(self):
        machines, scheduler = self._setup()
        with pytest.raises(SimulationError):
            scheduler.schedule(1.0, "nope", machines)

    def test_active_jobs(self):
        machines, scheduler = self._setup()
        scheduler.submit(1.0, Job("j1", "alice", "m1", submitted_at=1.0))
        assert [job.job_id for job in scheduler.jobs.values() if job.is_active] == ["j1"]
