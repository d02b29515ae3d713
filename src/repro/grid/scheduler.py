"""The job scheduler process.

Runs on a scheduling machine. When a job is submitted there, the scheduler
logs the submission, picks a target machine among the scheduling machine's
neighbors (preferring idle ones) and logs the assignment — the ``S`` side of
Section 4.2's schema. The *target* machine independently logs the start —
the ``R`` side. Because both sides log to their own files and are sniffed
independently, every interleaving of Section 1's four states is observable
in the central database.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.errors import SimulationError
from repro.grid.job import Job, JobState
from repro.grid.machine import Machine


class Scheduler:
    """Scheduler process living on one machine."""

    def __init__(self, machine: Machine, rng: Optional[random.Random] = None) -> None:
        self.machine = machine
        self.rng = rng or random.Random(0)
        self.jobs: Dict[str, Job] = {}

    def submit(self, now: float, job: Job) -> None:
        """Accept a submission on this scheduling machine."""
        if job.submit_machine != self.machine.machine_id:
            raise SimulationError(
                f"job {job.job_id!r} submitted to {job.submit_machine!r}, "
                f"not to this scheduler's machine {self.machine.machine_id!r}"
            )
        if job.job_id in self.jobs:
            raise SimulationError(f"duplicate job id {job.job_id!r}")
        self.jobs[job.job_id] = job
        self.machine.log_job_submitted(now, job.job_id, job.owner)

    def schedule(
        self,
        now: float,
        job_id: str,
        machines: Dict[str, Machine],
        target: Optional[str] = None,
    ) -> str:
        """Assign a job to a machine and log the decision.

        ``target=None`` lets the scheduler choose: an idle neighbor if one
        exists, else any neighbor, else the scheduling machine itself.
        """
        job = self._job(job_id)
        if target is None:
            target = self._choose_target(machines)
        job.remote_machine = target
        job.transition(JobState.SCHEDULED)
        self.machine.log_job_scheduled(now, job.job_id, target)
        return target

    def _choose_target(self, machines: Dict[str, Machine]) -> str:
        candidates = [n for n in self.machine.neighbors if n in machines]
        idle = [n for n in candidates if machines[n].activity == "idle" and not machines[n].failed]
        pool = idle or [n for n in candidates if not machines[n].failed] or [
            self.machine.machine_id
        ]
        return self.rng.choice(pool)

    def reschedule(self, now: float, job_id: str, machines: Dict[str, Machine]) -> str:
        """Move a scheduled/suspended job to a new machine (evasive action)."""
        job = self._job(job_id)
        if job.state not in (JobState.SCHEDULED, JobState.SUSPENDED):
            raise SimulationError(
                f"cannot reschedule job {job_id!r} in state {job.state.value}"
            )
        job.transition(JobState.SCHEDULED)
        target = self._choose_target(machines)
        job.remote_machine = target
        self.machine.log_job_scheduled(now, job.job_id, target)
        return target

    def _job(self, job_id: str) -> Job:
        try:
            return self.jobs[job_id]
        except KeyError as exc:
            raise SimulationError(f"unknown job {job_id!r}") from exc

    def __repr__(self) -> str:
        return f"Scheduler(on={self.machine.machine_id!r}, jobs={len(self.jobs)})"
