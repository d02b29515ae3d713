"""Grid machines.

A machine owns its log file, an activity state (idle/busy), a neighbor list
(the P2P routing of Section 4.1.2's example) and the set of jobs it is
currently running. All observable behaviour flows through the log: the
monitoring pipeline knows only what the machine wrote.

Failure model: a failed machine stops writing *and* its sniffer stops
loading, so its recency timestamp in the central database freezes — this is
how "exceptionally out of date" sources (Section 4.3) arise.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import SimulationError
from repro.grid.events import EventKind, LogEvent
from repro.grid.logfile import LogFile


class Machine:
    """One grid node."""

    def __init__(self, machine_id: str) -> None:
        self.machine_id = machine_id
        self.log = LogFile(machine_id)
        self.activity = "idle"
        self.neighbors: List[str] = []
        self.running_jobs: Set[str] = set()
        self.failed = False

    # -- log emission -------------------------------------------------------

    def _emit(self, now: float, kind: EventKind, **payload: object) -> Optional[LogEvent]:
        if self.failed:
            return None  # a failed machine writes nothing
        event = LogEvent(now, self.machine_id, kind, payload)
        self.log.append(event)
        return event

    def set_activity(self, now: float, value: str) -> None:
        """Change and log the activity state."""
        if value not in ("idle", "busy"):
            raise SimulationError(f"invalid activity value {value!r}")
        self.activity = value
        self._emit(now, EventKind.MACHINE_STATE, value=value)

    def add_neighbor(self, now: float, neighbor: str) -> None:
        """Record a new neighbor relationship."""
        if neighbor not in self.neighbors:
            self.neighbors.append(neighbor)
        self._emit(now, EventKind.NEIGHBOR_ADDED, neighbor=neighbor)

    def heartbeat(self, now: float) -> None:
        """Write a "nothing to report" record (Section 3.1's heartbeat)."""
        self._emit(now, EventKind.HEARTBEAT)

    # -- job-side records -----------------------------------------------------

    def log_job_submitted(self, now: float, job_id: str, owner: str) -> None:
        self._emit(now, EventKind.JOB_SUBMITTED, job_id=job_id, owner=owner)

    def log_job_scheduled(self, now: float, job_id: str, remote_machine: str) -> None:
        self._emit(now, EventKind.JOB_SCHEDULED, job_id=job_id, remote_machine=remote_machine)

    def start_job(self, now: float, job_id: str) -> None:
        """Begin running a job here (logged by *this* machine)."""
        self.running_jobs.add(job_id)
        if self.activity != "busy":
            self.set_activity(now, "busy")
        self._emit(now, EventKind.JOB_STARTED, job_id=job_id)

    def complete_job(self, now: float, job_id: str) -> None:
        self.running_jobs.discard(job_id)
        self._emit(now, EventKind.JOB_COMPLETED, job_id=job_id)
        if not self.running_jobs and self.activity != "idle":
            self.set_activity(now, "idle")

    # -- failure injection -------------------------------------------------------

    def fail(self) -> None:
        """Hard failure: the machine goes silent."""
        self.failed = True

    def recover(self, now: float) -> None:
        """Recovery: the machine resumes logging, starting with a heartbeat."""
        self.failed = False
        self.heartbeat(now)

    def __repr__(self) -> str:
        status = "FAILED" if self.failed else self.activity
        return f"Machine({self.machine_id!r}, {status}, jobs={len(self.running_jobs)})"
