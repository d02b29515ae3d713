"""Log sniffers: the monitoring processes that load logs into the DBMS.

Each sniffer tails exactly one machine's log. On each poll it reads every
record flushed before its visibility horizon (``now - lag``), transforms the
records into rows of the monitoring schema and applies them to the backend
in one write with the machine's Heartbeat entry, advanced to the newest
event timestamp it loaded — the simple recency protocol of Section 3.1
("maintain for each data source the timestamp of the most recent event
reported by that source"). HEARTBEAT records carry no data but still
advance recency, which is the paper's fix for sources that have nothing to
report.

Because each sniffer has its own lag and poll interval, the database is
inconsistent across sources in exactly the way the paper describes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.backends.base import DELETE, UPSERT, Backend, Write
from repro.core.sources import SourceState
from repro.errors import SimulationError, check_number
from repro.grid.events import EventKind, LogEvent
from repro.grid.machine import Machine
from repro.obs import instrument as obs

#: Monitoring-schema table names.
ACTIVITY_TABLE = "activity"
ROUTING_TABLE = "routing"
SCHED_TABLE = "sched_jobs"
RUN_TABLE = "run_jobs"


_SCHED_KEY = ("sched_machine_id", "job_id")
_RUN_KEY = ("running_machine_id", "job_id")

#: Each record kind's write: ``(op, table, key columns, values of the record)``
#: — the row an ``upsert`` lands, the key a ``delete`` removes. Every write is
#: keyed, so applying a record again converges to the same rows. HEARTBEAT
#: writes nothing: it only advances recency. The live poll and WAL replay
#: (:mod:`repro.durable.recover`) both read this table.
EVENT_WRITES = {
    EventKind.MACHINE_STATE: (UPSERT, ACTIVITY_TABLE, ("mach_id",),
                              lambda e: (e.source, e.value("value"), e.timestamp)),
    EventKind.NEIGHBOR_ADDED: (UPSERT, ROUTING_TABLE, ("mach_id", "neighbor"),
                               lambda e: (e.source, e.value("neighbor"), e.timestamp)),
    EventKind.JOB_SUBMITTED: (UPSERT, SCHED_TABLE, _SCHED_KEY,
                              lambda e: (e.source, e.value("job_id"), None, e.timestamp)),
    EventKind.JOB_SCHEDULED: (UPSERT, SCHED_TABLE, _SCHED_KEY, lambda e: (
        e.source, e.value("job_id"), e.value("remote_machine"), e.timestamp)),
    EventKind.JOB_STARTED: (UPSERT, RUN_TABLE, _RUN_KEY,
                            lambda e: (e.source, e.value("job_id"), e.timestamp)),
    EventKind.JOB_COMPLETED: (DELETE, RUN_TABLE, _RUN_KEY, lambda e: (e.source, e.value("job_id"))),
    EventKind.JOB_SUSPENDED: (DELETE, RUN_TABLE, _RUN_KEY, lambda e: (e.source, e.value("job_id"))),
    EventKind.HEARTBEAT: None,
}


def event_writes(events: Sequence[LogEvent]) -> List[Write]:
    """The backend writes of ``events``, in order (see :data:`EVENT_WRITES`)."""
    writes = []
    for event in events:
        spec = EVENT_WRITES[event.kind]
        if spec is not None:
            writes.append((spec[0], spec[1], spec[2], spec[3](event)))
    return writes


class SnifferConfig:
    """Tuning knobs for one sniffer.

    Parameters
    ----------
    poll_interval:
        Seconds between polls of the log.
    lag:
        Propagation delay: a record written at time ``t`` becomes visible to
        the sniffer at ``t + lag``.
    batch_size:
        Maximum records applied per poll (``None`` = unbounded). A small
        batch makes a chatty machine's sniffer fall progressively behind —
        another natural source of staleness.
    recency_protocol:
        How the Heartbeat timestamp is maintained (the two options of
        Section 3.1):

        * ``"last_event"`` (default) — the timestamp of the most recent
          event reported. Requires no cooperation from the application but
          makes a quiet source look out of date (the application's periodic
          HEARTBEAT records compensate).
        * ``"horizon"`` — after a fully drained poll, recency advances to
          the visibility horizon (``now - lag``) even with nothing to
          report. Sound only under this module's write model (events are
          logged immediately with monotone timestamps over reliable
          storage): then no event with a timestamp below the horizon can
          ever appear later. Note it cannot distinguish "alive and quiet"
          from "dead" — a crashed machine's recency keeps advancing, which
          is precisely the risk the paper's heartbeat discussion warns
          about.
    """

    __slots__ = ("poll_interval", "lag", "batch_size", "recency_protocol")

    PROTOCOLS = ("last_event", "horizon")

    def __init__(
        self,
        poll_interval: float = 5.0,
        lag: float = 2.0,
        batch_size: Optional[int] = None,
        recency_protocol: str = "last_event",
    ) -> None:
        check_number("poll_interval", poll_interval, 0, low_open=True, error=SimulationError)
        check_number("lag", lag, 0, error=SimulationError)
        if batch_size is not None:
            check_number("batch_size", batch_size, 1, error=SimulationError)
        if recency_protocol not in self.PROTOCOLS:
            raise SimulationError(
                f"unknown recency protocol {recency_protocol!r}; "
                f"expected one of {self.PROTOCOLS}"
            )
        self.poll_interval = poll_interval
        self.lag = lag
        self.batch_size = batch_size
        self.recency_protocol = recency_protocol

    def __repr__(self) -> str:
        return (
            f"SnifferConfig(poll={self.poll_interval}, lag={self.lag}, "
            f"batch={self.batch_size}, protocol={self.recency_protocol})"
        )


class Sniffer:
    """Tails one machine's log into the monitoring database."""

    def __init__(self, machine: Machine, backend: Backend, config: Optional[SnifferConfig] = None) -> None:
        self.machine = machine
        self.backend = backend
        self.config = config or SnifferConfig()
        self.offset = 0
        self.last_poll = float("-inf")
        self.last_loaded_timestamp: Optional[float] = None
        self.failed = False
        self.records_loaded = 0
        #: This source's record (``record.recency``: the newest recency the database
        #: acknowledged); private until its runner points it at a registry's.
        self.record = SourceState(machine.machine_id)
        #: Optional durability sink (a ``DurabilityManager``): each poll is
        #: journaled through it *before* it touches the backend, so recovery
        #: can replay it.
        self.journal = None

    def maybe_poll(self, now: float) -> int:
        """Poll if the interval elapsed. Returns records applied."""
        if self.failed:
            return 0
        if now - self.last_poll < self.config.poll_interval:
            return 0
        return self.poll(now)

    def poll(self, now: float) -> int:
        """Read newly visible records and apply them to the database."""
        if self.failed:
            return 0
        self.last_poll = now
        if self.offset > len(self.machine.log):
            # Durable resume: the recovered offset can run ahead of a log
            # that deterministic re-simulation is still regrowing. Nothing
            # new can be visible until the log catches up.
            return 0
        horizon = now - self.config.lag
        events, new_offset = self.machine.log.read_from(self.offset, horizon)
        truncated = False
        if self.config.batch_size is not None and len(events) > self.config.batch_size:
            events = events[: self.config.batch_size]
            new_offset = self.offset + len(events)
            truncated = True
        last_loaded = events[-1].timestamp if events else self.last_loaded_timestamp
        if self.config.recency_protocol == "horizon" and not truncated:
            # Fully drained up to the horizon: everything at or before it
            # that will ever exist has been reported (see SnifferConfig).
            recency: Optional[float] = horizon
        else:
            # The newest loaded event, this batch's or an earlier one's:
            # publication retries on every poll until the database
            # acknowledges it.
            recency = last_loaded
        if recency is not None and not recency > self.record.recency:
            recency = None  # nothing new to publish

        # One write per layer — one WAL frame, then one backend call — carries
        # the records and the recency they publish: seen, or failed, together.
        machine = self.machine.machine_id
        if self.journal is not None:
            if new_offset > self.offset:
                # Even with every record dropped on the way: no journal gap.
                self.journal.journal_events(
                    machine, self.offset, new_offset, events, now, recency
                )
            elif recency is not None:
                self.journal.journal_heartbeat(machine, recency, now)
        writes = event_writes(events)
        if writes or recency is not None:
            self.backend.apply_poll(writes, machine, recency)
        self.offset = new_offset
        if events:
            self.last_loaded_timestamp = last_loaded
            self.records_loaded += len(events)
        if recency is not None:
            self.record.recency = recency

        tel = obs.resolve(self.backend.telemetry)
        if tel.enabled:
            if events:
                tel.count(obs.SNIFFER_BATCHES, machine=machine)
                tel.count(obs.SNIFFER_EVENTS, len(events), machine=machine)
                # End-to-end sniff->DB lag per event: simulated "now" minus
                # the moment the source logged it.
                for event in events:
                    tel.observe(obs.SNIFFER_LAG, now - event.timestamp, machine=machine)
            tel.set(obs.SNIFFER_BACKLOG, self.backlog, machine=machine)
        return len(events)

    # -- failure injection --------------------------------------------------------

    def fail(self) -> None:
        """The sniffer process dies: the source's recency freezes."""
        self.failed = True

    def recover(self) -> None:
        """Restart: resumes from the durable offset (no records lost)."""
        self.failed = False

    @property
    def backlog(self) -> int:
        """Records written to the log but not yet loaded.

        Clamped at zero: after a durable resume the recovered offset can
        briefly exceed the length of a log still being regrown."""
        return max(0, len(self.machine.log) - self.offset)

    def __repr__(self) -> str:
        status = "FAILED" if self.failed else "ok"
        return (
            f"Sniffer({self.machine.machine_id!r}, {status}, "
            f"loaded={self.records_loaded}, backlog={self.backlog})"
        )
