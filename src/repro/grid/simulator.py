"""The discrete-event grid simulator.

Ties machines, a scheduler, sniffers and failure injection into a tick-based
loop driven by a seeded RNG, loading the monitoring database exactly the way
the paper's Condor/quill++ deployment did. Determinism matters: every
experiment in this repository is reproducible from a seed.

The monitoring schema (``monitoring_catalog``):

* ``activity(mach_id, value, event_time)`` — Section 4.1.1's example table;
* ``routing(mach_id, neighbor, event_time)`` — Section 4.1.2's P2P topology;
* ``sched_jobs(sched_machine_id, job_id, remote_machine_id, event_time)`` —
  the ``S`` relation of Section 4.2 (what the scheduler thinks);
* ``run_jobs(running_machine_id, job_id, event_time)`` — the ``R`` relation
  (what the running machine thinks).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.backends.memory import MemoryBackend
from repro.catalog import Catalog, Column, FiniteDomain, TableSchema, TextDomain, TimestampDomain
from repro.core.sources import SourceRegistry
from repro.errors import SimulationError, check_number
from repro.faults.plan import FaultPlan
from repro.grid.job import Job, JobState
from repro.grid.machine import Machine
from repro.grid.scheduler import Scheduler
from repro.grid.sniffer import Sniffer, SnifferConfig
from repro.grid.supervisor import SnifferSupervisor
from repro.obs import instrument as obs
from repro.obs.dashboard import source_rows
from repro.obs.events import EVT_SLO_BREACH


def monitoring_catalog(machine_ids: Sequence[str]) -> Catalog:
    """The monitoring database schema for a given set of machines.

    Machine-id columns get a finite domain (the machine set), which lets the
    satisfiability checks and the brute-force oracle reason exactly.
    """
    machines = FiniteDomain(machine_ids)
    activity = TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machines),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )
    routing = TableSchema(
        "routing",
        [
            Column("mach_id", "TEXT", machines),
            Column("neighbor", "TEXT", machines),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="mach_id",
    )
    sched_jobs = TableSchema(
        "sched_jobs",
        [
            Column("sched_machine_id", "TEXT", machines),
            Column("job_id", "TEXT", TextDomain()),
            Column("remote_machine_id", "TEXT", machines),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="sched_machine_id",
    )
    run_jobs = TableSchema(
        "run_jobs",
        [
            Column("running_machine_id", "TEXT", machines),
            Column("job_id", "TEXT", TextDomain()),
            Column("event_time", "TIMESTAMP", TimestampDomain()),
        ],
        source_column="running_machine_id",
    )
    return Catalog([activity, routing, sched_jobs, run_jobs])


class SimulationConfig:
    """Knobs for the random behaviour of the grid."""

    def __init__(
        self,
        num_machines: int = 8,
        seed: int = 0,
        tick: float = 1.0,
        neighbor_degree: int = 3,
        heartbeat_interval: float = 30.0,
        activity_flip_probability: float = 0.05,
        job_submit_probability: float = 0.10,
        job_duration_range: Tuple[float, float] = (20.0, 120.0),
        transfer_delay: float = 2.0,
        machine_failure_probability: float = 0.0,
        machine_recover_probability: float = 0.05,
        sniffer_poll_interval_range: Tuple[float, float] = (3.0, 10.0),
        sniffer_lag_range: Tuple[float, float] = (1.0, 8.0),
        num_schedulers: int = 1,
        machine_id_start: int = 1,
    ) -> None:
        check_number("num_machines", num_machines, 1, error=SimulationError)
        check_number("machine_id_start", machine_id_start, 1, error=SimulationError)
        check_number("num_schedulers", num_schedulers, 1, num_machines, error=SimulationError)
        check_number("tick", tick, 0, low_open=True, error=SimulationError)
        check_number(
            "heartbeat_interval", heartbeat_interval, 0, low_open=True, error=SimulationError
        )
        check_number("transfer_delay", transfer_delay, 0, error=SimulationError)
        for name, probability in (
            ("activity_flip_probability", activity_flip_probability),
            ("job_submit_probability", job_submit_probability),
            ("machine_failure_probability", machine_failure_probability),
            ("machine_recover_probability", machine_recover_probability),
        ):
            check_number(name, probability, 0, 1, error=SimulationError)
        # Each range is (low, high) with low <= high.
        for name, (low, high), positive in (
            ("job_duration_range", job_duration_range, True),
            ("sniffer_poll_interval_range", sniffer_poll_interval_range, True),
            ("sniffer_lag_range", sniffer_lag_range, False),
        ):
            check_number(f"{name}[0]", low, 0, low_open=positive, error=SimulationError)
            check_number(f"{name}[1]", high, low, error=SimulationError)
        self.num_machines = num_machines
        self.seed = seed
        self.tick = tick
        self.neighbor_degree = min(neighbor_degree, num_machines - 1)
        self.heartbeat_interval = heartbeat_interval
        self.activity_flip_probability = activity_flip_probability
        self.job_submit_probability = job_submit_probability
        self.job_duration_range = job_duration_range
        self.transfer_delay = transfer_delay
        self.machine_failure_probability = machine_failure_probability
        self.machine_recover_probability = machine_recover_probability
        self.sniffer_poll_interval_range = sniffer_poll_interval_range
        self.sniffer_lag_range = sniffer_lag_range
        self.num_schedulers = num_schedulers
        self.machine_id_start = machine_id_start

    def to_dict(self) -> dict:
        """The constructor's arguments by name (every attribute is one),
        checkpointed as JSON so ``--resume`` can rebuild an identical
        simulator without the caller re-specifying flags."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        # JSON turned the three ranges into lists.
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()})

    def __repr__(self) -> str:
        return (
            f"SimulationConfig(machines={self.num_machines}, seed={self.seed}, "
            f"schedulers={self.num_schedulers})"
        )


class GridSimulator:
    """A deterministic grid whose state is monitored through a backend.

    Parameters
    ----------
    config:
        The :class:`SimulationConfig`.
    fault_plan:
        An optional :class:`~repro.faults.FaultPlan`. When given, every
        sniffer runs under a :class:`~repro.grid.supervisor.SnifferSupervisor`
        wired to the plan, and plan-scripted silences are applied to the
        machines each tick.
    silence_timeout:
        Positive simulation seconds without progress after which a
        supervisor degrades its source as silent. Given without a fault
        plan, it still puts every sniffer under a supervisor (which then
        guards un-planned errors and runs the watchdog).
    sources:
        The :class:`~repro.core.sources.SourceRegistry` the ingest path
        writes (``sim.sources``; one is created when none is given): every
        sniffer and supervisor keeps its source's record there. Pass it to a
        :class:`~repro.core.report.RecencyReporter` to get degradation-aware
        reports. When it has a staleness target, every tick samples each
        source's recency lag into its record (and into the
        ``trac_source_lag_seconds`` histogram when telemetry is on), and a
        newly breached source emits an ``slo.breach`` event.
    telemetry:
        Explicit telemetry override for the simulator's own samples;
        defaults to the process-wide one.
    durability:
        An optional :class:`~repro.durable.DurabilityManager`. When given,
        machine logs are mirrored to disk, applied batches and heartbeats
        are journaled to the WAL, the manager checkpoints on its cadence
        from :meth:`step`, and (when it was opened with ``resume=True``)
        the simulator is restored to the recovered state instead of
        bootstrapping from scratch.
    incremental:
        When True, build an
        :class:`~repro.incremental.IncrementalMaintainer` over the backend
        (``sim.incremental``): reporters built with
        ``incremental=sim.incremental`` answer eligible repeated queries
        from the Heartbeat positions it remembers, read in each report's
        snapshot.
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
        silence_timeout: Optional[float] = None,
        sources: Optional[SourceRegistry] = None,
        telemetry: Optional[object] = None,
        durability: Optional[object] = None,
        incremental: bool = False,
    ) -> None:
        if silence_timeout is not None:
            check_number(
                "silence_timeout", silence_timeout, 0, low_open=True, error=SimulationError
            )
        self.config = config or SimulationConfig()
        self.rng = random.Random(self.config.seed)
        self.now = 0.0
        # Shard federation gives each shard a disjoint id range by shifting
        # machine_id_start, so unioned reports never alias two machines.
        start = self.config.machine_id_start
        self.machine_ids = [f"m{start + i}" for i in range(self.config.num_machines)]
        self.catalog = monitoring_catalog(self.machine_ids)
        self.backend = MemoryBackend(self.catalog)
        self.incremental = None
        if incremental:
            from repro.incremental import IncrementalMaintainer

            self.incremental = IncrementalMaintainer(self.backend, telemetry=telemetry)

        self.machines: Dict[str, Machine] = {mid: Machine(mid) for mid in self.machine_ids}
        self.schedulers: Dict[str, Scheduler] = {}
        for mid in self.machine_ids[: self.config.num_schedulers]:
            self.schedulers[mid] = Scheduler(self.machines[mid], self.rng)

        #: The one holder of the plan: supervisors, their proxies, the
        #: durability manager and a ``ShardServer`` all read it from here.
        self.fault_plan = fault_plan
        self.durability = durability

        self.sources = sources if sources is not None else SourceRegistry()
        self.sniffers: Dict[str, Sniffer] = {}
        for mid in self.machine_ids:
            sniffer_config = SnifferConfig(
                poll_interval=self.rng.uniform(*self.config.sniffer_poll_interval_range),
                lag=self.rng.uniform(*self.config.sniffer_lag_range),
            )
            sniffer = Sniffer(self.machines[mid], self.backend, sniffer_config)
            sniffer.record = self.sources.open(mid)
            self.sniffers[mid] = sniffer

        self.telemetry = telemetry
        self._plan_silenced: Set[str] = set()
        self._job_counter = 0
        self._pending_starts: List[Tuple[float, str, str]] = []  # (time, machine, job)
        self._pending_completions: List[Tuple[float, str, str]] = []
        self._last_heartbeat: Dict[str, float] = {mid: 0.0 for mid in self.machine_ids}
        # The binding resets the RNG past the sniffer-config draws and
        # restores what the lines above built. It must run before
        # supervisors wrap the machine logs in FaultyLog proxies (the disk
        # mirror sits underneath injection) and mark their sources healthy
        # (a restored status is kept).
        restored = durability is not None and durability.bind(self)

        self.supervisors: Dict[str, SnifferSupervisor] = {}
        if fault_plan is not None or silence_timeout is not None:
            for mid in self.machine_ids:
                self.supervisors[mid] = SnifferSupervisor(
                    self.sniffers[mid],
                    plan=fault_plan,
                    silence_timeout=silence_timeout,
                    sources=self.sources,
                    seed=self.config.seed,
                )
        #: Each machine's poll turn, in machine order: its supervisor's
        #: ``tick`` when supervised, else its sniffer's ``maybe_poll``.
        self._polls: List[Tuple[str, Callable[[float], int]]] = [
            (mid, self.supervisors[mid].tick if self.supervisors else sniffer.maybe_poll)
            for mid, sniffer in self.sniffers.items()
        ]
        if not restored:
            self._build_topology()
            self._bootstrap_state()

    # -- setup ------------------------------------------------------------

    def _build_topology(self) -> None:
        for mid in self.machine_ids:
            others = [o for o in self.machine_ids if o != mid]
            self.rng.shuffle(others)
            for neighbor in others[: self.config.neighbor_degree]:
                self.machines[mid].add_neighbor(self.now, neighbor)

    def _bootstrap_state(self) -> None:
        for mid in self.machine_ids:
            self.machines[mid].set_activity(self.now, "idle")

    # -- public control ----------------------------------------------------

    def submit_job(
        self,
        owner: str,
        scheduler_machine: Optional[str] = None,
        duration: Optional[float] = None,
    ) -> Job:
        """Submit a job to a scheduling machine (random one by default)."""
        if scheduler_machine is None:
            scheduler_machine = self.rng.choice(list(self.schedulers))
        if scheduler_machine not in self.schedulers:
            raise SimulationError(f"{scheduler_machine!r} is not a scheduling machine")
        self._job_counter += 1
        job = Job(
            job_id=f"j{self._job_counter}",
            owner=owner,
            submit_machine=scheduler_machine,
            submitted_at=self.now,
            duration=duration
            if duration is not None
            else self.rng.uniform(*self.config.job_duration_range),
        )
        scheduler = self.schedulers[scheduler_machine]
        scheduler.submit(self.now, job)
        target = scheduler.schedule(self.now, job.job_id, self.machines)
        self._pending_starts.append((self.now + self.config.transfer_delay, target, job.job_id))
        return job

    def step(self) -> None:
        """Advance the simulation by one tick."""
        self.now += self.config.tick
        if self.fault_plan is not None:
            self._apply_plan_silences()
        self._process_job_lifecycle()
        self._random_behaviour()
        self._poll_all()
        self._observe(self.now)
        if self.durability is not None:
            self.durability.maybe_checkpoint(self.now)

    def run(self, duration: float) -> None:
        """Advance the clock by ``duration`` seconds."""
        target = self.now + duration
        while self.now < target:
            self.step()

    def drain(self) -> None:
        """Force every sniffer to catch up completely (zero lag, now).

        Useful in tests that need the database to reflect the full logs.
        """
        for sniffer in self.sniffers.values():
            saved_lag = sniffer.config.lag
            sniffer.config.lag = 0.0
            sniffer.poll(self.now)
            sniffer.config.lag = saved_lag

    # -- durability ---------------------------------------------------------

    def durable_state(self) -> dict:
        """A JSON-serializable snapshot of everything needed to resume.

        The database portion is captured inside one ``backend.snapshot()``
        (PR 2's copy-on-write views), so all tables plus heartbeats are
        read at a single consistent point even though the capture issues
        one query per table.
        """
        from repro.catalog import (
            HEARTBEAT_RECENCY_COLUMN,
            HEARTBEAT_SOURCE_COLUMN,
            HEARTBEAT_TABLE,
        )

        version, internal, gauss = self.rng.getstate()
        tables: Dict[str, List[list]] = {}
        with self.backend.snapshot() as snap:
            for schema in self.catalog.monitored_tables():
                columns = ", ".join(col.name for col in schema.columns)
                result = snap.execute(f"SELECT {columns} FROM {schema.name}")
                tables[schema.name] = [list(row) for row in result.rows]
            hb_rows = snap.execute(
                f"SELECT {HEARTBEAT_SOURCE_COLUMN}, {HEARTBEAT_RECENCY_COLUMN} "
                f"FROM {HEARTBEAT_TABLE}"
            ).rows
        heartbeats = sorted([str(sid), float(recency)] for sid, recency in hb_rows)

        machines = {}
        for mid, machine in self.machines.items():
            machines[mid] = {
                "activity": machine.activity,
                "neighbors": list(machine.neighbors),
                "running_jobs": sorted(machine.running_jobs),
                "failed": machine.failed,
                "log_len": len(machine.log),
            }
        schedulers = {}
        for mid, scheduler in self.schedulers.items():
            schedulers[mid] = {
                job_id: {
                    "owner": job.owner,
                    "submit_machine": job.submit_machine,
                    "state": job.state.value,
                    "remote_machine": job.remote_machine,
                    "submitted_at": job.submitted_at,
                    "started_at": job.started_at,
                    "completed_at": job.completed_at,
                    "duration": job.duration,
                }
                for job_id, job in scheduler.jobs.items()
            }
        ingest = {
            "offsets": {mid: sniffer.offset for mid, sniffer in self.sniffers.items()},
            # Poll phase matters for determinism: without it a resumed
            # sniffer would poll immediately and batch boundaries shift.
            "last_poll": {
                mid: sniffer.last_poll
                for mid, sniffer in self.sniffers.items()
                if sniffer.last_poll != float("-inf")
            },
            "recency": self.reported_recency(),
            "last_loaded": {
                mid: sniffer.last_loaded_timestamp
                for mid, sniffer in self.sniffers.items()
                if sniffer.last_loaded_timestamp is not None
            },
            "records_loaded": {
                mid: sniffer.records_loaded for mid, sniffer in self.sniffers.items()
            },
        }
        state = {
            "config": self.config.to_dict(),
            "machine_ids": list(self.machine_ids),
            "now": self.now,
            "job_counter": self._job_counter,
            "rng": {"version": version, "internal": list(internal), "gauss": gauss},
            "machines": machines,
            "schedulers": schedulers,
            "pending_starts": [list(p) for p in self._pending_starts],
            "pending_completions": [list(p) for p in self._pending_completions],
            "last_heartbeat": dict(self._last_heartbeat),
            "plan_silenced": sorted(self._plan_silenced),
            "database": {"tables": tables, "heartbeats": heartbeats},
            "ingest": ingest,
        }
        # The per-source records, whole: ``health`` and ``slo`` blocks, and
        # the supervision counters beside the sniffers' in ``ingest``.
        records = self.sources.checkpoint()
        ingest.update(records.pop("ingest"))
        state.update(records)
        if self.fault_plan is not None:
            # Spent triggers and decision streams rewind with the clock.
            state["fault_plan"] = self.fault_plan.checkpoint()
        return state

    def restore_durable_state(self, recovered) -> None:
        """Put back what :meth:`durable_state` wrote, then the WAL's marks.

        ``recovered`` is the durability manager's
        :class:`~repro.durable.recover.RecoveredState`: the backend already
        holds the checkpoint plus the replayed WAL tail. Its checkpoint
        (``None`` when only a WAL survived) restores clocks, RNG, machines,
        jobs, pending queues, plan silences, the fault plan, each sniffer's
        ingest fields and the per-source records; the sniffers of degraded
        sources are stopped. The WAL's offsets, recency and last-loaded
        timestamps then advance the sniffers past the checkpoint.
        """
        state = recovered.state
        if state is not None:
            self._restore_checkpoint(state)
        for mid, sniffer in self.sniffers.items():
            sniffer.offset = recovered.offsets.get(mid, sniffer.offset)
            if mid in recovered.recency:
                sniffer.record.recency = recovered.recency[mid]
            if mid in recovered.last_loaded:
                sniffer.last_loaded_timestamp = recovered.last_loaded[mid]

    def _restore_checkpoint(self, state: dict) -> None:
        self.now = float(state["now"])
        self._job_counter = int(state["job_counter"])
        rng_state = state["rng"]
        self.rng.setstate(
            (
                rng_state["version"],
                tuple(rng_state["internal"]),
                rng_state["gauss"],
            )
        )
        for mid, saved in state["machines"].items():
            machine = self.machines[mid]
            machine.activity = saved["activity"]
            machine.neighbors = list(saved["neighbors"])
            machine.running_jobs = set(saved["running_jobs"])
            machine.failed = bool(saved["failed"])
        for mid, jobs in state["schedulers"].items():
            scheduler = self.schedulers[mid]
            scheduler.jobs.clear()
            for job_id, saved in jobs.items():
                job = Job(
                    job_id=job_id,
                    owner=saved["owner"],
                    submit_machine=saved["submit_machine"],
                    submitted_at=saved["submitted_at"],
                    duration=saved["duration"],
                )
                job.state = JobState(saved["state"])
                job.remote_machine = saved["remote_machine"]
                job.started_at = saved["started_at"]
                job.completed_at = saved["completed_at"]
                scheduler.jobs[job_id] = job
        self._pending_starts = [
            (float(t), str(machine), str(job)) for t, machine, job in state["pending_starts"]
        ]
        self._pending_completions = [
            (float(t), str(machine), str(job))
            for t, machine, job in state["pending_completions"]
        ]
        self._last_heartbeat = {
            mid: float(t) for mid, t in state["last_heartbeat"].items()
        }
        self._plan_silenced = set(state.get("plan_silenced", []))
        if self.fault_plan is not None and "fault_plan" in state:
            self.fault_plan.restore(state["fault_plan"])
        ingest = state.get("ingest", {})
        loaded, polled = ingest.get("records_loaded", {}), ingest.get("last_poll", {})
        for mid, sniffer in self.sniffers.items():
            sniffer.records_loaded = int(loaded.get(mid, sniffer.records_loaded))
            sniffer.last_poll = float(polled.get(mid, sniffer.last_poll))
        self.sources.restore(state)
        for sid in self.sources.degraded():
            if sid in self.sniffers:  # a shared registry may know more
                # A degraded source stays dark after restart until an
                # operator (or test) revives it explicitly.
                self.sniffers[sid].fail()

    # -- internals -----------------------------------------------------------

    def _poll_all(self) -> None:
        """Run every sniffer's poll turn for this tick.

        With telemetry enabled the whole pass runs inside one
        ``grid.poll_cycle`` span, and each sniffer turn that actually
        ingested events records its wall latency into the
        ``trac_poll_seconds`` histogram (trace-id exemplar attached) and
        the source's poll-latency ring, which the dashboard shows.
        """
        tel = obs.resolve(self.telemetry)
        now = self.now
        if not tel.enabled:
            for _mid, poll in self._polls:
                poll(now)
            return
        with tel.tracer.span("grid.poll_cycle", t=now) as span:
            polled = 0
            for mid, poll in self._polls:
                start = time.perf_counter()
                ingested = poll(now)
                elapsed = time.perf_counter() - start
                if ingested:
                    polled += 1
                    tel.observe(
                        obs.POLL_SECONDS, elapsed, trace_id=span.trace_id_hex, machine=mid
                    )
                    self.sources.record_poll(mid, elapsed * 1000.0)
            span.set_attribute("polled", polled)

    def reported_recency(self) -> Dict[str, float]:
        """``{machine id: reported recency}`` of every sniffer that has
        reported (a source that never has is absent, not ``-inf``)."""
        pairs = ((mid, sniffer.record.recency) for mid, sniffer in self.sniffers.items())
        return {mid: recency for mid, recency in pairs if recency != float("-inf")}

    def status(self) -> dict:
        """The ``/status`` document (``trac simulate --serve`` / ``--top``)."""
        rows = source_rows(self.reported_recency(), self.now, self.sources)
        for row in rows:
            if row["id"] in self.sniffers:
                row["backlog"] = self.sniffers[row["id"]].backlog
        doc: dict = {"now": self.now, "wall": time.time(), "sources": rows}
        if self.sources.target_p95 is not None:
            doc["slo"] = self.sources.slo_status()
        if self.incremental is not None:
            doc["incremental"] = self.incremental.stats()
        return doc

    def _observe(self, now: float) -> None:
        """Sample per-source recency lag into the records + histogram."""
        tel = obs.resolve(self.telemetry)
        sources = self.sources
        tracked = sources.target_p95 is not None
        if not tracked and not tel.enabled:
            return
        for mid, reported in self.reported_recency().items():
            lag = max(0.0, now - reported)
            if tel.enabled:
                tel.observe(obs.SOURCE_LAG, lag, source=mid)
            if not tracked:
                continue
            was_breached, burn = sources.record_lag(mid, now, lag)
            if tel.enabled and (was_breached or burn >= 1.0):
                tel.set(obs.SLO_BURN, burn, source=mid)
                if not was_breached:
                    tel.emit(
                        EVT_SLO_BREACH,
                        t=now,
                        source=mid,
                        severity="error",
                        burn=burn,
                        p95=sources.standing_of(mid)["p95"],
                        target=sources.target_p95,
                    )

    def _apply_plan_silences(self) -> None:
        """Start/stop plan-scripted silences (the machine stops logging)."""
        silenced = self.fault_plan.silenced_sources(self.now)
        for mid in self.machine_ids:
            machine = self.machines[mid]
            if mid in silenced and mid not in self._plan_silenced:
                machine.fail()
                self._plan_silenced.add(mid)
            elif mid not in silenced and mid in self._plan_silenced:
                self._plan_silenced.discard(mid)
                machine.recover(self.now)

    def _process_job_lifecycle(self) -> None:
        due_starts = [p for p in self._pending_starts if p[0] <= self.now]
        self._pending_starts = [p for p in self._pending_starts if p[0] > self.now]
        for _, machine_id, job_id in due_starts:
            machine = self.machines[machine_id]
            job = self._find_job(job_id)
            if machine.failed:
                # Evasive action: the scheduler reschedules elsewhere.
                scheduler = self.schedulers[job.submit_machine]
                new_target = scheduler.reschedule(self.now, job_id, self.machines)
                self._pending_starts.append(
                    (self.now + self.config.transfer_delay, new_target, job_id)
                )
                continue
            machine.start_job(self.now, job_id)
            job.transition(JobState.RUNNING)
            job.started_at = self.now
            self._pending_completions.append((self.now + job.duration, machine_id, job_id))

        due_completions = [p for p in self._pending_completions if p[0] <= self.now]
        self._pending_completions = [p for p in self._pending_completions if p[0] > self.now]
        for _, machine_id, job_id in due_completions:
            machine = self.machines[machine_id]
            job = self._find_job(job_id)
            machine.complete_job(self.now, job_id)
            job.transition(JobState.COMPLETED)
            job.completed_at = self.now

    def _random_behaviour(self) -> None:
        for mid in self.machine_ids:
            machine = self.machines[mid]
            if machine.failed:
                # Plan-scripted silences end on the plan's schedule, not by
                # the random recovery coin-flip.
                if mid in self._plan_silenced:
                    continue
                if self.rng.random() < self.config.machine_recover_probability:
                    machine.recover(self.now)
                continue
            if self.rng.random() < self.config.machine_failure_probability:
                machine.fail()
                continue
            if self.now - self._last_heartbeat[mid] >= self.config.heartbeat_interval:
                machine.heartbeat(self.now)
                self._last_heartbeat[mid] = self.now
            if not machine.running_jobs and self.rng.random() < self.config.activity_flip_probability:
                new_state = "busy" if machine.activity == "idle" else "idle"
                machine.set_activity(self.now, new_state)
        if self.rng.random() < self.config.job_submit_probability:
            self.submit_job(owner=f"user{self.rng.randint(1, 5)}")

    def _find_job(self, job_id: str) -> Job:
        for scheduler in self.schedulers.values():
            if job_id in scheduler.jobs:
                return scheduler.jobs[job_id]
        raise SimulationError(f"unknown job {job_id!r}")

    @property
    def all_jobs(self) -> List[Job]:
        out: List[Job] = []
        for scheduler in self.schedulers.values():
            out.extend(scheduler.jobs.values())
        return out

    def __repr__(self) -> str:
        return (
            f"GridSimulator(t={self.now}, machines={len(self.machines)}, "
            f"jobs={len(self.all_jobs)})"
        )
