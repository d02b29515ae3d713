"""``ingest_visible``: log append -> heartbeat -> visible in a report.

The paper's own quantity of interest, and the one workload that **writes
beside reads**: a ``GridSimulator`` with incremental maintenance and a
WAL-journaling ``DurabilityManager`` ingests machine logs tick by tick;
every tenth tick one single-table and one join report run through a
reporter bound to ``sim.incremental``, followed by a *probe* — append one
event to a machine's log, poll that machine's sniffer, report, and check
the report shows the source at the probe's timestamp.

Fixed work, not fixed time: state grows as the run proceeds, so a pass is a
fixed number of ticks (:data:`TICKS_PER_SECOND` x ``--seconds``, sized once
so a full pass takes about ``--seconds`` on the host the seed numbers came
from) split into equal tick ranges. Record counts, maintainer updates and
WAL records therefore repeat exactly from run to run.

Read cost and write cost trade here: anything that makes reports cheaper by
doing more per heartbeat shows up as lost ``records_per_s``.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional

from repro.backends.memory import MemoryBackend
from repro.core.report import RecencyReporter
from repro.durable import (
    DurabilityManager,
    DurabilityPolicy,
    list_wal_segments,
    recover,
    scan_frames,
)
from repro.grid.simulator import GridSimulator, SimulationConfig

import probes
from protocol import (
    OUT_DIR,
    SEGMENTS,
    Recorder,
    Workload,
    median_ms,
    median_over_segments,
    median_us,
    traced_round,
)
from spans import SpanRecorder, report_span

#: WAL flush policy, the same on every run and stated in the result
#: document: fsync when a second of wall time has passed since the last.
FSYNC_POLICY = "interval"

MACHINES = {"full": 256, "quick": 256, "mini": 32}
#: Frozen sizing: 256 machines x 240 ticks per second of ``--seconds``.
TICKS_PER_SECOND = {"full": 240, "quick": 50, "mini": 200}
REPORT_EVERY = 10
WARMUP_TICKS = 60

SQLS = {
    "single": "SELECT COUNT(*) FROM activity A WHERE A.value = 'idle'",
    "join": (
        "SELECT COUNT(*) FROM routing R, activity A "
        "WHERE R.neighbor = A.mach_id AND A.value = 'idle'"
    ),
}


#: The same two queries in the form the shared probes take.
PROBE_SQLS = {shape: [sql] for shape, sql in SQLS.items()}


def rows_scanned(backend) -> Dict[str, int]:
    """Rows each query shape reads, for ``engine.rows_per_s``."""
    rows = {name: backend.row_count(name) for name in ("activity", "routing")}
    return {"single": rows["activity"], "join": rows["activity"] + rows["routing"]}


class JournalTimer:
    """Stands in for the public ``Sniffer.journal`` attribute and times
    what passes through to the real durability manager."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.seconds = 0.0

    def journal_events(self, *args) -> None:
        start = time.perf_counter()
        self.inner.journal_events(*args)
        self.seconds += time.perf_counter() - start

    def journal_heartbeat(self, *args) -> None:
        start = time.perf_counter()
        self.inner.journal_heartbeat(*args)
        self.seconds += time.perf_counter() - start


class IngestWorkload(Workload):
    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.machines = MACHINES[scale]
        self.config = {
            "machines": self.machines,
            "ticks_per_second": TICKS_PER_SECOND[scale],
            "report_every_ticks": REPORT_EVERY,
            "flush_policy": FSYNC_POLICY,
            "callers": 1,
        }
        self.data_dir: Optional[str] = None

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="ingest-", dir=OUT_DIR)
        self.durability = DurabilityManager(self.data_dir, DurabilityPolicy(fsync=FSYNC_POLICY))
        self.sim = GridSimulator(
            SimulationConfig(num_machines=self.machines, seed=self.seed),
            durability=self.durability,
            incremental=True,
        )
        self.reporter = self._reporter()
        self.everyone = set(self.sim.machine_ids)
        self.rounds = 0
        self.ticks_run = 0
        self._run_ticks(WARMUP_TICKS, Recorder())

    def _reporter(self, telemetry: Optional[object] = None) -> RecencyReporter:
        return RecencyReporter(
            self.sim.backend,
            create_temp_tables=False,
            plan_cache_size=128,
            incremental=self.sim.incremental,
            telemetry=telemetry,
        )

    def teardown(self) -> None:
        if self.data_dir is None:
            return
        if self.durability is not None:
            self.durability.close(final_checkpoint=False)
        self.reporter.close()
        self.sim.backend.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir = None

    # -- the tick loop ------------------------------------------------------

    def _ticks_for(self, seconds: float) -> int:
        """Whole report rounds in every segment, one at least."""
        unit = SEGMENTS * REPORT_EVERY
        return max(1, round(TICKS_PER_SECOND[self.scale] * seconds / unit)) * unit

    def _records_loaded(self) -> int:
        return sum(sniffer.records_loaded for sniffer in self.sim.sniffers.values())

    def _run_ticks(
        self,
        ticks: int,
        recorder: Recorder,
        spans: Optional[SpanRecorder] = None,
        baseline: Optional[Recorder] = None,
    ) -> Dict[str, object]:
        """Run ``ticks`` ticks in :data:`SEGMENTS` equal ranges; reports and
        a probe every :data:`REPORT_EVERY` ticks. With ``spans``, ingest is
        always traced and every other report round goes untraced into
        ``baseline``. Returns what the ingest side did, per segment."""
        per_segment = ticks // SEGMENTS
        sim = self.sim
        records_per_s: List[float] = []
        visible_ms: List[float] = []
        steps: List[float] = []
        poll_us_per_record: List[float] = []
        backlog_max = 0
        for segment in range(SEGMENTS):
            ingest_s = 0.0
            visible: List[float] = []
            records_before = self._records_loaded()
            segment_start = time.perf_counter()
            for _ in range(per_segment):
                start = time.perf_counter()
                if spans is None:
                    sim.step()
                else:
                    with spans.span("grid.step"):
                        sim.step()
                step_s = time.perf_counter() - start
                steps.append(step_s)
                ingest_s += step_s
                self.ticks_run += 1
                if self.ticks_run % REPORT_EVERY:
                    continue
                backlog_max = max(backlog_max, max(s.backlog for s in sim.sniffers.values()))
                if spans is None or traced_round(self.rounds):
                    for shape, sql in SQLS.items():
                        self._report(shape, sql, segment, recorder, spans)
                else:
                    for shape, sql in SQLS.items():
                        self._report(shape, sql, segment, baseline, None)
                probe = self._probe(recorder, spans)
                ingest_s += probe["ingest_s"]
                visible.append(probe["visible_s"])
                poll_us_per_record.append(probe["poll_s"] / probe["records"] * 1e6)
            recorder.note_wall(segment, time.perf_counter() - segment_start)
            records_per_s.append((self._records_loaded() - records_before) / ingest_s)
            if visible:
                visible_ms.append(statistics.median(visible) * 1e3)
        return {
            "records_per_s": records_per_s,
            "visible_ms": visible_ms,
            "steps": steps,
            "poll_us_per_record": poll_us_per_record,
            "backlog_max": backlog_max,
        }

    def _report(
        self,
        shape: str,
        sql: str,
        segment: int,
        recorder: Recorder,
        spans: Optional[SpanRecorder],
    ) -> None:
        recorder.burst(segment)
        with report_span(spans, [shape, self.rounds]) as root:
            report = self.reporter.report(sql)
        if spans is not None:
            probes.add_report_children(spans, root, report.timings.to_dict())
        plain, plain_s = probes.timed_plain(self.reporter, sql)
        # Nothing is ingested between the two, so they must agree, and by
        # now every machine has reported in: both queries touch them all.
        ok = report.result.rows == plain.rows and report.relevant_source_ids == self.everyone
        recorder.add(segment, shape, root.duration, plain_s, ok)

    def _probe(self, recorder: Recorder, spans: Optional[SpanRecorder]) -> Dict[str, float]:
        """Append one event to a machine's log, poll its sniffer (with the
        propagation lag lifted, as ``GridSimulator.drain`` does), report,
        and require the report to show that source at the event's time."""
        sim = self.sim
        machine_id = sim.machine_ids[self.rounds % self.machines]
        self.rounds += 1
        machine = sim.machines[machine_id]
        sniffer = sim.sniffers[machine_id]
        stamp = sim.now
        start = time.perf_counter()
        machine.set_activity(stamp, "busy" if machine.activity == "idle" else "idle")
        lag, sniffer.config.lag = sniffer.config.lag, 0.0
        try:
            poll_start = time.perf_counter()
            if spans is None:
                records = sniffer.poll(stamp)
            else:
                with spans.span("grid.poll"):
                    records = sniffer.poll(stamp)
            polled = time.perf_counter()
        finally:
            sniffer.config.lag = lag
        report = self.reporter.report(SQLS["single"])
        done = time.perf_counter()
        shown = {s.source_id: s.recency for s in report.normal_sources + report.exceptional_sources}
        recorder.check(records >= 1 and shown.get(machine_id) == stamp)
        return {
            "ingest_s": polled - start,
            "poll_s": polled - poll_start,
            "records": max(1, records),
            "visible_s": done - start,
        }

    # -- passes -------------------------------------------------------------

    def measure(self, seconds: float, recorder: Recorder) -> None:
        self.config["ticks"] = self._ticks_for(seconds)
        self._run_ticks(self.config["ticks"], recorder)

    def trace(
        self, seconds: float, traced: Recorder, baseline: Recorder, spans: SpanRecorder
    ) -> Dict[str, float]:
        ticks = self._ticks_for(seconds)
        self.config["traced_ticks"] = ticks
        timer = JournalTimer(self.durability)
        for sniffer in self.sim.sniffers.values():
            sniffer.journal = timer
        counters = probes.CacheCounters(self.reporter)
        maintainer = dict(self.sim.incremental.stats())
        wal_records = self.durability.stats()["wal_records"]
        records = self._records_loaded()
        try:
            ingest = self._run_ticks(ticks, traced, spans, baseline)
        finally:
            for sniffer in self.sim.sniffers.values():
                sniffer.journal = self.durability
        records = self._records_loaded() - records
        wal_records = self.durability.stats()["wal_records"] - wal_records
        after = self.sim.incremental.stats()
        delta = {k: after[k] - maintainer[k] for k in ("hits", "misses", "bypasses", "updates")}

        metrics = counters.ratios(len(traced.ops) + len(baseline.ops) + traced.extra_attempted)
        metrics.update(probes.report_phase_metrics(spans, "report"))
        metrics.update(
            {
                "records_per_s": median_over_segments(ingest["records_per_s"])["value"],
                "visible_p50_ms": median_over_segments(ingest["visible_ms"])["value"],
                "grid.step_ms": median_ms(ingest["steps"]),
                "grid.poll_us_per_record": statistics.median(ingest["poll_us_per_record"]),
                "grid.backlog_max": ingest["backlog_max"],
                "durable.journal_us_per_record": timer.seconds / wal_records * 1e6,
                "incremental.hit_ratio": delta["hits"]
                / (delta["hits"] + delta["misses"] + delta["bypasses"]),
                "incremental.updates_per_record": delta["updates"] / records,
            }
        )
        plan = self.reporter.plan_for(SQLS["single"])
        for _ in range(probes.REPS * 4):
            with spans.span("incremental.fetch"):
                self.sim.incremental.fetch(plan)
        metrics["incremental.fetch_us"] = median_us(spans.durations("incremental.fetch"))

        metrics.update(
            probes.common_probes(
                spans,
                self.sim.backend,
                self.reporter,
                PROBE_SQLS,
                rows_scanned(self.sim.backend),
                self._reporter,
            )
        )
        return metrics

    def finish(self, recorder: Recorder) -> Dict[str, float]:
        """Crash-recovery check: what the WAL acknowledged must come back.

        ``recover()`` of the data directory into an empty backend has to
        reproduce the live Heartbeat table for every acked source — from
        the last checkpoint plus WAL replay, with no final checkpoint to
        lean on.
        """
        stats = self.durability.stats()
        acked = self.durability.acked()["recency"]
        self.durability.close(final_checkpoint=False)
        self.durability = None
        live = dict(self.sim.backend.heartbeat_rows())
        recovered_backend = MemoryBackend(self.sim.catalog)
        start = time.perf_counter()
        recover(self.data_dir, recovered_backend)
        recover_s = time.perf_counter() - start
        recovered = dict(recovered_backend.heartbeat_rows())
        for source, recency in acked.items():
            recorder.check(recovered.get(source) == live[source] and live[source] >= recency)
        recorder.check(bool(acked))

        frames = 0
        size = 0
        for _epoch, path in list_wal_segments(self.data_dir):
            frames += len(scan_frames(path))
            size += os.path.getsize(path)
        self.config["records_loaded"] = self._records_loaded()
        self.config["wal_records"] = stats["wal_records"]
        return {
            "durable.recover_s": recover_s,
            "durable.wal_bytes_per_record": size / max(1, frames),
            "durable.wal_syncs": stats["wal_syncs"],
            "durable.checkpoints": stats["checkpoints_written"],
        }
