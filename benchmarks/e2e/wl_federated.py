"""``federated``: coordinator -> shards -> merged report, over loopback RPC.

Four in-process ``ShardServer``s of 64 machines each, stepped 120 ticks
before serving and then left still (no stepping thread), so every report
has one right answer. One caller loops ``FederationCoordinator.report``
over a single-table and a join query. The deadline is generous and the
retry/hedge settings are the defaults; on a healthy loopback neither fires.

What this workload pays for is the federation layer itself — the per-call
catalog rebuild and plan, one TCP connection per RPC, four fan-out threads
and the merge — against about a millisecond for the same report in one
process; the engine is negligible.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from repro.backends.memory import MemoryBackend
from repro.core.report import RecencyReporter
from repro.federation import FederationCoordinator, ShardRegistry, ShardServer, rpc
from repro.grid.simulator import SimulationConfig, monitoring_catalog

import probes
from protocol import (
    SOCKET_CPU_SHARE,
    Recorder,
    Workload,
    run_timed_segments,
    shape_balanced,
    traced_round,
)
from spans import SpanRecorder, report_span
from wl_ingest import PROBE_SQLS, SQLS, rows_scanned

#: (shards, machines per shard)
SIZES = {"full": (4, 64), "mini": (2, 8)}
PRESTEP_TICKS = 120
DEADLINE = 10.0
WARMUP_OPS = 20


class FrameSize:
    """A write-only stand-in for a socket: ``rpc.send_frame`` writes one
    frame into it and it remembers how many bytes that was."""

    def __init__(self) -> None:
        self.bytes = 0

    def sendall(self, data: bytes) -> None:
        self.bytes += len(data)


def frame_bytes(message: dict) -> int:
    sink = FrameSize()
    rpc.send_frame(sink, message)
    return sink.bytes


def split_key(report) -> tuple:
    """What "split-identical" compares: who is normal, who is exceptional,
    and every source's recency."""
    return (
        [(s.source_id, s.recency) for s in report.normal_sources],
        [(s.source_id, s.recency) for s in report.exceptional_sources],
    )


class FederatedWorkload(Workload):
    cpu_share = SOCKET_CPU_SHARE

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.num_shards, self.per_shard = SIZES["mini" if scale == "mini" else "full"]
        self.shards: List[ShardServer] = []
        self.config = {
            "shards": self.num_shards,
            "machines_per_shard": self.per_shard,
            "prestep_ticks": PRESTEP_TICKS,
            "deadline_s": DEADLINE,
            "callers": 1,
        }

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        try:
            self._setup()
        except BaseException:
            self.teardown()
            raise

    def _setup(self) -> None:
        registry = ShardRegistry()
        for k in range(self.num_shards):
            shard = ShardServer(
                f"s{k}",
                SimulationConfig(
                    num_machines=self.per_shard,
                    seed=self.seed * 1000 + k,
                    machine_id_start=k * self.per_shard + 1,
                ),
            )
            self.shards.append(shard)
            for _ in range(PRESTEP_TICKS):
                shard.sim.step()
            # Only the RPC acceptor: without the stepping thread the shard's
            # data stands still and every report has one right answer.
            shard.server.start()
            registry.register(shard.host, shard.port)
        self.registry = registry
        self.union = MemoryBackend(monitoring_catalog(registry.machines()))
        for shard in self.shards:
            backend = shard.sim.backend
            for schema in backend.catalog.monitored_tables():
                rows = backend.execute(f"SELECT * FROM {schema.name}").rows
                if rows:
                    self.union.insert_rows(schema.name, rows)
            for source, recency in backend.heartbeat_rows():
                self.union.upsert_heartbeat(source, recency)
        self.coordinator = FederationCoordinator(registry, deadline=DEADLINE, seed=self.seed)
        self.single = self._single()
        self.expected = {shape: split_key(self.single.report(sql)) for shape, sql in SQLS.items()}
        warm = Recorder()
        for index in range(WARMUP_OPS):
            self._op(index, 0, warm)
        if warm.failed:
            raise RuntimeError(f"federated: {warm.failed} wrong answers in warm-up")

    def _single(self, telemetry: Optional[object] = None) -> RecencyReporter:
        """The single-process reporter over the union of every shard's
        rows: the oracle a federated report must be split-identical to."""
        return RecencyReporter(
            self.union, create_temp_tables=False, plan_cache_size=128, telemetry=telemetry
        )

    def teardown(self) -> None:
        shards, self.shards = self.shards, []
        for shard in shards:
            shard.close()

    # -- the operation ------------------------------------------------------

    def _op(
        self, index: int, segment: int, recorder: Recorder, spans: Optional[SpanRecorder] = None
    ) -> None:
        shape = "single" if index % 2 == 0 else "join"
        sql = SQLS[shape]
        with report_span(spans, [shape, index]) as root:
            report = self.coordinator.report(sql)
        _plain, plain_s = probes.timed_plain(self.single, sql)
        ok = report.complete and split_key(report) == self.expected[shape]
        recorder.add(segment, shape, root.duration, plain_s, ok)

    # -- passes -------------------------------------------------------------

    def measure(self, seconds: float, recorder: Recorder) -> None:
        run_timed_segments(seconds, lambda i, seg: self._op(i, seg, recorder), recorder)

    def trace(
        self, seconds: float, traced: Recorder, baseline: Recorder, spans: SpanRecorder
    ) -> Dict[str, float]:
        def op(index: int, segment: int) -> None:
            if traced_round(index // len(SQLS)):
                self._op(index, segment, traced, spans)
            else:
                self._op(index, segment, baseline)

        run_timed_segments(seconds, op, traced)
        report_ms: Dict[str, List[float]] = {}
        for op in traced.ops:
            report_ms.setdefault(op.shape, []).append(op.report_s * 1e3)

        shards = self.registry.shards()
        plan_ms: Dict[str, List[float]] = {}
        slowest_fragment_ms: Dict[str, float] = {}
        request_bytes: List[int] = []
        reply_bytes: List[int] = []
        for shape, sql in SQLS.items():
            for k in range(probes.REPS):
                with spans.span("federation.plan", [shape, k]) as span:
                    plan = self.coordinator.plan_for(sql)
                plan_ms.setdefault(shape, []).append(span.duration * 1e3)
            request = {
                "op": "fragment",
                "mode": plan.mode,
                "subqueries": [{"sql": s.sql, "guards": list(s.guards)} for s in plan.subqueries],
            }
            request_bytes.append(frame_bytes(request))
            per_shard: List[float] = []
            for info in shards:
                times: List[float] = []
                for k in range(probes.REPS):
                    with spans.span("federation.fragment", [shape, k]) as span:
                        reply = rpc.call(info.host, info.port, request)
                    times.append(span.duration * 1e3)
                per_shard.append(statistics.median(times))
                reply_bytes.append(frame_bytes(reply))
            # A report waits for its slowest fragment.
            slowest_fragment_ms[shape] = max(per_shard)
        for k in range(probes.REPS * 4):
            info = shards[k % len(shards)]
            with spans.span("federation.rpc_roundtrip"):
                rpc.call(info.host, info.port, {"op": "status"})

        metrics = {
            "federation.plan_ms": shape_balanced(plan_ms, statistics.median),
            "federation.fragment_ms": statistics.fmean(slowest_fragment_ms.values()),
            "federation.rpc_roundtrip_ms": statistics.median(
                spans.durations("federation.rpc_roundtrip")
            )
            * 1e3,
            "federation.fanout_self_ms": statistics.fmean(
                statistics.median(report_ms[shape])
                - statistics.median(plan_ms[shape])
                - slowest_fragment_ms[shape]
                for shape in SQLS
            ),
            "federation.request_bytes": statistics.fmean(request_bytes),
            "federation.reply_bytes": statistics.fmean(reply_bytes),
            "federation.complete_share": sum(op.ok for op in traced.ops) / len(traced.ops),
        }
        metrics.update(self._single_process_probes(spans))
        return metrics

    def _single_process_probes(self, spans: SpanRecorder) -> Dict[str, float]:
        """The layers under a report, timed on the single-process twin over
        the union: what the same report costs without the federation."""
        counters = probes.CacheCounters(self.single)
        for shape, sql in SQLS.items():
            for k in range(probes.REPS):
                with spans.span("core.report", [shape, k]) as root:
                    report = self.single.report(sql)
                probes.add_report_children(spans, root, report.timings.to_dict())
        metrics = counters.ratios(probes.REPS * len(SQLS))
        metrics.update(probes.report_phase_metrics(spans, "core.report"))
        metrics.update(
            probes.common_probes(
                spans, self.union, self.single, PROBE_SQLS, rows_scanned(self.union), self._single
            )
        )
        return metrics
