"""``serve_http``: ``POST /v1/query`` against a child-process server.

The data is tiny (20 sources x 20 rows), so the engine is a small part of
the round trip and what remains — accept, HTTP parse, admission, queue
hand-off, serialization, socket write — is what this workload exists to
measure: the millisecond between an in-process report and a served one.

Closed loop: each of the :data:`CLIENTS` connections sends its next request
when the previous reply has arrived, as an operator's CLI or a dashboard
does. A client keeps its connection open whenever the server leaves it
open and reconnects otherwise (today the server speaks HTTP/1.0: one
connection per request); ``obs.server.connections_per_request`` says which.
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro import MemoryBackend
from repro.core.report import RecencyReporter
from repro.obs import Telemetry
from repro.serve import QueryService, ServeConfig
from repro.serve.pool import WorkerPool
from repro.serve.quota import TenantQuotas
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    workload_catalog,
)
from repro.workload.queries import paper_queries, query_machine_indexes

import probes
from protocol import (
    HERE,
    SOCKET_CPU_SHARE,
    Recorder,
    Workload,
    median_us,
    percentile,
    run_timed_segments,
    shape_balanced,
    traced_round,
)
from spans import SpanRecorder, report_span

SOURCES = 20
ROWS_PER_SOURCE = 20
#: One connection per core, never more: the load generator must not
#: compete with itself for the interpreter.
CLIENTS = min(2, os.cpu_count() or 1)
TENANT = "bench"
WARMUP_REQUESTS = 40
READY_TIMEOUT = 60.0


def build_backend(seed: int, sources: int, rows: int) -> MemoryBackend:
    """The served database; the child and the in-process twin both build
    it from the seed, so they hold identical rows."""
    backend = MemoryBackend(workload_catalog(sources))
    data = generate_workload(
        WorkloadConfig(sources, rows, seed=seed), query_machine_indexes(sources)
    )
    load_workload(backend, data)
    return backend


def serve_config() -> ServeConfig:
    """``trac serve`` defaults, except the tenant quota: a closed loop at
    full speed must never be shed, or refusals would pose as latency."""
    return ServeConfig(tenant_rate=1e9, tenant_burst=1e9)


class Connection(http.client.HTTPConnection):
    """An HTTP connection that times every TCP connect it makes."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, timeout=30.0)
        self.connect_times: List[float] = []

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def connect(self) -> None:
        start = time.perf_counter()
        super().connect()
        self.connect_times.append(time.perf_counter() - start)

    def post_query(self, body: bytes) -> Tuple[int, bytes]:
        self.request(
            "POST",
            "/v1/query",
            body=body,
            headers={"Content-Type": "application/json", "Connection": "keep-alive"},
        )
        response = self.getresponse()
        return response.status, response.read()


class ServeWorkload(Workload):
    cpu_share = SOCKET_CPU_SHARE

    def __init__(self, seed: int, scale: str) -> None:
        super().__init__(seed, scale)
        self.child: Optional[subprocess.Popen] = None
        self.config = {
            "sources": SOURCES,
            "rows_per_source": ROWS_PER_SOURCE,
            "client_connections": CLIENTS,
            "server": "child process, ServeConfig defaults, tenant quota lifted",
        }

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        self.twin = build_backend(self.seed, SOURCES, ROWS_PER_SOURCE)
        self.sqls = paper_queries(SOURCES)
        self.bodies = {
            shape: json.dumps({"sql": sql, "tenant": TENANT}).encode("utf-8")
            for shape, sql in self.sqls.items()
        }
        oracle = RecencyReporter(self.twin, create_temp_tables=False)
        self.expected = {}
        for shape, sql in self.sqls.items():
            report = oracle.report(sql)
            self.expected[shape] = (
                [list(row) for row in report.result.rows],
                sorted(report.relevant_source_ids),
            )
        oracle.close()
        self.child = subprocess.Popen(
            [
                sys.executable,
                os.path.join(HERE, "serve_child.py"),
                "--seed", str(self.seed),
                "--sources", str(SOURCES),
                "--rows", str(ROWS_PER_SOURCE),
            ],  # fmt: skip
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.child.stdout], [], [], READY_TIMEOUT)
            line = self.child.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"serve_http: server did not come up (got {line!r})")
            self.port = int(line.split()[1])
            warm = Recorder()
            with Connection("127.0.0.1", self.port) as conn:
                plain = RecencyReporter(self.twin, create_temp_tables=False)
                for index in range(WARMUP_REQUESTS):
                    self._op(conn, plain, index, 0, warm)
            if warm.failed:
                raise RuntimeError(f"serve_http: {warm.failed} wrong answers in warm-up")
        except BaseException:
            self.teardown()
            raise

    def teardown(self) -> None:
        """Stop the server and wait for it: closing its stdin is the stop
        signal; a server that ignores it is killed."""
        child, self.child = self.child, None
        if child is None:
            return
        try:
            child.stdin.close()
            child.wait(timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            child.kill()
            child.wait()
        finally:
            child.stdout.close()
        self.twin.close()

    def peak_rss_mb(self) -> float:
        """Peak resident set of the largest server this pass started (the
        process under test is the child, not the load generator)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # -- the operation ------------------------------------------------------

    def _op(
        self,
        conn: Connection,
        plain_reporter: RecencyReporter,
        index: int,
        segment: int,
        recorder: Recorder,
        spans: Optional[SpanRecorder] = None,
        bodies_seen: Optional[List[dict]] = None,
    ) -> None:
        shape = f"Q{index % 4 + 1}"
        connects = len(conn.connect_times)
        with report_span(spans, [shape, index]) as root:
            status, payload = conn.post_query(self.bodies[shape])
        report_s = root.duration
        _plain, plain_s = probes.timed_plain(plain_reporter, self.sqls[shape])
        rows, relevant = self.expected[shape]
        doc = json.loads(payload) if status == 200 else {}
        ok = status == 200 and doc.get("rows") == rows and doc.get("relevant_sources") == relevant
        recorder.add(segment, shape, report_s, plain_s, ok)
        if spans is not None and ok:
            # The reply says where the server spent its time; the client
            # knows what the connect cost. The rest of the round trip is
            # the root's self time: the HTTP and serving stack.
            offset = 0.0
            if len(conn.connect_times) > connects:
                offset = conn.connect_times[-1]
                spans.add_child(root, "obs.server.connect", 0.0, offset)
            spans.add_child(root, "serve.queue_wait", offset, doc["queue_wait_seconds"])
            offset += doc["queue_wait_seconds"]
            core = spans.add_child(root, "core.report", offset, doc["timings"]["total"])
            probes.add_report_children(spans, core, doc["timings"])
            bodies_seen.append(
                {
                    "shape": shape,
                    "bytes": len(payload),
                    "stack_s": report_s - doc["queue_wait_seconds"] - doc["timings"]["total"],
                    "queue_wait_s": doc["queue_wait_seconds"],
                }
            )

    def _client(self, seconds: float, recorder: Recorder, errors: List[BaseException]) -> None:
        try:
            plain = RecencyReporter(self.twin, create_temp_tables=False)
            with Connection("127.0.0.1", self.port) as conn:
                run_timed_segments(
                    seconds, lambda i, seg: self._op(conn, plain, i, seg, recorder), recorder
                )
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    # -- passes -------------------------------------------------------------

    def measure(self, seconds: float, recorder: Recorder) -> None:
        errors: List[BaseException] = []
        threads = [
            threading.Thread(target=self._client, args=(seconds, recorder, errors))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _status_counts(self) -> Dict[str, int]:
        with Connection("127.0.0.1", self.port) as conn:
            conn.request("GET", "/status")
            return json.loads(conn.getresponse().read())["serving"]["requests"]

    def trace(
        self, seconds: float, traced: Recorder, baseline: Recorder, spans: SpanRecorder
    ) -> Dict[str, float]:
        """One connection, so queueing does not inflate the self times."""
        seen: List[dict] = []
        plain = RecencyReporter(self.twin, create_temp_tables=False, plan_cache_size=128)

        def op(index: int, segment: int) -> None:
            if traced_round(index // len(self.sqls)):
                self._op(conn, plain, index, segment, traced, spans, seen)
            else:
                self._op(conn, plain, index, segment, baseline)

        with Connection("127.0.0.1", self.port) as conn:
            requests = run_timed_segments(seconds, op, traced)
            connects = conn.connect_times
        by_shape: Dict[str, Dict[str, List[float]]] = {}
        for item in seen:
            for key in ("bytes", "stack_s", "queue_wait_s"):
                by_shape.setdefault(key, {}).setdefault(item["shape"], []).append(item[key])
        counts = self._status_counts()
        rejected = sum(n for outcome, n in counts.items() if outcome.startswith("rejected"))
        metrics = {
            "obs.server.http_stack_ms": shape_balanced(by_shape["stack_s"], statistics.median)
            * 1e3,
            "obs.server.response_bytes": shape_balanced(by_shape["bytes"], statistics.fmean),
            "obs.server.connect_us": median_us(connects),
            "obs.server.connections_per_request": len(connects) / requests,
            "obs.server.http_p99_ms": percentile(
                [op.report_s for op in traced.ops + baseline.ops], 0.99
            )
            * 1e3,
            "serve.queue_wait_ms": shape_balanced(by_shape["queue_wait_s"], statistics.median)
            * 1e3,
            "serve.rejected_share": rejected / max(1, sum(counts.values())),
        }
        metrics.update(probes.report_phase_metrics(spans, "core.report"))
        metrics.update(self._twin_probes(spans, plain))
        return metrics

    def _twin_probes(self, spans: SpanRecorder, reporter: RecencyReporter) -> Dict[str, float]:
        """``serve`` timed in-process, where no socket is in the way, plus
        the probes every workload runs on its own SQL and data."""
        sqls = {shape: [sql] for shape, sql in self.sqls.items()}
        config = serve_config()
        with QueryService(self.twin, config) as service, QueryService(
            self.twin, config, telemetry=Telemetry()
        ) as live:
            counters = probes.CacheCounters(reporter)
            by_shape: Dict[str, List[float]] = {}
            for shape, sql in self.sqls.items():
                for k in range(probes.REPS):
                    with spans.span("serve.query", [shape, k]) as span:
                        service.query(sql, tenant=TENANT)
                    by_shape.setdefault(shape, []).append(span.duration)
                    # The plan-cache ratio is read off a reporter this
                    # process owns; the served workers keep theirs private.
                    reporter.report(sql)
            metrics = counters.ratios(probes.REPS * len(self.sqls))
            metrics["serve.query_ms"] = shape_balanced(by_shape, statistics.median) * 1e3
            metrics["obs.telemetry_overhead_ratio"] = probes.telemetry_overhead(
                lambda sql: service.query(sql, tenant=TENANT),
                lambda sql: live.query(sql, tenant=TENANT),
                sqls,
            )
        quotas = TenantQuotas(config.tenant_rate, config.tenant_burst, config.max_inflight)
        for _ in range(probes.REPS * 4):
            with spans.span("serve.admit"):
                quotas.admit(TENANT)
                quotas.release(TENANT)
        with WorkerPool(config.workers, config.queue_depth) as pool:
            for _ in range(probes.REPS * 4):
                with spans.span("serve.pool_handoff"):
                    pool.submit(lambda _state: None).result()
        metrics["serve.admit_us"] = median_us(spans.durations("serve.admit"))
        metrics["serve.pool_handoff_us"] = median_us(spans.durations("serve.pool_handoff"))
        rows = SOURCES * ROWS_PER_SOURCE
        rows_scanned = {"Q1": rows, "Q2": rows, "Q3": rows + SOURCES, "Q4": rows + SOURCES}
        metrics.update(probes.common_probes(spans, self.twin, reporter, sqls, rows_scanned))
        return metrics
