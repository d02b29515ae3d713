"""``report_scan`` and ``report_adhoc``: in-process ``RecencyReporter.report``.

Both run the paper's four query shapes round-robin from one caller against
the Section 5.2 synthetic schema, with the reporter configured the way
``QueryService`` configures its workers (temp tables off, plan cache 128).
They differ in the one property the planner's cost depends on:

``report_scan``
    few sources, many rows each, the four *fixed* paper queries. Both
    program caches (plans: 128, resolved queries: 256) hold the whole
    working set, so planning reads ~0 and the engine does the work.
``report_adhoc``
    many sources, two rows each, and *every SQL text distinct* (a fresh
    seeded six-machine list poured into each shape). The working set
    exceeds both caches, so parsing, DNF, relevance planning and the
    generated recency subqueries dominate and the engine scans little.

Sizes are smaller than the paper's so that one run gives every shape the
200 samples a 95th percentile needs (see ``protocol.MIN_BEYOND``).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro import MemoryBackend, SQLiteBackend
from repro.core.report import RecencyReporter
from repro.workload import queries
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    source_name,
    workload_catalog,
)

import probes
from protocol import Recorder, Workload, run_timed_segments, traced_round
from spans import SpanRecorder, report_span

SHAPES: Tuple[Tuple[str, Callable[[List[str]], str]], ...] = (
    ("Q1", queries.q1_selective_single),
    ("Q2", queries.q2_nonselective_single),
    ("Q3", queries.q3_selective_join),
    ("Q4", queries.q4_nonselective_join),
)

WARMUP_OPS = 16


class Expected(NamedTuple):
    relevant: Set[str]
    count: int


class Oracle:
    """Expected answers, derived from facts read once through
    :class:`SQLiteBackend`: idle rows per machine and the routing map.

    Any IN / NOT IN list's ``COUNT(*)`` and relevant set follow from those
    by arithmetic, so ad-hoc queries are checked without a second engine
    run per query.
    """

    def __init__(self, catalog, data) -> None:
        with SQLiteBackend(catalog) as sqlite:
            load_workload(sqlite, data)
            idle_rows = sqlite.execute(
                "SELECT mach_id, COUNT(*) FROM activity WHERE value = 'idle' GROUP BY mach_id"
            ).rows
            routing_rows = sqlite.execute("SELECT mach_id, neighbor FROM routing").rows
        self.idle = {str(m): int(n) for m, n in idle_rows}
        self.neighbor = {str(m): str(n) for m, n in routing_rows}
        self.machines = set(self.neighbor)
        self.total_idle = sum(self.idle.values())

    def expect(self, shape: str, listed: List[str]) -> Expected:
        inside = set(listed)
        if shape == "Q1":
            return Expected(inside, sum(self.idle.get(m, 0) for m in inside))
        if shape == "Q2":
            outside = self.machines - inside
            return Expected(outside, self.total_idle - sum(self.idle.get(m, 0) for m in inside))
        routers = inside if shape == "Q3" else self.machines - inside
        return Expected(
            routers | {self.neighbor[m] for m in routers},
            sum(self.idle.get(self.neighbor[m], 0) for m in routers),
        )


class ReportWorkload(Workload):
    """One in-process reporter, one caller, four shapes round-robin."""

    def __init__(
        self, name: str, sizes: Dict[str, Tuple[int, int]], adhoc: bool, seed: int, scale: str
    ) -> None:
        super().__init__(seed, scale)
        self.name = name
        self.adhoc = adhoc
        self.num_sources, self.data_ratio = sizes["mini" if scale == "mini" else "full"]
        self.config = {
            "sources": self.num_sources,
            "rows_per_source": self.data_ratio,
            "distinct_sql": adhoc,
            "callers": 1,
        }

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        catalog = workload_catalog(self.num_sources)
        self.backend = MemoryBackend(catalog)
        fixed = queries.query_machine_indexes(self.num_sources)
        data = generate_workload(
            WorkloadConfig(self.num_sources, self.data_ratio, seed=self.seed),
            () if self.adhoc else fixed,
        )
        if self.adhoc:
            # Every machine routes to itself, so whichever six machines a
            # query names, routing maps that set onto itself — the property
            # the paper's generator gives its one fixed list.
            data.routing = [(m, m, t) for m, _n, t in data.routing]
        load_workload(self.backend, data)
        self.oracle = Oracle(catalog, data)
        self.rows_scanned = {
            "Q1": len(data.activity),
            "Q2": len(data.activity),
            "Q3": len(data.activity) + len(data.routing),
            "Q4": len(data.activity) + len(data.routing),
        }
        self.reporter = self._reporter()
        self._rng = random.Random(self.seed)
        self._fixed = [source_name(i) for i in fixed]
        warm = Recorder()
        for index in range(WARMUP_OPS):
            self._op(index, 0, warm)
        if warm.failed:
            raise RuntimeError(f"{self.name}: warm-up produced {warm.failed} wrong answers")

    def _reporter(self, telemetry: Optional[object] = None) -> RecencyReporter:
        """Configured the way ``QueryService`` configures its workers."""
        return RecencyReporter(
            self.backend, create_temp_tables=False, plan_cache_size=128, telemetry=telemetry
        )

    def teardown(self) -> None:
        self.reporter.close()
        self.backend.close()

    # -- the operation ------------------------------------------------------

    def _query(self, index: int) -> Tuple[str, str, Expected]:
        shape, build = SHAPES[index % len(SHAPES)]
        if self.adhoc:
            listed = [
                source_name(i) for i in self._rng.sample(range(1, self.num_sources + 1), 6)
            ]
        else:
            listed = self._fixed
        return shape, build(listed), self.oracle.expect(shape, listed)

    def _op(
        self, index: int, segment: int, recorder: Recorder, spans: Optional[SpanRecorder] = None
    ) -> None:
        shape, sql, expected = self._query(index)
        with report_span(spans, [shape, index]) as root:
            report = self.reporter.report(sql)
        if spans is not None:
            probes.add_report_children(spans, root, report.timings.to_dict())
        plain, plain_s = probes.timed_plain(self.reporter, sql)
        ok = (
            report.relevant_source_ids == expected.relevant
            and report.result.rows == [(expected.count,)]
            and plain.rows == report.result.rows
        )
        recorder.add(segment, shape, root.duration, plain_s, ok)

    # -- passes -------------------------------------------------------------

    def measure(self, seconds: float, recorder: Recorder) -> None:
        run_timed_segments(seconds, lambda i, seg: self._op(i, seg, recorder), recorder)

    def trace(
        self, seconds: float, traced: Recorder, baseline: Recorder, spans: SpanRecorder
    ) -> Dict[str, float]:
        counters = probes.CacheCounters(self.reporter)

        def op(index: int, segment: int) -> None:
            if traced_round(index // len(SHAPES)):
                self._op(index, segment, traced, spans)
            else:
                self._op(index, segment, baseline)

        run_timed_segments(seconds, op, traced)
        metrics = counters.ratios(len(traced.ops) + len(baseline.ops))
        metrics.update(probes.report_phase_metrics(spans, "report"))
        sqls: Dict[str, List[str]] = {shape: [] for shape, _ in SHAPES}
        for index in range(len(SHAPES) * (probes.REPS if self.adhoc else 1)):
            shape, sql, _ = self._query(index)
            sqls[shape].append(sql)
        metrics.update(
            probes.common_probes(
                spans, self.backend, self.reporter, sqls, self.rows_scanned, self._reporter
            )
        )
        return metrics


def report_scan(seed: int, scale: str) -> ReportWorkload:
    return ReportWorkload("report_scan", {"full": (100, 50), "mini": (20, 20)}, False, seed, scale)


def report_adhoc(seed: int, scale: str) -> ReportWorkload:
    return ReportWorkload("report_adhoc", {"full": (1000, 2), "mini": (100, 2)}, True, seed, scale)
