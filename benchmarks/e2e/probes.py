"""Layer probes shared by every workload's traced pass.

Each probe times calls into one module's public functions from outside,
inside a span named after the module, on the workload's own SQL and data.
The names returned are the per-layer metric names of ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.backends.memory import MemoryBackend
from repro.catalog import HEARTBEAT_TABLE
from repro.core.report import RecencyReporter
from repro.core.statistics import SourceRecency, describe, zscore_split
from repro.engine.cache import get_cache
from repro.incremental import IncrementalMaintainer
from repro.obs import Telemetry
from repro.predicates.dnf import to_dnf
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve

from protocol import median_ms, median_us, shape_balanced
from spans import Span, SpanRecorder

#: How often each fixed-count probe repeats per query shape.
REPS = 30

#: The phases ``ReportTimings`` publishes, in execution order, mapped to
#: the span (and so the layer) each one becomes.
REPORT_PHASES = (
    ("parse_generate", "core.parse_generate"),
    ("user_query", "core.user_query"),
    ("recency_query", "core.recency_query"),
    ("statistics", "core.statistics"),
)


def add_report_children(
    spans: SpanRecorder, root: Span, timings: Dict[str, float], offset: float = 0.0
) -> None:
    """Turn a report's published phase timings into child spans of the
    caller-observed span, laid end to end from ``offset`` into it."""
    for key, name in REPORT_PHASES:
        spans.add_child(root, name, offset, timings[key])
        offset += timings[key]


def self_time_metrics(
    spans: SpanRecorder, names: Dict[str, str], only: Optional[Set[int]] = None
) -> Dict[str, float]:
    """Shape-balanced median self time (ms) of the spans in ``names``
    (span name -> metric name), optionally only those whose id is in
    ``only``. A span's ``op`` is ``[shape, index]``."""
    selfs = spans.self_times()
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for span in spans.spans:
        if span.name in names and (only is None or span.id in only):
            grouped.setdefault(span.name, {}).setdefault(span.op[0], []).append(selfs[span.id])
    return {
        names[name]: shape_balanced(by_shape, statistics.median) * 1e3
        for name, by_shape in grouped.items()
    }


def report_phase_metrics(spans: SpanRecorder, report_span: str) -> Dict[str, float]:
    """The five ``core.*_ms`` self times: the four published phases, and
    what ``report_span`` (the span covering one whole report) spends
    outside them."""
    names = {name: f"{name}_ms" for _key, name in REPORT_PHASES}
    names[report_span] = "core.report_self_ms"
    return self_time_metrics(spans, names)


class CacheCounters:
    """Before/after reading of the two program caches a report crosses."""

    def __init__(self, reporter: RecencyReporter) -> None:
        self.reporter = reporter
        self.plan_hits = reporter.plan_cache_hits
        self.query = get_cache().stats()

    def ratios(self, reports: int) -> Dict[str, float]:
        now = get_cache().stats()
        hits = now["hits"] - self.query["hits"]
        misses = now["misses"] - self.query["misses"]
        return {
            "core.plan_cache_hit_ratio": (self.reporter.plan_cache_hits - self.plan_hits)
            / max(1, reports),
            "engine.query_cache_hit_ratio": hits / max(1, hits + misses),
        }


def timed_plain(reporter: RecencyReporter, sql: str):
    """The bare query beside a report, so host speed cancels in their
    ratio; returns ``(result, seconds)``. The trailing blank makes it a
    different cache key: the report's parse must not be paid for (or by)
    the baseline."""
    start = time.perf_counter()
    result = reporter.run_plain(sql + " ")
    return result, time.perf_counter() - start


def common_probes(
    spans: SpanRecorder,
    backend,
    reporter: RecencyReporter,
    sqls: Dict[str, Sequence[str]],
    rows_scanned: Dict[str, int],
    make_reporter: Optional[Callable[[Optional[object]], RecencyReporter]] = None,
) -> Dict[str, float]:
    """The probes every workload runs on its own SQL and data: planner,
    statistics, engine, backend and — given ``make_reporter(telemetry)`` —
    what a live ``Telemetry()`` costs the workload's reporter."""
    relevant = {}
    for shape, texts in sqls.items():
        split = reporter.report(texts[0]).split
        relevant[shape] = split.normal + split.exceptional
    metrics = planner_probes(spans, backend, sqls)
    metrics.update(statistics_probes(spans, relevant))
    metrics.update(engine_probes(spans, reporter, sqls, rows_scanned))
    metrics.update(backend_probes(spans, backend))
    if make_reporter is not None:
        with make_reporter(None) as plain, make_reporter(Telemetry()) as live:
            metrics["obs.telemetry_overhead_ratio"] = telemetry_overhead(
                plain.report, live.report, sqls
            )
    return metrics


def planner_probes(
    spans: SpanRecorder,
    backend,
    sqls: Dict[str, Sequence[str]],
) -> Dict[str, float]:
    """``sqlparser``, ``predicates`` and cold ``core`` planning over the
    workload's SQL. ``sqls`` maps each shape to texts of that shape."""
    catalog = backend.catalog
    # plan_cache_size=0 and a never-seen text (trailing blanks) keep both
    # program caches out of the way: this is what a first sighting costs.
    cold = RecencyReporter(backend, create_temp_tables=False)
    conjuncts: List[int] = []
    for shape, texts in sqls.items():
        for k in range(REPS):
            sql = texts[k % len(texts)]
            op = [shape, k]
            with spans.span("sqlparser.parse", op):
                query = parse_query(sql)
            with spans.span("sqlparser.resolve", op):
                resolved = resolve(query, catalog)
            with spans.span("predicates.dnf", op):
                dnf = to_dnf(resolved.query.where)
            conjuncts.append(len(dnf))
            with spans.span("core.plan", op):
                cold.plan_for(sql + " " * (k + 2))
    return {
        "sqlparser.parse_us": median_us(spans.durations("sqlparser.parse")),
        "sqlparser.resolve_us": median_us(spans.durations("sqlparser.resolve")),
        "predicates.dnf_us": median_us(spans.durations("predicates.dnf")),
        "predicates.conjuncts": statistics.fmean(conjuncts),
        "core.plan_ms": median_ms(spans.durations("core.plan")),
    }


def statistics_probes(
    spans: SpanRecorder, relevant: Dict[str, List[SourceRecency]]
) -> Dict[str, float]:
    """``zscore_split`` + ``describe`` on each shape's relevant list."""
    by_shape: Dict[str, List[float]] = {}
    for shape, sources in relevant.items():
        for k in range(REPS):
            with spans.span("core.zsplit", [shape, k]) as span:
                describe(zscore_split(sources).normal)
            by_shape.setdefault(shape, []).append(span.duration)
    return {
        "core.zsplit_us": shape_balanced(by_shape, statistics.median) * 1e6,
        "core.relevant_sources": statistics.fmean(len(s) for s in relevant.values()),
    }


def engine_probes(
    spans: SpanRecorder,
    reporter: RecencyReporter,
    sqls: Dict[str, Sequence[str]],
    rows_scanned: Dict[str, int],
) -> Dict[str, float]:
    """``run_plain`` over the workload's SQL: the engine alone."""
    by_shape: Dict[str, List[float]] = {}
    for shape, texts in sqls.items():
        for k in range(REPS):
            with spans.span("engine.plain_query", [shape, k]) as span:
                reporter.run_plain(texts[k % len(texts)])
            by_shape.setdefault(shape, []).append(span.duration)
    return {
        "engine.plain_query_ms": shape_balanced(by_shape, statistics.median) * 1e3,
        "engine.rows_per_s": statistics.fmean(
            rows_scanned[shape] / statistics.median(times) for shape, times in by_shape.items()
        ),
    }


def backend_probes(spans: SpanRecorder, backend) -> Dict[str, float]:
    """``backends``: bulk load, snapshot open/close, keyed upserts.

    Runs on a scratch copy so the live tables keep their row order; the
    heartbeat upserts run with an incremental maintainer listening, which
    is what a deployment that serves incremental reports pays per event.
    """
    tables = {
        schema.name: backend.execute(f"SELECT * FROM {schema.name}").rows
        for schema in backend.catalog
    }
    scratch = MemoryBackend(backend.catalog)
    with spans.span("backends.load") as load:
        for name, rows in tables.items():
            if rows:
                scratch.insert_rows(name, rows)
    loaded = sum(len(rows) for rows in tables.values())

    for k in range(REPS * 4):
        with spans.span("backends.snapshot"):
            with scratch.snapshot():
                pass
    activity = tables["activity"]
    key = ("mach_id",) if len({row[0] for row in activity}) == len(activity) else None
    for k in range(REPS):
        row = activity[k % len(activity)]
        with spans.span("backends.upsert_row"):
            # Keyed on every column where mach_id alone is not a key, so
            # the table keeps its size whatever the workload's schema use.
            scratch.upsert_rows("activity", key or ("mach_id", "value", "event_time"), [row])
    IncrementalMaintainer(scratch)
    heartbeats = tables[HEARTBEAT_TABLE]
    for k in range(REPS * 4):
        source, recency = heartbeats[k % len(heartbeats)]
        with spans.span("backends.heartbeat_upsert"):
            scratch.upsert_heartbeat(source, recency)
    return {
        "backends.load_rows_per_s": loaded / load.duration,
        "backends.snapshot_us": median_us(spans.durations("backends.snapshot")),
        "backends.upsert_row_us": median_us(spans.durations("backends.upsert_row")),
        "backends.heartbeat_upsert_us": median_us(spans.durations("backends.heartbeat_upsert")),
    }


def telemetry_overhead(
    plain_op: Callable[[str], object],
    live_op: Callable[[str], object],
    sqls: Dict[str, Sequence[str]],
) -> float:
    """Median cost of the workload's operation built with a live
    ``Telemetry()`` (``live_op``) over the same operation built with none
    (``plain_op``), minus one. The two alternate call by call so host
    speed cancels."""
    ratios: List[float] = []
    for texts in sqls.values():
        plain: List[float] = []
        live: List[float] = []
        for k in range(REPS + 3):
            sql = texts[k % len(texts)]
            for op, sink in ((plain_op, plain), (live_op, live)):
                start = time.perf_counter()
                op(sql)
                sink.append(time.perf_counter() - start)
        # The first calls warm each variant's plan cache.
        ratios.append(statistics.median(live[3:]) / statistics.median(plain[3:]))
    return statistics.fmean(ratios) - 1.0
