"""Timing protocol: the one loop every paper-figure cell is measured by.

Section 5.2: "Each individual query was run 11 times and the average
response time of the last 10 runs is used to minimize fluctuation." The
default here keeps the warm-up discard but uses fewer repetitions so the
full sweep stays laptop-friendly; pass ``runs=11`` for the paper's exact
protocol. A cell costs exactly ``runs`` reports: its per-phase breakdown
is read from the ``ReportTimings`` of the very runs that were timed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.bench.metrics import overhead
from repro.core.report import RecencyReport, RecencyReporter, ReportTimings
from repro.engine.cache import get_cache

#: The :class:`~repro.core.report.ReportTimings` fields a cell breaks down into.
PHASES = ("parse_generate", "user_query", "recency_query", "statistics")


def mean_of_kept(samples: List[float]) -> float:
    """The paper's "average of the last 10 runs": the first of several runs
    is a warm-up and is dropped, the rest are averaged."""
    kept = samples[1:] if len(samples) > 1 else samples
    return sum(kept) / len(kept)


def time_call(fn: Callable[[], object], runs: int = 5) -> float:
    """:func:`mean_of_kept` wall-clock seconds of ``fn()`` over ``runs`` calls."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    samples: List[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return mean_of_kept(samples)


class MethodMeasurement:
    """Timings of one (query, method) cell of Figure 1 / Figure 2.

    ``phases`` maps each of :data:`PHASES` to its :func:`mean_of_kept`
    seconds over the very runs ``t_report`` averages (``parse_generate``
    reads 0 for ``focused_hardcoded``: its plan is built outside them).

    ``caches`` carries the fast-path cache activity observed during the
    timed report loop: resolved-query cache hits/misses (the process-wide
    LRU in :mod:`repro.engine.cache`) and relevance plan-cache hits.
    """

    __slots__ = ("method", "t_plain", "t_report", "relevant_count", "phases", "caches")

    def __init__(
        self,
        method: str,
        t_plain: float,
        t_report: float,
        relevant_count: int,
        phases: Optional[Dict[str, float]] = None,
        caches: Optional[Dict[str, int]] = None,
    ) -> None:
        self.method = method
        self.t_plain = t_plain
        self.t_report = t_report
        self.relevant_count = relevant_count
        self.phases = phases or {}
        self.caches = caches or {}

    @property
    def overhead(self) -> float:
        return overhead(self.t_plain, self.t_report)

    def to_dict(self) -> Dict[str, object]:
        """The cell's columns of a Figure 1 record (CSV / JSON friendly)."""
        out: Dict[str, object] = {
            "method": self.method,
            "t_plain_s": self.t_plain,
            "t_report_s": self.t_report,
            "overhead_pct": 100.0 * self.overhead,
            "relevant_sources": self.relevant_count,
        }
        for name, seconds in self.phases.items():
            out[f"phase_{name}_s"] = seconds
        for name, count in sorted(self.caches.items()):
            out[f"cache_{name}"] = count
        return out

    def __repr__(self) -> str:
        return (
            f"MethodMeasurement({self.method!r}, plain={self.t_plain:.6f}s, "
            f"report={self.t_report:.6f}s, overhead={self.overhead:.2%})"
        )


def measure_methods(
    reporter: RecencyReporter,
    sql: str,
    runs: int = 5,
    methods: Optional[List[str]] = None,
) -> Dict[str, MethodMeasurement]:
    """Measure the plain query and each reporting method for one query.

    ``focused_hardcoded`` reuses a plan built once outside the timed region,
    isolating execution cost from parse/generation cost exactly as the
    paper's hardcoded table function did.
    """
    methods = methods or ["focused", "focused_hardcoded", "naive"]
    t_plain = time_call(lambda: reporter.run_plain(sql), runs)

    out: Dict[str, MethodMeasurement] = {}
    plan = reporter.plan_for(sql) if "focused_hardcoded" in methods else None
    query_cache = get_cache()
    for method in methods:
        kwargs = {"plan": plan} if method == "focused_hardcoded" else {}
        # Only the timings of every run are kept: at the paper's scale a
        # report names up to a million sources.
        timings: List[ReportTimings] = []
        last: Dict[str, RecencyReport] = {}

        def run():  # called by time_call within this iteration only
            last["report"] = report = reporter.report(sql, method=method, **kwargs)
            timings.append(report.timings)

        before = query_cache.stats()
        plan_hits_before = reporter.plan_cache_hits
        t_report = time_call(run, runs)
        after = query_cache.stats()
        caches = {
            "query_hits": after["hits"] - before["hits"],
            "query_misses": after["misses"] - before["misses"],
            "plan_hits": reporter.plan_cache_hits - plan_hits_before,
        }
        phases = {name: mean_of_kept([getattr(t, name) for t in timings]) for name in PHASES}
        relevant = len(last["report"].relevant_source_ids)
        out[method] = MethodMeasurement(method, t_plain, t_report, relevant, phases, caches)
    return out
