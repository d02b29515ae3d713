"""The evaluation metrics of Section 5.2 and the one timing loop every
paper-figure cell is measured by.

Section 5.2: "Each individual query was run 11 times and the average
response time of the last 10 runs is used to minimize fluctuation."
:data:`RUNS` is that protocol and the default here. A cell costs exactly
``runs`` reports: its per-phase breakdown is read from the
``ReportTimings`` of the very runs that were timed. The plain query is
timed in the same rounds as the reports it is compared with, so a host
that drifts during a sweep moves both sides of an overhead alike.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional

from repro.core.report import RecencyReporter, ReportTimings
from repro.engine.cache import get_cache
from repro.errors import TracError

#: The paper's runs per query: the first is dropped, the last 10 averaged.
RUNS = 11


def false_positive_rate(reported: AbstractSet[str], exact: AbstractSet[str]) -> float:
    """``fpr = |A(Q) - S(Q)| / |S(Q)|``.

    The paper's precision metric: how many irrelevant sources an algorithm
    reports, relative to the number of truly relevant ones.

    Raises
    ------
    TracError
        If the reported set misses a truly relevant source (the algorithm
        would be *incomplete* — a correctness violation, not an fpr matter)
        or if ``S(Q)`` is empty while sources were reported (the ratio is
        undefined; the paper never hits this case).
    """
    missing = exact - reported
    if missing:
        raise TracError(
            f"reported set is incomplete; missing relevant sources: {sorted(missing)[:5]}"
        )
    extra = reported - exact
    if not exact:
        if extra:
            raise TracError("fpr undefined: S(Q) is empty but sources were reported")
        return 0.0
    return len(extra) / len(exact)


def overhead(t_plain: float, t_with_report: float) -> float:
    """``(t2(Q) - t1(Q)) / t1(Q)`` — the response-time overhead metric."""
    if t_plain <= 0:
        raise TracError("plain response time must be positive")
    return (t_with_report - t_plain) / t_plain


def naive_fpr(num_sources: int, relevant_count: int) -> float:
    """The Naive method's fpr when every source is reported.

    This is the closed form behind the paper's printed numbers, e.g.
    ``(100000 - 6) / 6 = 16665`` for Q1/Q3 at 100,000 sources.
    """
    if relevant_count <= 0:
        raise TracError("naive fpr undefined for an empty relevant set")
    if relevant_count > num_sources:
        raise TracError("relevant set cannot exceed the source population")
    return (num_sources - relevant_count) / relevant_count


#: The :class:`~repro.core.report.ReportTimings` fields a cell breaks down into.
PHASES = ("parse_generate", "user_query", "recency_query", "statistics")


def mean_of_kept(samples: List[float]) -> float:
    """The paper's "average of the last 10 runs": the first of several runs
    is a warm-up and is dropped, the rest are averaged."""
    kept = samples[1:] if len(samples) > 1 else samples
    return sum(kept) / len(kept)


def time_call(fn: Callable[[], object], runs: int = RUNS) -> float:
    """:func:`mean_of_kept` wall-clock seconds of ``fn()`` over ``runs`` calls."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    samples: List[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return mean_of_kept(samples)


@dataclass
class MethodMeasurement:
    """Timings of one (query, method) cell of Figure 1 / Figure 2.

    ``phases`` maps each of :data:`PHASES` to its :func:`mean_of_kept`
    seconds over the very runs ``t_report`` averages (``parse_generate``
    reads 0 for ``focused_hardcoded``: its plan is built outside them).

    ``caches`` carries the fast-path cache activity observed during the
    timed report loop: resolved-query cache hits/misses (the process-wide
    LRU in :mod:`repro.engine.cache`) and relevance plan-cache hits.
    """

    method: str
    t_plain: float
    t_report: float
    relevant_count: int
    phases: Dict[str, float] = field(default_factory=dict)
    caches: Dict[str, int] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        return overhead(self.t_plain, self.t_report)

    def to_dict(self) -> Dict[str, object]:
        """The cell's columns of a Figure 1 record."""
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
    runs: int = RUNS,
    methods: Optional[List[str]] = None,
) -> Dict[str, MethodMeasurement]:
    """Measure the plain query and each reporting method for one query.

    One round runs the plain query and then one report per method; odd
    rounds run in reverse order, so a host that drifts linearly adds as much
    to the plain query's mean as to each method's over an even number of
    kept rounds.

    ``focused_hardcoded`` reuses a plan built once outside the timed region,
    isolating execution cost from parse/generation cost exactly as the
    paper's hardcoded table function did.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    methods = methods or ["focused", "focused_hardcoded", "naive"]
    plan = reporter.plan_for(sql) if "focused_hardcoded" in methods else None
    query_cache = get_cache()
    steps = [None, *methods]  # None: the plain query
    seconds: Dict[Optional[str], List[float]] = {step: [] for step in steps}
    # Only the timings of every run are kept: at the paper's scale a report
    # names up to a million sources.
    timings: Dict[str, List[ReportTimings]] = {method: [] for method in methods}
    caches: Dict[str, Counter] = {method: Counter() for method in methods}
    relevant: Dict[str, int] = {}
    for round_ in range(runs):
        for method in reversed(steps) if round_ % 2 else steps:
            if method is None:
                start = time.perf_counter()
                reporter.run_plain(sql)
                seconds[None].append(time.perf_counter() - start)
                continue
            kwargs = {"plan": plan} if method == "focused_hardcoded" else {}
            before, plan_hits = query_cache.stats(), reporter.plan_cache_hits
            start = time.perf_counter()
            report = reporter.report(sql, method=method, **kwargs)
            seconds[method].append(time.perf_counter() - start)
            after = query_cache.stats()
            caches[method].update({
                "query_hits": after["hits"] - before["hits"],
                "query_misses": after["misses"] - before["misses"],
                "plan_hits": reporter.plan_cache_hits - plan_hits,
            })
            timings[method].append(report.timings)
            relevant[method] = len(report.relevant_source_ids)

    t_plain = mean_of_kept(seconds[None])
    out: Dict[str, MethodMeasurement] = {}
    for method in methods:
        phases = {
            name: mean_of_kept([getattr(t, name) for t in timings[method]]) for name in PHASES
        }
        out[method] = MethodMeasurement(
            method, t_plain, mean_of_kept(seconds[method]),
            relevant[method], phases, dict(caches[method]),
        )
    return out
