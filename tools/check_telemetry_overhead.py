#!/usr/bin/env python
"""Guard: disabled telemetry must cost (nearly) nothing on the report path.

The instrumented hot paths (``RecencyReporter.report``, the backends, the
mini engine) all follow the same pattern when telemetry is off: one
attribute/default lookup, one ``tel.enabled`` branch, and no-op
``PhaseTimer``/``NullSpan`` context managers. This script bounds the cost
those primitives add to one figure-1-style report and fails when the bound
exceeds the budget (default 5%).

Method — we cannot re-run the pre-instrumentation code, so the check is a
first-principles bound instead of a before/after diff:

1. time one disabled-telemetry report on a small paper workload
   (``t_report``, warm-up discarded, mean of the rest);
2. microbenchmark the disabled-path primitives in isolation:
   a full no-op ``PhaseTimer`` cycle (construct + enter + exit), a
   ``resolve()`` + ``enabled`` branch, the event-emission guard
   (the ``enabled`` branch in front of every ``tel.emit`` call — with
   telemetry disabled the event log is never even reached),
   a disabled histogram observation (``NULL_TELEMETRY.observe`` with a
   trace-id exemplar: the recorder's own early return), the
   trace-propagation guard (the
   ``enabled`` branch in front of context inject/extract — disabled
   telemetry never builds a SpanContext or touches a carrier), and the
   disabled lineage guard (the ``lineage=False`` keyword forward plus
   falsy branch the engine pays per operator when row provenance is off
   — no lineage function runs and no per-row set is built on that path);
3. overhead_bound = (timers_per_report * t_timer
                     + checks_per_report * t_check
                     + events_per_report * t_event
                     + histograms_per_report * t_histogram
                     + propagations_per_report * t_propagation
                     + lineage_checks_per_report * t_lineage) / t_report

The per-report primitive counts are deliberate over-estimates, so the
reported percentage is an upper bound. Enabled-telemetry timing is printed
for information only — it is *expected* to cost more.

Run:  python tools/check_telemetry_overhead.py [--runs N] [--threshold PCT]
Exit status 0 when within budget, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.report import RecencyReporter
from repro.backends.memory import MemoryBackend
from repro.obs.instrument import NULL_TELEMETRY, REPORT_SECONDS, PhaseTimer
from repro.workload import WorkloadConfig, loaded_backend, paper_queries

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks" / "paper"))
from paper_harness import time_call  # noqa: E402

#: Over-estimates of disabled-path primitive invocations per report.
#: report() opens 5 PhaseTimers; backend/engine/monitor paths add a handful
#: of ``enabled`` branches per query (3 queries per report).
TIMERS_PER_REPORT = 8
CHECKS_PER_REPORT = 64
#: Event-emission guard sites a report-with-simulation tick could cross
#: (sniffer retries, breaker transitions, exceptional sources, ...).
EVENTS_PER_REPORT = 16
#: Histogram-observation sites per report (report latency, per-endpoint
#: request latency, poll latency, backend query size, ...), over-estimated.
HISTOGRAMS_PER_REPORT = 8
#: Trace-propagation guard sites per report (context inject on outbound
#: carriers, extract on inbound, profile trace stamping), over-estimated.
PROPAGATIONS_PER_REPORT = 8
#: Disabled-lineage guard sites per report: one ``lineage=False`` keyword
#: forward + falsy branch per engine operator, times 3 queries per report,
#: over-estimated.
LINEAGE_CHECKS_PER_REPORT = 32

MICRO_LOOPS = 200_000


def time_phase_timer_cycle() -> float:
    """Seconds per disabled PhaseTimer construct+enter+exit cycle."""
    tel = NULL_TELEMETRY
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        with PhaseTimer(tel, "overhead.probe"):
            pass
    return (time.perf_counter() - start) / MICRO_LOOPS


def time_enabled_check() -> float:
    """Seconds per resolve-default + ``enabled`` branch."""
    start = time.perf_counter()
    acc = 0
    for _ in range(MICRO_LOOPS):
        tel = obs.resolve(None)
        if tel.enabled:
            acc += 1
    assert acc == 0, "telemetry unexpectedly enabled during microbench"
    return (time.perf_counter() - start) / MICRO_LOOPS


def time_event_guard() -> float:
    """Seconds per disabled event-emission site.

    Every instrumented emitter guards ``tel.emit(...)`` behind
    ``tel.enabled``: with telemetry off the branch is the whole cost and
    the event log is never touched. This times exactly that guard
    (resolve + branch; the emit is never reached, mirroring the real call
    sites).
    """
    start = time.perf_counter()
    emitted = 0
    for _ in range(MICRO_LOOPS):
        tel = obs.resolve(None)
        if tel.enabled:
            tel.emit("overhead.probe", severity="debug")
            emitted += 1
    assert emitted == 0, "telemetry unexpectedly enabled during microbench"
    return (time.perf_counter() - start) / MICRO_LOOPS


def time_histogram_observe() -> float:
    """Seconds per disabled histogram observation (exemplar included).

    Instrumented code records through ``tel.observe(NAME, value, ...)``
    behind the ``enabled`` guard; should a call ever run unguarded with
    telemetry off ``Telemetry.observe`` returns on its own ``enabled`` test —
    no table lookup, no bucket search, no lock, no exemplar storage. This
    times that early return, trace-id and label keywords and all.
    """
    tel = NULL_TELEMETRY
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        tel.observe(REPORT_SECONDS, 0.001, trace_id="0" * 32, method="focused")
    return (time.perf_counter() - start) / MICRO_LOOPS


def time_propagation_guard() -> float:
    """Seconds per disabled trace-propagation site.

    Context is only injected/extracted behind ``tel.enabled`` (the
    observatory server's pattern): with telemetry off no SpanContext is
    ever built and the carrier is never touched. The guard is the whole
    cost.
    """
    carrier = {"traceparent": "00-" + "a" * 32 + "-" + "b" * 16 + "-01"}
    start = time.perf_counter()
    extracted = 0
    for _ in range(MICRO_LOOPS):
        tel = obs.resolve(None)
        if tel.enabled:
            if obs.extract_context(carrier) is not None:
                extracted += 1
    assert extracted == 0, "telemetry unexpectedly enabled during microbench"
    return (time.perf_counter() - start) / MICRO_LOOPS


def time_lineage_guard() -> float:
    """Seconds per disabled lineage site.

    Row provenance is strictly opt-in: with ``lineage=False`` (the
    default) the execution path pays one keyword-argument forward plus
    one falsy branch per operator — no lineage function runs and no
    per-row set is ever built. This times that forward+branch,
    mirroring the ``_project``/``execute_query`` call sites.
    """

    def probe(rows, lineage: bool = False):
        if lineage:
            raise AssertionError("lineage unexpectedly enabled during microbench")
        return rows

    payload: list = []
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        probe(payload, lineage=False)
    return (time.perf_counter() - start) / MICRO_LOOPS


def assert_disabled_default_retained_nothing() -> None:
    """Structural check: the timed reports and the microbenchmarks all ran on
    the disabled default, and none of them reached one of its structures."""
    tel = obs.get_default()
    assert tel is NULL_TELEMETRY and not tel.enabled
    assert not tel.tracer.finished_spans(), "a span was recorded with telemetry off"
    assert len(tel.metrics) == 0, "an instrument was created with telemetry off"
    for ring in (tel.events, tel.profiles, tel.provenance):
        assert ring.total == 0, f"{ring!r} was written with telemetry off"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11)
    parser.add_argument("--threshold", type=float, default=5.0, help="max overhead %%")
    parser.add_argument("--num-sources", type=int, default=20)
    parser.add_argument("--data-ratio", type=int, default=25)
    args = parser.parse_args(argv)

    obs.disable()
    backend = loaded_backend(
        WorkloadConfig(num_sources=args.num_sources, data_ratio=args.data_ratio), MemoryBackend
    )
    reporter = RecencyReporter(backend)
    sql = paper_queries(args.num_sources)["Q1"]

    t_report = time_call(lambda: reporter.report(sql, method="focused"), args.runs)
    t_timer = time_phase_timer_cycle()
    t_check = time_enabled_check()
    t_event = time_event_guard()
    t_histogram = time_histogram_observe()
    t_propagation = time_propagation_guard()
    t_lineage = time_lineage_guard()
    assert_disabled_default_retained_nothing()

    bound = (
        TIMERS_PER_REPORT * t_timer
        + CHECKS_PER_REPORT * t_check
        + EVENTS_PER_REPORT * t_event
        + HISTOGRAMS_PER_REPORT * t_histogram
        + PROPAGATIONS_PER_REPORT * t_propagation
        + LINEAGE_CHECKS_PER_REPORT * t_lineage
    )
    overhead_pct = 100.0 * bound / t_report

    # Informational: the *enabled* path is allowed to be slower.
    traced = RecencyReporter(backend, telemetry=obs.Telemetry())
    t_enabled = time_call(lambda: traced.report(sql, method="focused"), args.runs)
    traced.close()
    reporter.close()

    print("telemetry overhead guard")
    print(f"  disabled report time        : {t_report * 1e3:9.3f} ms")
    print(f"  no-op PhaseTimer cycle      : {t_timer * 1e9:9.1f} ns")
    print(f"  resolve+enabled branch      : {t_check * 1e9:9.1f} ns")
    print(f"  disabled event-emit guard   : {t_event * 1e9:9.1f} ns")
    print(f"  disabled histogram observe  : {t_histogram * 1e9:9.1f} ns")
    print(f"  disabled trace propagation  : {t_propagation * 1e9:9.1f} ns")
    print(f"  disabled lineage guard      : {t_lineage * 1e9:9.1f} ns")
    print(
        f"  bound ({TIMERS_PER_REPORT} timers + {CHECKS_PER_REPORT} checks"
        f" + {EVENTS_PER_REPORT} events + {HISTOGRAMS_PER_REPORT} histograms"
        f" + {PROPAGATIONS_PER_REPORT} propagations"
        f" + {LINEAGE_CHECKS_PER_REPORT} lineage guards) : {bound * 1e6:9.2f} us/report"
    )
    print(f"  disabled-path overhead bound: {overhead_pct:9.3f} %  (budget {args.threshold}%)")
    print(f"  enabled report time (info)  : {t_enabled * 1e3:9.3f} ms")

    if overhead_pct >= args.threshold:
        print("FAIL: disabled-telemetry overhead bound exceeds budget", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
