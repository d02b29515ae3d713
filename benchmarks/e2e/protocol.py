"""The measurement protocol every workload shares.

The host is small (2 cores) and shared, so one number per run is not
trustworthy. Every workload therefore records one :class:`Op` per report
into a :class:`Recorder`, tagged with the *segment* (one of
:data:`SEGMENTS` equal slices of the measured phase) and the *query shape*
it belongs to, and :func:`summarize` turns the records into metrics:

* a statistic is computed **per segment** and the reported value is the
  **median over segments**; the segment min/max travel beside it so a noisy
  run is visible in the document;
* latency statistics are computed **per query shape and then averaged
  across shapes** — a round-robin Q1..Q4 mix is multi-modal, and a pooled
  median flips between the modes from run to run;
* the 95th percentile needs more samples than one segment holds, so it is
  taken per shape over the whole measured phase; it is flagged unsupported
  (``null`` + reason in the result document) when fewer than
  :data:`MIN_BEYOND` samples lie beyond it;
* times and rates are **corrected for host speed**. The host flips between
  a faster and a slower state about 30 % apart and stays in one for ten
  seconds or so at a time, which moved every wall-clock number by 10-15 %
  from run to run. A short fixed piece of work (:func:`host_burst`) runs every
  few operations; each latency is scaled by the bursts nearest to it in
  time to what it would be at :data:`REFERENCE_BURST_S`, and a segment's
  rate by the mean of the segment's bursts. A ratio
  of two interleaved measurements, like ``overhead_ratio``, is left
  uncorrected. The uncorrected value is kept beside each corrected one.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import time
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Everything the benchmark writes (result documents, traces, the
#: durability workload's data directory) stays under here, inside the checkout.
OUT_DIR = os.path.join(HERE, "out")

SEGMENTS = 6

#: A percentile is supported only when this many samples lie beyond it.
MIN_BEYOND = 10

#: The host-speed burst (:func:`host_burst`), what one takes on the host
#: the seed numbers came from in its usual state, and how many operations
#: pass between two bursts. Never change the burst or its reference time:
#: every corrected number in the repository's history is relative to them.
REFERENCE_BURST_S = 0.0007
#: Share of a caller-observed latency that follows host speed when the
#: report crosses sockets and threads (``serve_http``, ``federated``); the
#: rest is wake-up and scheduling time, which a slow core does not stretch,
#: so correcting in full over-corrects. Fitted on rounds of ten runs each
#: taken while the host's speed wandered by 40 %: the round medians of
#: ``report_p50_ms`` on ``serve_http`` ranged over 36 % uncorrected, 11 %
#: at a share of 0.5, 3 % at 0.75 and 11 % (the other way) corrected in
#: full; on ``federated`` 39 %, 15 %, 8 % and 12 %.
SOCKET_CPU_SHARE = 0.75
BURST_EVERY = 8
#: How many bursts around an operation say how fast the host was then.
NEAREST_BURSTS = 3


def load_declaration() -> dict:
    """``BENCHMARK.json``: the workloads and every metric's name, unit,
    direction and bound. The code only produces values for them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


class Op(NamedTuple):
    """One measured report: which segment and shape, how long the caller
    waited, how long the bare query took beside it, whether every
    correctness check on its output passed, and when it ended."""

    segment: int
    shape: str
    report_s: float
    plain_s: float
    ok: bool
    at: float


def host_burst() -> float:
    """Seconds one fixed piece of work takes right now.

    Half allocation (tuples, strings, a dict of lists, a sort), half
    arithmetic: the mix the program under test is made of, so the burst
    slows down with the host about as much as the program does. It calls
    nothing in ``src/``: a change to the program cannot move it.
    """
    start = time.perf_counter()
    rows = [(i, "m%d" % (i % 97), float(i)) for i in range(1200)]
    index: Dict[str, list] = {}
    for row in rows:
        index.setdefault(row[1], []).append(row)
    total = 0
    for group in index.values():
        total += len([r for r in group if r[2] > 100.0])
    rows.sort(key=lambda r: r[1])
    for i in range(6000):
        total += i * i
    return time.perf_counter() - start


def host_factor(bursts: Sequence[float]) -> float:
    """What to multiply a time measured beside ``bursts`` by to get the
    time at reference host speed (1.0 when no burst was taken)."""
    return REFERENCE_BURST_S / statistics.median(bursts) if bursts else 1.0


class Recorder:
    """Collects :class:`Op` records, per-segment wall time and the
    host-speed bursts taken during each segment."""

    def __init__(self, cpu_share: float = 1.0) -> None:
        self.ops: List[Op] = []
        #: How much of an operation's latency follows host speed
        #: (:attr:`Workload.cpu_share` of the workload being recorded).
        self.cpu_share = cpu_share
        #: (when, seconds) of every host-speed burst, per segment.
        self.bursts: List[List[Tuple[float, float]]] = [[] for _ in range(SEGMENTS)]
        #: Wall time of each segment, one entry per client that ran it.
        self.segment_walls: List[List[float]] = [[] for _ in range(SEGMENTS)]
        #: Operations that are not reports (probes, end-of-run checks) but
        #: still count in attempted/failed.
        self.extra_attempted = 0
        self.extra_failed = 0

    def add(self, segment: int, shape: str, report_s: float, plain_s: float, ok: bool) -> None:
        self.ops.append(Op(segment, shape, report_s, plain_s, ok, time.perf_counter()))

    def note_wall(self, segment: int, wall: float) -> None:
        self.segment_walls[segment].append(wall)

    def burst(self, segment: int) -> None:
        """Take one host-speed reading for ``segment``."""
        self.bursts[segment].append((time.perf_counter(), host_burst()))

    def check(self, ok: bool) -> None:
        """Count one non-report operation (a probe, a recovery check)."""
        self.extra_attempted += 1
        if not ok:
            self.extra_failed += 1

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.extra_attempted

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok) + self.extra_failed


class Workload:
    """What ``run.py`` asks of a workload. ``setup`` builds the inputs from
    the seed, starts whatever serves them and warms up (all of it is
    ``setup_s``); ``measure`` is the untraced closed loop; ``trace`` is the
    same loop with every other round of query shapes under spans (the
    others go to ``baseline``: the two populations see the same host, so
    their ratio is the tracing overhead) followed by the layer probes, and
    returns per-layer metric values by name."""

    #: How much of a report's latency follows host speed: all of it in
    #: process, :data:`SOCKET_CPU_SHARE` of it across sockets and threads.
    cpu_share = 1.0

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        #: Sizes and settings actually used, for the result document.
        self.config: Dict[str, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, recorder: Recorder) -> None:
        raise NotImplementedError

    def trace(
        self, seconds: float, traced: Recorder, baseline: Recorder, spans
    ) -> Dict[str, float]:
        raise NotImplementedError

    def finish(self, recorder: Recorder) -> Dict[str, float]:
        """Checks that can only run once measuring is over (and the layer
        metrics they yield); called once, before ``teardown``."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident set of the process under test: this one, unless
        the workload runs the program in a child."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_round(round_index: int) -> bool:
    """Whether this round of query shapes runs under spans (odd rounds)."""
    return round_index % 2 == 1


def run_timed_segments(seconds: float, op, recorder: Recorder) -> int:
    """Closed loop: call ``op(index, segment)`` back to back for
    ``seconds``, split into :data:`SEGMENTS` equal slices by start time.

    ``op`` records its own result; returns how many calls were made. An
    operation belongs to the segment it started in, and a segment's wall
    time runs from its first operation's start to the next segment's, so
    no operation is split between two.
    """
    segment_len = seconds / SEGMENTS
    start = time.perf_counter()
    boundaries = [start]
    index = 0
    while True:
        now = time.perf_counter()
        segment = int((now - start) / segment_len)
        while len(boundaries) <= min(segment, SEGMENTS):
            boundaries.append(now)
        if segment >= SEGMENTS:
            break
        if index % BURST_EVERY == 0:
            recorder.burst(segment)
        op(index, segment)
        index += 1
    for segment in range(SEGMENTS):
        recorder.note_wall(segment, boundaries[segment + 1] - boundaries[segment])
    return index


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples leave :data:`MIN_BEYOND` beyond ``q``."""
    return count * (1.0 - q) >= MIN_BEYOND


def shape_balanced(groups: Dict[str, List[float]], stat) -> float:
    """``stat`` of each shape's samples, averaged across shapes."""
    return statistics.fmean(stat(values) for values in groups.values())


def _by_shape(ops: Iterable[Op], field: str) -> Dict[str, List[float]]:
    groups: Dict[str, List[float]] = {}
    for op in ops:
        groups.setdefault(op.shape, []).append(getattr(op, field))
    return groups


def whole_pass_p50_ms(recorder: Recorder) -> float:
    """Shape-balanced median report latency over a whole pass (the traced
    pass compares its two interleaved populations with this)."""
    good = [op for op in recorder.ops if op.ok]
    return shape_balanced(_by_shape(good, "report_s"), statistics.median) * 1e3


def median_over_segments(
    per_segment: Sequence[float], raw: Sequence[float] = ()
) -> Dict[str, float]:
    """The reported value (median), the segment extremes beside it, and
    the median of the uncorrected per-segment values when given."""
    out = {
        "value": statistics.median(per_segment),
        "seg_min": min(per_segment),
        "seg_max": max(per_segment),
    }
    if raw:
        out["uncorrected"] = statistics.median(raw)
    return out


def op_factors(recorder: Recorder, ops: Sequence[Op]) -> List[float]:
    """The host factor of each op, from the :data:`NEAREST_BURSTS` bursts
    around the moment it ended (a whole segment can straddle a change of
    host state; three neighbouring bursts rarely do)."""
    bursts = sorted(burst for segment in recorder.bursts for burst in segment)
    if not bursts:
        return [1.0] * len(ops)
    times = [when for when, _seconds in bursts]
    factors: List[float] = []
    for op in ops:
        after = bisect.bisect(times, op.at)
        low = max(0, min(after - (NEAREST_BURSTS - 1), len(bursts) - NEAREST_BURSTS))
        nearest = [s for _when, s in bursts[low : low + NEAREST_BURSTS]]
        factors.append(host_factor(nearest) ** recorder.cpu_share)
    return factors


def summarize(recorder: Recorder) -> Dict[str, Dict[str, object]]:
    """The report metrics of one pass, by the protocol in the module doc.

    Only correct reports count: an incorrect answer delivered fast is not
    throughput.
    """
    good = [op for op in recorder.ops if op.ok]
    factors = op_factors(recorder, good)
    corrected = [op._replace(report_s=op.report_s * f) for op, f in zip(good, factors)]
    shapes = {op.shape for op in good}
    stats: Dict[str, List[float]] = {
        "rate": [], "rate_raw": [], "p50": [], "p50_raw": [], "overhead": [], "factor": [],
    }  # fmt: skip
    for segment in range(SEGMENTS):
        raw = [op for op in good if op.segment == segment]
        # A segment missing a shape cannot be shape-balanced; with the op
        # rates the workloads are sized for this never happens on a full
        # run, and a quick run just contributes fewer segments.
        if {op.shape for op in raw} != shapes or not shapes:
            continue
        # A rate depends on the mean speed over the segment, not the
        # median, so it is scaled by the mean of the segment's bursts.
        bursts = [seconds for _when, seconds in recorder.bursts[segment]]
        factor = (
            (REFERENCE_BURST_S / statistics.fmean(bursts)) ** recorder.cpu_share if bursts else 1.0
        )
        rate = len(raw) / statistics.fmean(recorder.segment_walls[segment])
        stats["factor"].append(factor)
        stats["rate"].append(rate / factor)
        stats["rate_raw"].append(rate)
        report = _by_shape(raw, "report_s")
        plain = _by_shape(raw, "plain_s")
        stats["p50_raw"].append(shape_balanced(report, statistics.median) * 1e3)
        stats["p50"].append(
            shape_balanced(
                _by_shape((op for op in corrected if op.segment == segment), "report_s"),
                statistics.median,
            )
            * 1e3
        )
        stats["overhead"].append(
            statistics.fmean(
                (statistics.median(report[s]) - statistics.median(plain[s]))
                / statistics.median(plain[s])
                for s in shapes
            )
        )
    if not stats["rate"]:
        raise RuntimeError("no segment saw every query shape; run longer")

    whole = _by_shape(corrected, "report_s")
    fewest = min(len(values) for values in whole.values())
    p95: Dict[str, object] = {
        "value": shape_balanced(whole, lambda v: percentile(v, 0.95)) * 1e3,
        "uncorrected": shape_balanced(_by_shape(good, "report_s"), lambda v: percentile(v, 0.95))
        * 1e3,
        "samples_per_shape": fewest,
    }
    if not supported(fewest, 0.95):
        p95["unsupported"] = (
            f"{fewest} samples in the smallest shape leave fewer than "
            f"{MIN_BEYOND} beyond the 95th percentile"
        )
    return {
        "reports_per_s": median_over_segments(stats["rate"], stats["rate_raw"]),
        "report_p50_ms": median_over_segments(stats["p50"], stats["p50_raw"]),
        "report_p95_ms": p95,
        "overhead_ratio": median_over_segments(stats["overhead"]),
        "host_factor": median_over_segments(stats["factor"]),
    }


def calibration_ms() -> float:
    """Fifty host bursts back to back, in milliseconds. Taken before and
    after a pass, it says how fast the host was around it, so a shifted
    number can be told from a shifted host."""
    return sum(host_burst() for _ in range(50)) * 1e3


def median_us(durations: Sequence[float]) -> float:
    return statistics.median(durations) * 1e6


def median_ms(durations: Sequence[float]) -> float:
    return statistics.median(durations) * 1e3
