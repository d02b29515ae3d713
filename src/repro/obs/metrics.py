"""A dependency-free registry of counters, gauges and histograms.

Instruments are created (or fetched — creation is idempotent) through a
:class:`MetricsRegistry`::

    registry.counter("trac_backend_queries_total", labels={"backend": "sqlite"}).inc()
    registry.gauge("trac_sniffer_backlog", labels={"machine": "m1"}).set(12)
    registry.histogram("trac_sniff_lag_seconds").observe(0.8)

Each (name, label-set) pair is a distinct time series, mirroring the
Prometheus data model; the exporters in :mod:`repro.obs.export` render the
whole registry. Histograms use fixed, cumulative upper-bound buckets (the
Prometheus convention: a sample counts toward every bucket whose bound is
>= the value, plus the implicit ``+Inf`` bucket).

All updates are thread-safe: instruments share their registry's lock, which
is plenty for the update rates telemetry sees (instrument lookups and
updates only happen when telemetry is enabled).
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TracError

#: Default histogram bucket upper bounds (seconds-oriented, log-spaced).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Scalar:
    """One number under the registry lock: what counters and gauges share."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: LabelPairs, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {dict(self.labels)}, value={self._value})"


class Counter(_Scalar):
    """Monotonically increasing count."""

    __slots__ = ()

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TracError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount


class Gauge(_Scalar):
    """A value that can go up and down."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative bucket semantics.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the trailing
    ``+Inf`` bucket equals :attr:`count`. Bounds must be strictly
    increasing.
    """

    __slots__ = (
        "name",
        "labels",
        "bounds",
        "_lock",
        "_counts",
        "_sum",
        "_count",
        "_exemplars",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TracError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TracError(f"histogram {name!r} bucket bounds must be increasing")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._lock = lock
        self._counts = [0] * len(bounds)  # per-bucket (non-cumulative) tallies
        self._sum = 0.0
        self._count = 0
        # bucket index (len(bounds) = +Inf) -> (trace_id, value) of the
        # most recent traced observation landing in that bucket.
        self._exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(self, value: float, trace_id: Optional[str] = None) -> None:
        """Record one observation; ``trace_id`` (32-hex) attaches an
        OpenMetrics exemplar to the bucket the value lands in."""
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1
            if trace_id:
                self._exemplars[index] = (trace_id, value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with +Inf."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, tally in zip(self.bounds, counts):
            running += tally
            out.append((bound, running))
        out.append((float("inf"), total))
        return out

    def exemplars(self) -> Dict[float, Tuple[str, float]]:
        """Per-bucket exemplars keyed by the bucket's upper bound
        (``inf`` for the overflow bucket): ``{bound: (trace_id, value)}``."""
        with self._lock:
            snapshot = dict(self._exemplars)
        bounds = self.bounds + (float("inf"),)
        return {bounds[i]: pair for i, pair in snapshot.items()}

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name!r}, {dict(self.labels)}, "
            f"count={self._count}, sum={self._sum:.6f})"
        )


class MetricsRegistry:
    """Owns every instrument; creation is idempotent per (name, labels).

    A name is bound to one instrument kind (and, for histograms, one bucket
    layout) on first use; conflicting re-registration raises
    :class:`~repro.errors.TracError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, LabelPairs], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    def _get(self, kind: str, name: str, labels, help: Optional[str], factory) -> object:
        pairs = _label_pairs(labels)
        with self._lock:
            if self._kinds.get(name, kind) != kind:
                raise TracError(f"metric {name!r} is a {self._kinds[name]}, not a {kind}")
            if help:
                self._help.setdefault(name, help)
            instrument = self._instruments.get((name, pairs))
            if instrument is None:
                instrument = self._instruments[(name, pairs)] = factory(name, pairs, self._lock)
                self._kinds[name] = kind
            return instrument

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: Optional[str] = None,
    ) -> Counter:
        return self._get("counter", name, labels, help, Counter)  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        help: Optional[str] = None,
    ) -> Gauge:
        return self._get("gauge", name, labels, help, Gauge)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: Optional[str] = None,
    ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            "histogram", name, labels, help, lambda *series: Histogram(*series, buckets)
        )

    def collect(self) -> List[object]:
        """Every instrument, sorted by (name, labels) for stable output."""
        with self._lock:
            items = sorted(self._instruments.items())
        return [instrument for _, instrument in items]

    def help_text(self, name: str) -> Optional[str]:
        return self._help.get(name)

    def reset(self) -> None:
        """Drop every instrument (a fresh registry in place)."""
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()
            self._help.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


def histogram_quantile(
    bucket_counts: Sequence[Tuple[float, int]], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile from cumulative histogram buckets.

    ``bucket_counts`` is the :meth:`Histogram.bucket_counts` shape —
    cumulative ``(upper_bound, count)`` pairs ending with ``+Inf`` — or
    the same merged across several label sets. Uses the Prometheus
    ``histogram_quantile`` convention: linear interpolation within the
    bucket the quantile falls in, with the lower bound of the first
    bucket taken as 0. A quantile landing in the ``+Inf`` bucket returns
    the last finite bound (the histogram cannot resolve beyond it).
    Returns ``None`` when there are no observations.
    """
    if not 0.0 <= q <= 1.0:
        raise TracError(f"quantile must be in [0, 1], got {q}")
    if not bucket_counts:
        return None
    total = bucket_counts[-1][1]
    if total <= 0:
        return None
    rank = q * total
    previous_bound = 0.0
    previous_count = 0
    for bound, count in bucket_counts:
        if count >= rank:
            if bound == float("inf"):
                return previous_bound
            in_bucket = count - previous_count
            if in_bucket <= 0:
                return bound
            fraction = (rank - previous_count) / in_bucket
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound if previous_bound != float("inf") else None
