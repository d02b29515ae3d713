"""Descriptive statistics and outlier detection for recency reports
(Section 4.3).

Given the recency timestamps of the relevant sources, the report carries:

* the **least recent** source and timestamp (a consistent snapshot exists
  for all events before it),
* the **most recent** source and timestamp,
* the **bound of inconsistency** — the range (max − min),

computed over the *normal* sources after **z-score** outlier removal:
sources whose recency timestamp has ``|z| >= threshold`` (default 3,
justified by Chebyshev's theorem — at most 1/9 of any data set lies beyond
3 standard deviations) are reported separately as *exceptional*.
"""

from __future__ import annotations

import math
import operator
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress
from typing import List, Mapping, Optional, Sequence, Tuple

#: Default |z| threshold for exceptional sources, per the paper.
DEFAULT_Z_THRESHOLD = 3.0


class SourceRecency:
    """One source's recency timestamp (epoch seconds): a view of one entry
    of a report's :data:`Columns`, built only when a caller asks for one."""

    __slots__ = ("source_id", "recency")

    def __init__(self, source_id: str, recency: float) -> None:
        self.source_id = source_id
        self.recency = float(recency)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceRecency)
            and self.source_id == other.source_id
            and self.recency == other.recency
        )

    def __hash__(self) -> int:
        return hash((self.source_id, self.recency))

    def __repr__(self) -> str:
        return f"SourceRecency({self.source_id!r}, {self.recency})"


#: A set of sources as two parallel columns: ``(ids, recencies)``.
Columns = Tuple[List[str], List[float]]


def sorted_columns(recency: Mapping[str, object]) -> Columns:
    """``{source: recency}`` as id-sorted columns, each recency a ``float``."""
    ids = sorted(recency)
    return ids, [float(recency[sid]) for sid in ids]


def format_timestamp(epoch_seconds: float) -> str:
    """Render an epoch timestamp like the paper's ``2006-03-15 14:20:05``."""
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def format_interval(seconds: float) -> str:
    """Render a duration like the paper's ``00:20:00`` bound of
    inconsistency (hours may exceed two digits for long gaps; negative
    durations — e.g. an age against a clock that lags the data — get a
    leading minus)."""
    total = int(round(seconds))
    sign = "-" if total < 0 else ""
    hours, remainder = divmod(abs(total), 3600)
    minutes, secs = divmod(remainder, 60)
    return f"{sign}{hours:02d}:{minutes:02d}:{secs:02d}"


class RecencyStatistics:
    """Min / max / range of a set of source recency timestamps."""

    __slots__ = ("least_recent", "most_recent", "count")

    def __init__(
        self,
        least_recent: Optional[SourceRecency],
        most_recent: Optional[SourceRecency],
        count: int,
    ) -> None:
        self.least_recent = least_recent
        self.most_recent = most_recent
        self.count = count

    @property
    def inconsistency_bound(self) -> Optional[float]:
        """The range descriptor: max − min recency, in seconds."""
        if self.least_recent is None or self.most_recent is None:
            return None
        return self.most_recent.recency - self.least_recent.recency

    def __repr__(self) -> str:
        return (
            f"RecencyStatistics(count={self.count}, "
            f"bound={self.inconsistency_bound!r})"
        )


class RecencySplit:
    """The z-score partition of sources into normal vs exceptional, as two
    pairs of columns in their input order: in a report, each id once, sorted
    by id (a naive report's in Heartbeat scan order). ``normal`` and
    ``exceptional`` are :class:`SourceRecency` lists, built on first read."""

    def __init__(
        self, normal: Columns, exceptional: Columns, threshold: float,
        mean: Optional[float], stddev: Optional[float],
    ) -> None:
        self.normal_ids, self.normal_recencies = normal
        self.exceptional_ids, self.exceptional_recencies = exceptional
        self.threshold, self.mean, self.stddev = threshold, mean, stddev

    @cached_property
    def normal(self) -> List[SourceRecency]:
        return list(map(SourceRecency, self.normal_ids, self.normal_recencies))

    @cached_property
    def exceptional(self) -> List[SourceRecency]:
        return list(map(SourceRecency, self.exceptional_ids, self.exceptional_recencies))

    def __repr__(self) -> str:
        normal, exceptional = len(self.normal_ids), len(self.exceptional_ids)
        return f"RecencySplit({normal=}, {exceptional=}, threshold={self.threshold})"


def _columns(sources: Sequence[SourceRecency]) -> Columns:
    items = list(sources)
    return [s.source_id for s in items], [s.recency for s in items]


def describe(sources: Sequence[SourceRecency]) -> RecencyStatistics:
    """:func:`describe_columns` of a :class:`SourceRecency` list."""
    return describe_columns(*_columns(sources))


def describe_columns(ids: Sequence[str], recencies: Sequence[float]) -> RecencyStatistics:
    """Compute the least/most recent source and the count.

    Ties are broken by source id so reports are deterministic: the least
    recent is the least ``(recency, source_id)``, the first of equals.
    """
    if not recencies:
        return RecencyStatistics(None, None, 0)
    return RecencyStatistics(_end(ids, recencies, min), _end(ids, recencies, max), len(ids))


def _end(ids, values, pick) -> SourceRecency:
    """The first source at the ``pick``-most recency with the ``pick``-most id."""
    if math.isnan(sum(values)):
        # A NaN (or +inf beside -inf) sums to NaN. NaN has no order, so the
        # answer is whatever the pairwise scan of the tuples picks.
        recency, source_id = pick(zip(values, ids))
        return SourceRecency(source_id, recency)
    value = pick(values)
    if values.count(value) == 1:
        at = values.index(value)
    else:
        at = pick((i for i, v in enumerate(values) if v == value), key=ids.__getitem__)
    return SourceRecency(ids[at], values[at])


def mean_stddev(values: Sequence[float]) -> Tuple[float, float]:
    """Population mean and standard deviation (the paper's formulas)."""
    n = len(values)
    if n == 0:
        raise ValueError("mean_stddev of an empty sequence")
    mu = sum(values) / n
    variance = sum([(x - mu) ** 2 for x in values]) / n
    return mu, math.sqrt(variance)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    The paper notes "other statistics could be computed as well"; the
    per-source SLO standing reads its lag p95 with it.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    # lo + (hi - lo) * f is exact when hi == lo and never overshoots.
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def zscore_split(
    sources: Sequence[SourceRecency], threshold: float = DEFAULT_Z_THRESHOLD
) -> RecencySplit:
    """:func:`split_columns` of a :class:`SourceRecency` list."""
    return split_columns(*_columns(sources), threshold)


def split_columns(
    ids: List[str], recencies: List[float], threshold: float = DEFAULT_Z_THRESHOLD
) -> RecencySplit:
    """Partition sources by z-score of their recency timestamps.

    Sources with ``|z| >= threshold`` are exceptional. With fewer than two
    sources, or zero standard deviation, nothing is exceptional and the
    columns become the normal ones as they are.
    """
    if len(recencies) < 2:
        return RecencySplit((ids, recencies), ([], []), threshold, None, None)
    mu, sigma = mean_stddev(recencies)
    # Subtracting mu and dividing by sigma > 0 are monotone, so no |z| exceeds
    # the extremes': partition only when one of them reaches the threshold.
    # A NaN anywhere fails the comparison and takes the partition.
    if sigma == 0.0 or max(mu - min(recencies), max(recencies) - mu) / sigma < threshold:
        return RecencySplit((ids, recencies), ([], []), threshold, mu, sigma)
    flagged = [abs((x - mu) / sigma) >= threshold for x in recencies]
    kept = list(map(operator.not_, flagged))
    normal = list(compress(ids, kept)), list(compress(recencies, kept))
    exceptional = list(compress(ids, flagged)), list(compress(recencies, flagged))
    return RecencySplit(normal, exceptional, threshold, mu, sigma)
