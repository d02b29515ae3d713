"""Staleness-derived quality scores for provenance-annotated rows.

TRAC's report says *when* each relevant source last spoke; QTrail-DB
(PAPERS.md) argues that data quality should *decay* as its source ages
and propagate through query operators. This module combines the two: each
contributing source gets a quality score in ``(0, 1]`` derived from its
heartbeat staleness, and each result row inherits the **minimum** over
its lineage (QTrail-DB's pessimistic combine — a row is only as
trustworthy as its least trustworthy input).

The per-source score is an exponential decay over staleness::

    staleness(s) = reference - recency(s)        # seconds behind
    freshness(s) = 2 ** (-staleness(s) / half_life)

where ``reference`` defaults to the *most recent* relevant source's
recency (so scores are a deterministic function of the snapshot, not of
wall clock — pass ``now=`` for wall-clock-anchored scoring). A source at
the reference scores 1.0; every additional ``half_life`` seconds of
staleness halves the score, so quality degrades strictly monotonically
with staleness. Sources the report distrusts are penalized further:
z-score-**exceptional** sources (Section 4.3's split, reused as-is) and
supervisor-**degraded** sources each multiply the freshness by a penalty
factor. The half-life is the deployment's staleness target
(:attr:`repro.core.sources.SourceRegistry.half_life`), and the usual
target (:data:`repro.core.sources.DEFAULT_TARGET_P95`) where no registry
is wired.

A row whose lineage cites a source with *no* heartbeat at all scores 0.0
(the source never reported — nothing is known about its recency), and a
row with empty lineage (pure literals, aggregates over empty input, or a
backend that cannot produce lineage) has quality ``None``: unattributed,
not untrusted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.sources import DEFAULT_TARGET_P95
from repro.core.statistics import SourceRecency

#: Seconds of staleness that halve a source's quality score.
DEFAULT_HALF_LIFE = DEFAULT_TARGET_P95

#: Multiplier applied to z-score-exceptional sources.
DEFAULT_EXCEPTIONAL_PENALTY = 0.5

#: Multiplier applied to supervisor-degraded (quarantined) sources.
DEFAULT_DEGRADED_PENALTY = 0.25


class SourceQuality:
    """One contributing source's scored staleness."""

    __slots__ = ("source_id", "recency", "staleness", "quality", "exceptional", "degraded")

    def __init__(
        self,
        source_id: str,
        recency: Optional[float],
        staleness: Optional[float],
        quality: float,
        exceptional: bool,
        degraded: bool,
    ) -> None:
        self.source_id = source_id
        self.recency = recency
        self.staleness = staleness
        self.quality = quality
        self.exceptional = exceptional
        self.degraded = degraded

    def to_dict(self) -> Dict[str, object]:
        return {
            "source_id": self.source_id,
            "recency": self.recency,
            "staleness": self.staleness,
            "quality": self.quality,
            "exceptional": self.exceptional,
            "degraded": self.degraded,
        }

    def __repr__(self) -> str:
        return (
            f"SourceQuality({self.source_id!r}, quality={self.quality:.3f}, "
            f"staleness={self.staleness}, exceptional={self.exceptional}, "
            f"degraded={self.degraded})"
        )


class QualitySummary:
    """Row-level quality rollup of one provenance-annotated result.

    ``per_source_rows`` counts, per source id, the result rows whose
    lineage cites that source. ``worst_row_quality`` is the minimum row
    quality across attributed rows (``None`` when no row is attributed).
    """

    __slots__ = (
        "rows",
        "attributed_rows",
        "unattributed_rows",
        "worst_row_quality",
        "rows_from_exceptional",
        "rows_from_degraded",
        "per_source_rows",
        "sources",
        "row_quality",
    )

    def __init__(
        self,
        rows: int,
        attributed_rows: int,
        unattributed_rows: int,
        worst_row_quality: Optional[float],
        rows_from_exceptional: int,
        rows_from_degraded: int,
        per_source_rows: Dict[str, int],
        sources: List[SourceQuality],
        row_quality: List[Optional[float]],
    ) -> None:
        self.rows = rows
        self.attributed_rows = attributed_rows
        self.unattributed_rows = unattributed_rows
        self.worst_row_quality = worst_row_quality
        self.rows_from_exceptional = rows_from_exceptional
        self.rows_from_degraded = rows_from_degraded
        self.per_source_rows = per_source_rows
        self.sources = sources
        #: Per-row quality scores, parallel to the result rows.
        self.row_quality = row_quality

    def top_sources(self, n: int = 3) -> List[Tuple[str, int]]:
        """The ``n`` sources contributing to the most rows (ties by id)."""
        ranked = sorted(self.per_source_rows.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(0, n)]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rows": self.rows,
            "attributed_rows": self.attributed_rows,
            "unattributed_rows": self.unattributed_rows,
            "worst_row_quality": self.worst_row_quality,
            "rows_from_exceptional": self.rows_from_exceptional,
            "rows_from_degraded": self.rows_from_degraded,
            "per_source_rows": dict(self.per_source_rows),
            "sources": [s.to_dict() for s in self.sources],
        }

    def __repr__(self) -> str:
        worst = (
            f"{self.worst_row_quality:.3f}" if self.worst_row_quality is not None else "-"
        )
        return (
            f"QualitySummary(rows={self.rows}, attributed={self.attributed_rows}, "
            f"worst={worst}, exceptional_rows={self.rows_from_exceptional})"
        )


class QualityModel:
    """Maps heartbeat staleness to per-source and per-row quality scores."""

    __slots__ = ("half_life",)

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        if half_life <= 0:
            raise ValueError(f"half_life must be positive, got {half_life!r}")
        self.half_life = half_life

    # -- per-source scoring --------------------------------------------------

    def freshness(self, staleness: float) -> float:
        """The decay curve: 1.0 at zero staleness, halved per half-life."""
        return 2.0 ** (-max(0.0, staleness) / self.half_life)

    def score_sources(
        self,
        sources: Sequence[SourceRecency],
        exceptional: Optional[Set[str]] = None,
        degraded: Optional[Set[str]] = None,
        now: Optional[float] = None,
    ) -> Dict[str, SourceQuality]:
        """Score every source against the freshest one (or ``now``).

        ``sources`` is the report's relevant-source set (normal plus
        exceptional); ``exceptional`` and ``degraded`` name the sources the
        z-score split and the supervision layer distrust.
        """
        exceptional = exceptional or set()
        degraded = degraded or set()
        out: Dict[str, SourceQuality] = {}
        if not sources and not degraded:
            return out
        reference: Optional[float] = now
        if reference is None and sources:
            reference = max(s.recency for s in sources)
        for s in sources:
            staleness = max(0.0, (reference or s.recency) - s.recency)
            quality = self.freshness(staleness)
            is_exceptional = s.source_id in exceptional
            is_degraded = s.source_id in degraded
            if is_exceptional:
                quality *= DEFAULT_EXCEPTIONAL_PENALTY
            if is_degraded:
                quality *= DEFAULT_DEGRADED_PENALTY
            out[s.source_id] = SourceQuality(
                s.source_id, s.recency, staleness, quality, is_exceptional, is_degraded
            )
        # Degraded sources with no heartbeat are positively known to be
        # down and never reported: worst possible score.
        for source_id in degraded:
            if source_id not in out:
                out[source_id] = SourceQuality(source_id, None, None, 0.0, False, True)
        return out

    # -- per-row combination -------------------------------------------------

    def row_quality(
        self, lineage: Iterable[str], scores: Dict[str, SourceQuality]
    ) -> Optional[float]:
        """Min-combine over the row's contributing sources.

        Empty lineage means *unattributed* (``None``); a cited source with
        no score means its heartbeat is missing entirely and pins the row
        at 0.0.
        """
        quality: Optional[float] = None
        for source_id in lineage:
            scored = scores.get(source_id)
            q = scored.quality if scored is not None else 0.0
            if quality is None or q < quality:
                quality = q
        return quality

    def summarize(
        self,
        lineages: Sequence[Iterable[str]],
        scores: Dict[str, SourceQuality],
    ) -> QualitySummary:
        """Roll one result's row lineages up into a :class:`QualitySummary`."""
        per_source: Dict[str, int] = {}
        row_quality: List[Optional[float]] = []
        worst: Optional[float] = None
        attributed = 0
        from_exceptional = 0
        from_degraded = 0
        for lineage in lineages:
            cited = list(lineage)
            quality = self.row_quality(cited, scores)
            row_quality.append(quality)
            if quality is not None:
                attributed += 1
                if worst is None or quality < worst:
                    worst = quality
            touched_exceptional = False
            touched_degraded = False
            for source_id in cited:
                per_source[source_id] = per_source.get(source_id, 0) + 1
                scored = scores.get(source_id)
                if scored is not None:
                    touched_exceptional = touched_exceptional or scored.exceptional
                    touched_degraded = touched_degraded or scored.degraded
            if touched_exceptional:
                from_exceptional += 1
            if touched_degraded:
                from_degraded += 1
        cited_ids = set(per_source)
        return QualitySummary(
            rows=len(lineages),
            attributed_rows=attributed,
            unattributed_rows=len(lineages) - attributed,
            worst_row_quality=worst,
            rows_from_exceptional=from_exceptional,
            rows_from_degraded=from_degraded,
            per_source_rows=per_source,
            sources=sorted(
                (s for sid, s in scores.items() if sid in cited_ids),
                key=lambda s: s.source_id,
            ),
            row_quality=row_quality,
        )


class ProvenanceRecord:
    """One provenance-annotated query, retained in the telemetry ring.

    Duck-typed like a :class:`~repro.engine.profile.QueryProfile` for the
    :class:`~repro.obs.instrument.ProfileLog` ring (``sql`` / ``trace_id``
    / ``to_dict()``), so the observatory's ``/provenance/<trace_id>`` view
    can correlate it with spans, events and profiles.
    """

    __slots__ = ("sql", "trace_id", "method", "row_provenance", "quality")

    def __init__(
        self,
        sql: str,
        trace_id: Optional[str],
        method: str,
        row_provenance: Sequence[Iterable[str]],
        quality: Optional[QualitySummary],
    ) -> None:
        self.sql = sql
        self.trace_id = trace_id
        self.method = method
        self.row_provenance = [sorted(lineage) for lineage in row_provenance]
        self.quality = quality

    def to_dict(self) -> Dict[str, object]:
        return {
            "sql": self.sql,
            "trace_id": self.trace_id,
            "method": self.method,
            "row_provenance": [list(lineage) for lineage in self.row_provenance],
            "quality": self.quality.to_dict() if self.quality is not None else None,
        }

    def __repr__(self) -> str:
        return (
            f"ProvenanceRecord(sql={self.sql!r}, trace_id={self.trace_id!r}, "
            f"rows={len(self.row_provenance)})"
        )


__all__ = [
    "DEFAULT_HALF_LIFE",
    "DEFAULT_EXCEPTIONAL_PENALTY",
    "DEFAULT_DEGRADED_PENALTY",
    "SourceQuality",
    "QualitySummary",
    "QualityModel",
    "ProvenanceRecord",
]
