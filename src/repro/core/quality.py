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

The model returns JSON documents, not records: the report's ``provenance``
block is built once, by :meth:`QualityModel.summarize`, and every surface
(``POST /v1/query``, ``/provenance/<trace_id>``, flight dumps) serves it
as built.
"""

from __future__ import annotations

from typing import Collection, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.core.sources import DEFAULT_TARGET_P95
from repro.errors import check_number

#: Seconds of staleness that halve a source's quality score.
DEFAULT_HALF_LIFE = DEFAULT_TARGET_P95

#: Multiplier applied to z-score-exceptional sources.
DEFAULT_EXCEPTIONAL_PENALTY = 0.5

#: Multiplier applied to supervisor-degraded (quarantined) sources.
DEFAULT_DEGRADED_PENALTY = 0.25


def _entry(*values: object) -> Dict[str, object]:
    return dict(zip(("source_id", "recency", "staleness", "quality", "exceptional", "degraded"),
                    values))


class QualityModel:
    """Maps heartbeat staleness to per-source and per-row quality scores."""

    __slots__ = ("half_life",)

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        self.half_life = check_number("half_life", half_life, 0, low_open=True, error=ValueError)

    def freshness(self, staleness: float) -> float:
        """The decay curve: 1.0 at zero staleness, halved per half-life."""
        return 2.0 ** (-max(0.0, staleness) / self.half_life)

    def score_sources(
        self,
        ids: Sequence[str],
        recencies: Sequence[float],
        exceptional: Optional[Set[str]] = None,
        degraded: Optional[Set[str]] = None,
        now: Optional[float] = None,
    ) -> Dict[str, Dict[str, object]]:
        """Score every source against the freshest one (or ``now``).

        ``ids`` / ``recencies`` are the report's relevant-source columns
        (normal plus exceptional); ``exceptional`` and ``degraded`` name the
        sources the z-score split and the supervision layer distrust.
        Returns, keyed by source id, the ``{"source_id", "recency",
        "staleness", "quality", "exceptional", "degraded"}`` entry every
        surface serves.
        """
        exceptional = exceptional or set()
        degraded = degraded or set()
        out: Dict[str, Dict[str, object]] = {}
        if not ids and not degraded:
            return out
        reference = max(recencies, default=None) if now is None else now
        for source_id, recency in zip(ids, recencies):
            staleness = max(0.0, reference - recency)
            quality = self.freshness(staleness)
            is_exceptional, is_degraded = source_id in exceptional, source_id in degraded
            if is_exceptional:
                quality *= DEFAULT_EXCEPTIONAL_PENALTY
            if is_degraded:
                quality *= DEFAULT_DEGRADED_PENALTY
            out[source_id] = _entry(source_id, recency, staleness, quality, is_exceptional,
                                    is_degraded)
        # Degraded sources with no heartbeat are positively known to be
        # down and never reported: worst possible score.
        for source_id in degraded:
            if source_id not in out:
                out[source_id] = _entry(source_id, None, None, 0.0, False, True)
        return out

    def summarize(
        self,
        lineages: Sequence[Collection[str]],
        scores: Dict[str, Dict[str, object]],
    ) -> Tuple[Dict[str, object], List[Optional[float]]]:
        """One result's ``provenance`` block and its per-row quality scores.

        The block is ``{"row_sources", "quality"}``: one sorted source list
        per row, and the rollup (attributed/unattributed rows, the worst row
        score, rows citing exceptional/degraded sources, per-source row
        counts, the cited sources' ``scores`` entries). A row's score is the
        min-combine over its sources: empty lineage is *unattributed*
        (``None``), and a cited source with no score — its heartbeat is
        missing entirely — pins the row at 0.0.
        """
        row_sources: List[List[str]] = []
        row_quality: List[Optional[float]] = []
        per_source: Dict[str, int] = {}
        from_exceptional = from_degraded = 0
        for lineage in lineages:
            row_sources.append(sorted(lineage))
            quality: Optional[float] = None
            exceptional = degraded = False
            for source_id in lineage:
                per_source[source_id] = per_source.get(source_id, 0) + 1
                scored = scores.get(source_id)
                q = 0.0
                if scored is not None:
                    q = scored["quality"]
                    exceptional = exceptional or scored["exceptional"]
                    degraded = degraded or scored["degraded"]
                if quality is None or q < quality:
                    quality = q
            row_quality.append(quality)
            from_exceptional += exceptional
            from_degraded += degraded
        attributed = [q for q in row_quality if q is not None]
        rollup = {
            "rows": len(row_quality),
            "attributed_rows": len(attributed),
            "unattributed_rows": len(row_quality) - len(attributed),
            "worst_row_quality": min(attributed, default=None),
            "rows_from_exceptional": from_exceptional,
            "rows_from_degraded": from_degraded,
            "per_source_rows": per_source,
            "sources": [scores[sid] for sid in sorted(per_source) if sid in scores],
        }
        return {"row_sources": row_sources, "quality": rollup}, row_quality


class ProvenanceRecord(NamedTuple):
    """One lineage report's ``provenance`` block, retained in the telemetry
    ring.

    Duck-typed like a :class:`~repro.engine.profile.QueryProfile` for the
    :class:`~repro.obs.instrument.ProfileLog` ring (``sql`` / ``trace_id``
    / ``to_dict()``), so the observatory's ``/provenance/<trace_id>`` view
    can correlate it with spans, events and profiles.
    """

    sql: str
    trace_id: Optional[str]
    method: str
    provenance: Dict[str, object]

    def to_dict(self) -> Dict[str, object]:
        return {
            "sql": self.sql,
            "trace_id": self.trace_id,
            "method": self.method,
            "row_provenance": self.provenance["row_sources"],
            "quality": self.provenance["quality"],
        }


__all__ = [
    "DEFAULT_HALF_LIFE",
    "DEFAULT_EXCEPTIONAL_PENALTY",
    "DEFAULT_DEGRADED_PENALTY",
    "QualityModel",
    "ProvenanceRecord",
]
