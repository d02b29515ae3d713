"""The staleness-derived quality model (``repro.core.quality``)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality import (
    DEFAULT_DEGRADED_PENALTY,
    DEFAULT_EXCEPTIONAL_PENALTY,
    ProvenanceRecord,
    QualityModel,
    QualitySummary,
)
from repro.core.sources import SourceRegistry
from repro.core.statistics import SourceRecency


class TestFreshness:
    def test_zero_staleness_scores_one(self):
        assert QualityModel().freshness(0.0) == 1.0

    def test_half_life_halves(self):
        model = QualityModel(half_life=60.0)
        assert math.isclose(model.freshness(60.0), 0.5)
        assert math.isclose(model.freshness(120.0), 0.25)

    def test_negative_staleness_clamps_to_one(self):
        assert QualityModel().freshness(-5.0) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1e5), st.floats(0.0, 1e5))
    def test_monotone_nonincreasing_in_staleness(self, a, b):
        model = QualityModel(half_life=30.0)
        lo, hi = sorted((a, b))
        assert model.freshness(hi) <= model.freshness(lo)

    def test_half_life_must_be_positive(self):
        with pytest.raises(ValueError):
            QualityModel(half_life=0.0)

    def test_half_life_is_the_registrys_target(self):
        assert SourceRegistry(target_p95=42.0).half_life == 42.0
        assert SourceRegistry().half_life == QualityModel().half_life == 60.0


class TestScoreSources:
    def test_reference_is_freshest_source(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            [SourceRecency("new", 100.0), SourceRecency("old", 40.0)]
        )
        assert scores["new"].quality == 1.0
        assert math.isclose(scores["old"].quality, 0.5)
        assert scores["old"].staleness == 60.0

    def test_now_override_anchors_reference(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources([SourceRecency("s", 40.0)], now=100.0)
        assert math.isclose(scores["s"].quality, 0.5)

    def test_exceptional_and_degraded_penalties(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            [SourceRecency("e", 100.0), SourceRecency("d", 100.0), SourceRecency("n", 100.0)],
            exceptional={"e"},
            degraded={"d"},
        )
        assert scores["n"].quality == 1.0
        assert scores["e"].quality == DEFAULT_EXCEPTIONAL_PENALTY
        assert scores["d"].quality == DEFAULT_DEGRADED_PENALTY
        assert scores["e"].exceptional and not scores["e"].degraded
        assert scores["d"].degraded and not scores["d"].exceptional

    def test_degraded_source_without_heartbeat_scores_zero(self):
        scores = QualityModel().score_sources(
            [SourceRecency("alive", 10.0)], degraded={"silent"}
        )
        assert scores["silent"].quality == 0.0
        assert scores["silent"].recency is None
        assert scores["silent"].degraded

    def test_empty_inputs_yield_no_scores(self):
        assert QualityModel().score_sources([]) == {}


class TestRowQuality:
    def test_min_combine(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            [SourceRecency("good", 100.0), SourceRecency("bad", 40.0)]
        )
        assert math.isclose(model.row_quality({"good", "bad"}, scores), 0.5)

    def test_cited_but_unscored_source_pins_to_zero(self):
        model = QualityModel()
        scores = model.score_sources([SourceRecency("known", 10.0)])
        assert model.row_quality({"known", "ghost"}, scores) == 0.0

    def test_empty_lineage_is_unattributed(self):
        assert QualityModel().row_quality([], {}) is None

    def test_quality_degrades_monotonically_with_injected_staleness(self):
        """The acceptance property: aging one contributor can only lower
        (never raise) every row quality that cites it."""
        model = QualityModel(half_life=60.0)
        lineages = [frozenset({"a"}), frozenset({"a", "b"})]
        previous = [1.1, 1.1]
        for staleness in (0.0, 30.0, 90.0, 400.0):
            scores = model.score_sources(
                [SourceRecency("a", 1000.0 - staleness), SourceRecency("b", 1000.0)],
                now=1000.0,
            )
            summary = model.summarize(lineages, scores)
            for prior, current in zip(previous, summary.row_quality):
                assert current <= prior
            previous = summary.row_quality


class TestSummarize:
    def _summary(self) -> QualitySummary:
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            [SourceRecency("a", 100.0), SourceRecency("b", 40.0)],
            exceptional={"b"},
        )
        lineages = [frozenset({"a"}), frozenset({"a", "b"}), frozenset()]
        return model.summarize(lineages, scores)

    def test_counts(self):
        summary = self._summary()
        assert summary.rows == 3
        assert summary.attributed_rows == 2
        assert summary.unattributed_rows == 1
        assert summary.rows_from_exceptional == 1
        assert summary.rows_from_degraded == 0
        assert summary.per_source_rows == {"a": 2, "b": 1}
        assert math.isclose(summary.worst_row_quality, 0.5 * DEFAULT_EXCEPTIONAL_PENALTY)
        assert summary.row_quality[2] is None

    def test_top_sources_ranked_by_row_count_then_id(self):
        summary = self._summary()
        assert summary.top_sources(2) == [("a", 2), ("b", 1)]
        assert summary.top_sources(0) == []

    def test_to_dict_shape(self):
        doc = self._summary().to_dict()
        assert doc["rows"] == 3
        assert {s["source_id"] for s in doc["sources"]} == {"a", "b"}
        assert "row_quality" not in doc  # the parallel list stays in-process


class TestProvenanceRecord:
    def test_duck_types_for_the_profile_ring(self):
        record = ProvenanceRecord(
            "SELECT 1", "ab" * 16, "focused", [frozenset({"b", "a"})], None
        )
        assert record.sql == "SELECT 1"
        assert record.trace_id == "ab" * 16
        assert record.row_provenance == [["a", "b"]]  # sorted for stable output
        doc = record.to_dict()
        assert doc["row_provenance"] == [["a", "b"]]
        assert doc["quality"] is None
