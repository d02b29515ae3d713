"""The staleness-derived quality model (``repro.core.quality``).

The model returns the JSON every surface serves: per-source score entries
and the report's ``provenance`` block, read here as the dicts they are.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality import (
    DEFAULT_DEGRADED_PENALTY,
    DEFAULT_EXCEPTIONAL_PENALTY,
    ProvenanceRecord,
    QualityModel,
)
from repro.core.sources import SourceRegistry


def cols(*pairs):
    """``(source, recency)`` pairs as ``score_sources``' two columns."""
    return [sid for sid, _ in pairs], [recency for _, recency in pairs]


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
            *cols(("new", 100.0), ("old", 40.0))
        )
        assert scores["new"]["quality"] == 1.0
        assert math.isclose(scores["old"]["quality"], 0.5)
        assert scores["old"]["staleness"] == 60.0

    def test_now_override_anchors_reference(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(*cols(("s", 40.0)), now=100.0)
        assert math.isclose(scores["s"]["quality"], 0.5)

    def test_exceptional_and_degraded_penalties(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            *cols(("e", 100.0), ("d", 100.0), ("n", 100.0)),
            exceptional={"e"},
            degraded={"d"},
        )
        assert scores["n"]["quality"] == 1.0
        assert scores["e"]["quality"] == DEFAULT_EXCEPTIONAL_PENALTY
        assert scores["d"]["quality"] == DEFAULT_DEGRADED_PENALTY
        assert scores["e"]["exceptional"] and not scores["e"]["degraded"]
        assert scores["d"]["degraded"] and not scores["d"]["exceptional"]

    def test_degraded_source_without_heartbeat_scores_zero(self):
        scores = QualityModel().score_sources(
            *cols(("alive", 10.0)), degraded={"silent"}
        )
        assert scores["silent"]["quality"] == 0.0
        assert scores["silent"]["recency"] is None
        assert scores["silent"]["degraded"]

    def test_empty_inputs_yield_no_scores(self):
        assert QualityModel().score_sources([], []) == {}

    def test_a_reference_of_zero_is_a_reference(self):
        """The freshest recency, or ``now``, may be 0.0 (the grid simulator
        starts its clock there): staleness is still measured from it."""
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(*cols(("a", -10.0), ("b", 0.0)))
        assert scores["a"]["staleness"] == 10.0 and scores["b"]["staleness"] == 0.0
        scores = model.score_sources(*cols(("s", -5.0)), now=0.0)
        assert scores["s"]["staleness"] == 5.0
        assert math.isclose(scores["s"]["quality"], 2.0 ** (-5.0 / 60.0))


def score_row(model, lineage, scores):
    """One row's score, as :meth:`QualityModel.summarize` computes it."""
    _block, row_quality = model.summarize([lineage], scores)
    return row_quality[0]


class TestRowQuality:
    def test_min_combine(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            *cols(("good", 100.0), ("bad", 40.0))
        )
        assert math.isclose(score_row(model, {"good", "bad"}, scores), 0.5)

    def test_cited_but_unscored_source_pins_to_zero(self):
        model = QualityModel()
        scores = model.score_sources(*cols(("known", 10.0)))
        assert score_row(model, {"known", "ghost"}, scores) == 0.0

    def test_empty_lineage_is_unattributed(self):
        assert score_row(QualityModel(), frozenset(), {}) is None

    def test_quality_degrades_monotonically_with_injected_staleness(self):
        """The acceptance property: aging one contributor can only lower
        (never raise) every row quality that cites it."""
        model = QualityModel(half_life=60.0)
        lineages = [frozenset({"a"}), frozenset({"a", "b"})]
        previous = [1.1, 1.1]
        for staleness in (0.0, 30.0, 90.0, 400.0):
            scores = model.score_sources(
                *cols(("a", 1000.0 - staleness), ("b", 1000.0)),
                now=1000.0,
            )
            _block, row_quality = model.summarize(lineages, scores)
            for prior, current in zip(previous, row_quality):
                assert current <= prior
            previous = row_quality


class TestSummarize:
    def _summary(self):
        model = QualityModel(half_life=60.0)
        scores = model.score_sources(
            *cols(("a", 100.0), ("b", 40.0)),
            exceptional={"b"},
        )
        lineages = [frozenset({"a"}), frozenset({"a", "b"}), frozenset()]
        return model.summarize(lineages, scores)

    def test_counts(self):
        block, row_quality = self._summary()
        quality = block["quality"]
        assert quality["rows"] == 3
        assert quality["attributed_rows"] == 2
        assert quality["unattributed_rows"] == 1
        assert quality["rows_from_exceptional"] == 1
        assert quality["rows_from_degraded"] == 0
        assert quality["per_source_rows"] == {"a": 2, "b": 1}
        assert math.isclose(quality["worst_row_quality"], 0.5 * DEFAULT_EXCEPTIONAL_PENALTY)
        assert row_quality[0] == 1.0 and row_quality[2] is None
        assert block["row_sources"] == [["a"], ["a", "b"], []]  # sorted once, here

    def test_top_sources_ranked_by_row_count_then_id(self, monkeypatch):
        """The slow-query event ranks the rollup's per-source row counts:
        most rows first, ties by id, at most three."""
        from repro.backends.memory import MemoryBackend
        from repro.catalog import Catalog, Column, TableSchema
        from repro.core.report import RecencyReporter
        from repro.obs import Telemetry

        catalog = Catalog()
        catalog.add(TableSchema("t", [Column("s", "TEXT")], source_column="s"))
        backend = MemoryBackend(catalog)
        backend.create_tables()
        backend.insert_rows("t", [("c",), ("a",), ("d",), ("c",), ("b",), ("a",)])
        for source in "abcd":
            backend.upsert_heartbeat(source, 100.0)
        tel = Telemetry()
        monkeypatch.setenv("TRAC_SLOW_QUERY_SECONDS", "1e-9")
        reporter = RecencyReporter(backend, telemetry=tel, lineage=True)
        reporter.report("SELECT t.s FROM t")
        (slow,) = [e for e in tel.events.tail(10) if e.name == "query.slow"]
        assert slow.attributes["top_sources"] == [["a", 2], ["c", 2], ["b", 1]]

    def test_to_dict_shape(self):
        block, _row_quality = self._summary()
        assert set(block) == {"row_sources", "quality"}
        quality = block["quality"]
        assert quality["rows"] == 3
        assert {s["source_id"] for s in quality["sources"]} == {"a", "b"}
        assert "row_quality" not in quality  # the parallel list rides beside the block
        assert set(quality["sources"][0]) == {
            "source_id", "recency", "staleness", "quality", "exceptional", "degraded"
        }


class TestProvenanceRecord:
    def test_duck_types_for_the_profile_ring(self):
        block = {"row_sources": [["a", "b"]], "quality": {"rows": 1}}
        record = ProvenanceRecord("SELECT 1", "ab" * 16, "focused", block)
        assert record.sql == "SELECT 1"
        assert record.trace_id == "ab" * 16
        doc = record.to_dict()
        # The block's own lists under the ring's keys: no copy, no re-sort.
        assert doc["row_provenance"] is block["row_sources"]
        assert doc["quality"] is block["quality"]
        assert doc["method"] == "focused"
