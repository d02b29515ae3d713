"""Staleness SLO tracking in the source registry: windows, burn rates,
breach detection."""

import pytest

from repro.core.sources import DEFAULT_TARGET_P95, SourceRegistry
from repro.errors import TracError


def fraction(registry, source_id):
    return registry.standing_of(source_id)["violation_fraction"]


class TestLagWindow:
    def test_running_violation_count_tracks_evictions(self):
        reg = SourceRegistry(target_p95=10.0, window=3)
        reg.record_lag("m1", 1.0, 20.0)  # violating
        reg.record_lag("m1", 2.0, 5.0)
        reg.record_lag("m1", 3.0, 5.0)
        assert fraction(reg, "m1") == pytest.approx(1 / 3)
        reg.record_lag("m1", 4.0, 5.0)  # evicts the violating sample
        assert fraction(reg, "m1") == 0.0
        reg.record_lag("m1", 5.0, 30.0)
        reg.record_lag("m1", 6.0, 30.0)
        assert fraction(reg, "m1") == pytest.approx(2 / 3)
        assert reg.open("m1").violations == 2

    def test_latest_and_series(self):
        reg = SourceRegistry(target_p95=10.0, window=4)
        assert reg.standing_of("m1") is None
        for t in range(6):
            reg.record_lag("m1", float(t), float(t) * 2)
        assert reg.standing_of("m1")["latest"] == 10.0
        assert reg.lag_series()["m1"] == [(2.0, 4.0), (3.0, 6.0), (4.0, 8.0), (5.0, 10.0)]


class TestStalenessSLO:
    def test_validation(self):
        with pytest.raises(TracError):
            SourceRegistry(target_p95=0.0)
        with pytest.raises(TracError):
            SourceRegistry(target_p95=float("inf"))
        with pytest.raises(TracError):
            SourceRegistry(target_p95=60.0, budget=0.0)
        with pytest.raises(TracError):
            SourceRegistry(target_p95=60.0, budget=1.0)
        with pytest.raises(TracError):
            SourceRegistry(target_p95=60.0, window=0)

    def test_all_within_target_is_ok(self):
        slo = SourceRegistry(target_p95=60.0, budget=0.05, window=100)
        for t in range(50):
            slo.record_lag("m1", float(t), 5.0)
        status = slo.slo_status()
        assert status["breached"] == []
        assert status["worst_burn"] == 0.0
        source = status["sources"][0]
        assert source["source"] == "m1"
        assert source["p95"] == pytest.approx(5.0)
        assert not source["breached"]

    def test_breach_when_budget_spent(self):
        slo = SourceRegistry(target_p95=10.0, budget=0.1, window=100)
        for t in range(90):
            slo.record_lag("m1", float(t), 1.0)
        for t in range(90, 100):
            slo.record_lag("m1", float(t), 50.0)  # 10% violating == budget
        status = slo.standing_of("m1")
        assert status["violation_fraction"] == pytest.approx(0.1)
        assert status["burn"] == pytest.approx(1.0)
        assert status["breached"]
        assert slo.breached() == ["m1"]  # one predicate: the list agrees at the boundary

    def test_burn_below_one_is_not_breached(self):
        slo = SourceRegistry(target_p95=10.0, budget=0.2, window=100)
        for t in range(95):
            slo.record_lag("m1", float(t), 1.0)
        for t in range(95, 100):
            slo.record_lag("m1", float(t), 50.0)  # 5% violating, 20% budget
        status = slo.standing_of("m1")
        assert status["burn"] == pytest.approx(0.25)
        assert not status["breached"]
        assert slo.breached() == []

    def test_window_eviction_recovers(self):
        slo = SourceRegistry(target_p95=10.0, budget=0.05, window=20)
        for t in range(20):
            slo.record_lag("m1", float(t), 99.0)
        assert slo.breached() == ["m1"]
        for t in range(20, 40):
            slo.record_lag("m1", float(t), 1.0)  # window now all-healthy
        assert slo.breached() == []

    def test_record_lag_reports_the_breach_on_the_sample_that_causes_it(self):
        slo = SourceRegistry(target_p95=10.0, budget=0.5, window=4)
        assert slo.record_lag("m1", 0.0, 1.0) == (False, 0.0)
        assert slo.record_lag("m1", 1.0, 99.0) == (False, 1.0)  # 1 of 2 == budget
        assert slo.record_lag("m1", 2.0, 99.0)[0] is True  # already breached before it

    def test_status_of_unknown_source(self):
        assert SourceRegistry(target_p95=DEFAULT_TARGET_P95).standing_of("nope") is None

    def test_without_a_target_nothing_is_tracked_or_breached(self):
        reg = SourceRegistry()
        reg.open("m1")
        assert reg.target_p95 is None and reg.breached() == []
        assert reg.verdict() == ([], None)
        assert reg.half_life == DEFAULT_TARGET_P95

    def test_multiple_sources_sorted(self):
        slo = SourceRegistry(target_p95=10.0, budget=0.05, window=10)
        slo.record_lag("m2", 0.0, 1.0)
        slo.record_lag("m1", 0.0, 99.0)
        status = slo.slo_status()
        assert [s["source"] for s in status["sources"]] == ["m1", "m2"]
        assert status["breached"] == ["m1"]
        assert sorted(slo.snapshot()) == ["m1", "m2"]

    def test_series_and_lag_series(self):
        slo = SourceRegistry(target_p95=DEFAULT_TARGET_P95, window=8)
        slo.record_lag("m1", 1.0, 2.0)
        slo.record_lag("m1", 2.0, 3.0)
        slo.open("m2")  # known, never sampled: no series
        assert slo.lag_series() == {"m1": [(1.0, 2.0), (2.0, 3.0)]}

    def test_to_dict_is_json_friendly(self):
        import json

        slo = SourceRegistry(target_p95=10.0, budget=0.05, window=4)
        slo.record_lag("m1", 0.0, 99.0)
        doc = slo.slo_status()
        json.dumps(doc)  # must not raise
        assert doc["breached"] == ["m1"]
        assert doc["sources"][0]["source"] == "m1"
        assert doc["sources"][0]["breached"] is True
        assert set(doc["sources"][0]) == {
            "source", "samples", "latest", "mean", "p95", "max",
            "violation_fraction", "burn", "breached",
        }
