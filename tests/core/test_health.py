"""The source registry's health view, and how degradation flows into
recency reports and watch rules."""

import pytest

from repro.core.monitor import RecencyMonitor, WatchRule, rules_from_json
from repro.core.report import RecencyReporter
from repro.core.sources import (
    BACKING_OFF,
    DEGRADED,
    HEALTHY,
    RESTARTING,
    STATUSES,
    SourceRegistry,
    SourceState,
)
from repro.errors import TracError

IDLE = "SELECT mach_id FROM activity WHERE value = 'idle'"


class TestRegistry:
    def test_empty(self):
        health = SourceRegistry()
        assert health.snapshot() == {} and health.health() == {}
        assert health.status_of("m1") is None
        assert health.degraded() == []
        assert health.verdict() == ([], None)

    def test_mark_overwrites(self):
        health = SourceRegistry()
        health.mark("m1", HEALTHY, at=0.0)
        health.mark("m1", BACKING_OFF, reason="poll error", at=5.0)
        assert health.health() == {
            "m1": {"source": "m1", "status": BACKING_OFF, "reason": "poll error", "since": 5.0}
        }

    def test_unknown_status_rejected(self):
        health = SourceRegistry()
        with pytest.raises(ValueError):
            health.mark("m1", "on-fire")
        assert set(STATUSES) == {HEALTHY, BACKING_OFF, RESTARTING, DEGRADED}

    def test_degraded_sources_sorted(self):
        health = SourceRegistry()
        health.mark("m9", DEGRADED)
        health.mark("m2", DEGRADED)
        health.mark("m5", HEALTHY)
        assert health.degraded() == ["m2", "m9"]
        health.mark("m9", HEALTHY)
        assert health.degraded() == ["m2"]

    def test_snapshot_is_a_copy(self):
        health = SourceRegistry()
        health.mark("m1", DEGRADED)
        snap = health.snapshot()
        health.mark("m1", HEALTHY)
        assert snap["m1"].status == DEGRADED
        assert health.status_of("m1") == HEALTHY

    def test_status_repr_mentions_reason(self):
        health = SourceRegistry()
        health.mark("m1", DEGRADED, reason="gave up")
        assert "gave up" in repr(health.open("m1"))
        assert SourceState("m2").health() is None  # never marked: no entry


class TestReportIntegration:
    def test_degraded_sources_annotate_the_report(self, paper_memory_backend):
        health = SourceRegistry()
        health.mark("m3", DEGRADED, reason="restart budget exhausted")
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, sources=health
        )
        report = reporter.report(IDLE, method="naive")
        assert report.degraded_sources == ["m3"]
        # Suspect = z-score exceptional (m2, a month stale) + degraded (m3).
        assert report.suspect_sources == {"m2", "m3"}
        assert any("Degraded data sources" in n for n in report.notices())

    def test_no_registry_means_no_degraded(self, paper_memory_backend):
        reporter = RecencyReporter(paper_memory_backend, create_temp_tables=False)
        report = reporter.report(IDLE, method="naive")
        assert report.degraded_sources == []
        assert report.suspect_sources == {"m2"}
        assert not any("Degraded" in n for n in report.notices())

    def test_degraded_need_not_be_exceptional(self, paper_memory_backend):
        """Degradation is supervisor knowledge: it can flag a source whose
        heartbeat still looks statistically normal."""
        health = SourceRegistry()
        health.mark("m1", DEGRADED, reason="permanent fault")
        reporter = RecencyReporter(
            paper_memory_backend, create_temp_tables=False, sources=health
        )
        report = reporter.report(IDLE, method="naive")
        assert "m1" not in {s.source_id for s in report.split.exceptional}
        assert "m1" in report.suspect_sources


class TestMonitorIntegration:
    def test_forbid_degraded_trips(self, paper_memory_backend):
        health = SourceRegistry()
        health.mark("m3", DEGRADED, reason="silent source")
        monitor = RecencyMonitor(
            paper_memory_backend, clock=lambda: 0.0, sources=health
        )
        monitor.add_rule(WatchRule("quarantine", IDLE, forbid_degraded=True))
        alerts = monitor.check()
        assert [a.kind for a in alerts] == ["degraded"]
        assert "m3" in alerts[0].message

    def test_forbid_degraded_quiet_when_healthy(self, paper_memory_backend):
        health = SourceRegistry()
        health.mark("m3", HEALTHY)
        monitor = RecencyMonitor(
            paper_memory_backend, clock=lambda: 0.0, sources=health
        )
        monitor.add_rule(WatchRule("quarantine", IDLE, forbid_degraded=True))
        assert monitor.check() == []

    def test_forbid_degraded_alone_is_a_valid_condition(self):
        rule = WatchRule("r", IDLE, forbid_degraded=True)
        assert rule.forbid_degraded
        with pytest.raises(TracError):
            WatchRule("r", IDLE)  # still rejected without any condition

    def test_rules_from_json_parses_forbid_degraded(self):
        rules = rules_from_json(
            '[{"name": "q", "sql": "SELECT mach_id FROM activity", '
            '"forbid_degraded": true}]'
        )
        assert len(rules) == 1
        assert rules[0].forbid_degraded
