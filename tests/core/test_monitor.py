"""Watch-rule / alerting tests for the monitoring layer."""

import pytest

from repro.core.monitor import RecencyMonitor, WatchRule
from repro.errors import TracError
from repro.grid import GridSimulator, SimulationConfig

IDLE = "SELECT mach_id FROM activity WHERE value = 'idle'"


class TestWatchRuleValidation:
    def test_needs_a_name(self):
        with pytest.raises(TracError):
            WatchRule("", IDLE, max_staleness=1.0)

    def test_needs_a_condition(self):
        with pytest.raises(TracError):
            WatchRule("r", IDLE)

    def test_duplicate_rule_rejected(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend)
        monitor.add_rule(WatchRule("r", IDLE, max_staleness=1.0))
        with pytest.raises(TracError):
            monitor.add_rule(WatchRule("r", IDLE, max_staleness=2.0))


class TestConditions:
    """Against the conftest paper data: normal sources span 20 minutes;
    m2 is a month stale (exceptional)."""

    def test_inconsistency_bound_trips(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(WatchRule("tight", IDLE, max_inconsistency=60.0))
        alerts = monitor.check()
        assert [a.kind for a in alerts] == ["inconsistency"]
        assert "00:20:00" in alerts[0].message

    def test_inconsistency_bound_passes_when_loose(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(WatchRule("loose", IDLE, max_inconsistency=3600.0))
        assert monitor.check() == []

    def test_staleness_trips_relative_to_clock(self, paper_memory_backend):
        from tests.conftest import BASE_TIME

        monitor = RecencyMonitor(
            paper_memory_backend, clock=lambda: BASE_TIME + 2 * 3600.0
        )
        monitor.add_rule(WatchRule("fresh", IDLE, max_staleness=600.0))
        alerts = monitor.check()
        assert [a.kind for a in alerts] == ["staleness"]
        assert "m1" in alerts[0].message  # least recent normal source

    def test_exceptional_trips(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(WatchRule("clean", IDLE, forbid_exceptional=True))
        alerts = monitor.check()
        assert [a.kind for a in alerts] == ["exceptional"]
        assert "m2" in alerts[0].message

    def test_require_minimal_trips_on_upper_bound(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(
            WatchRule(
                "exact",
                "SELECT mach_id FROM routing WHERE mach_id = neighbor",
                require_minimal=True,
            )
        )
        alerts = monitor.check()
        assert [a.kind for a in alerts] == ["non_minimal"]

    def test_require_minimal_passes_when_minimal(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(WatchRule("exact", IDLE, require_minimal=True))
        assert monitor.check() == []

    def test_multiple_conditions_can_trip_together(self, paper_memory_backend):
        from tests.conftest import BASE_TIME

        monitor = RecencyMonitor(
            paper_memory_backend, clock=lambda: BASE_TIME + 2 * 3600.0
        )
        monitor.add_rule(
            WatchRule(
                "strict",
                IDLE,
                max_inconsistency=60.0,
                max_staleness=600.0,
                forbid_exceptional=True,
            )
        )
        kinds = sorted(a.kind for a in monitor.check())
        assert kinds == ["exceptional", "inconsistency", "staleness"]

    def test_history_accumulates(self, paper_memory_backend):
        monitor = RecencyMonitor(paper_memory_backend, clock=lambda: 0.0)
        monitor.add_rule(WatchRule("tight", IDLE, max_inconsistency=1.0))
        monitor.check()
        monitor.check()
        assert len(monitor.history) == 2


class TestWithSimulator:
    def test_alert_fires_when_machines_die(self):
        """End to end: a healthy grid passes; after machines fail and time
        passes, the exceptional-source rule trips."""
        sim = GridSimulator(
            SimulationConfig(
                num_machines=30,
                seed=13,
                heartbeat_interval=10.0,
                machine_recover_probability=0.0,
            )
        )
        sim.run(120)
        monitor = RecencyMonitor(sim.backend, clock=lambda: sim.now)
        monitor.add_rule(
            WatchRule("liveness", "SELECT mach_id FROM activity", forbid_exceptional=True)
        )
        assert monitor.check() == []

        sim.machines["m5"].fail()
        sim.run(3600)
        sim.drain()
        alerts = monitor.check()
        assert len(alerts) == 1
        assert "m5" in alerts[0].message


class TestRulesFromJson:
    def test_load_valid_rules(self):
        from repro.core.monitor import rules_from_json

        rules = rules_from_json(
            '[{"name": "r1", "sql": "SELECT mach_id FROM activity", '
            '"max_staleness": 60, "forbid_exceptional": true}]'
        )
        assert len(rules) == 1
        assert rules[0].name == "r1"
        assert rules[0].max_staleness == 60
        assert rules[0].forbid_exceptional

    def test_malformed_json(self):
        from repro.core.monitor import rules_from_json

        with pytest.raises(TracError):
            rules_from_json("{nope")

    def test_non_list(self):
        from repro.core.monitor import rules_from_json

        with pytest.raises(TracError):
            rules_from_json('{"name": "x"}')

    def test_unknown_field(self):
        from repro.core.monitor import rules_from_json

        with pytest.raises(TracError, match="unknown fields"):
            rules_from_json('[{"name": "r", "sql": "S", "frequency": 5}]')

    def test_missing_name(self):
        from repro.core.monitor import rules_from_json

        with pytest.raises(TracError):
            rules_from_json('[{"sql": "SELECT 1 FROM t"}]')


class TestWatchCli:
    def test_watch_pass_and_trip(self, tmp_path, capsys):
        import json

        from repro.cli import main

        db = str(tmp_path / "g.sqlite")
        assert main(["simulate", "--db", db, "--machines", "4", "--duration", "60"]) == 0
        capsys.readouterr()

        rules_path = tmp_path / "rules.json"
        rules_path.write_text(
            json.dumps(
                [
                    {
                        "name": "liveness",
                        "sql": "SELECT mach_id FROM activity",
                        "max_staleness": 1e9,
                    }
                ]
            )
        )
        # Simulated timestamps live near epoch 0: pin the clock via --now.
        assert main(["watch", "--db", db, "--rules", str(rules_path), "--now", "60"]) == 0
        assert "pass" in capsys.readouterr().out

        strict = tmp_path / "strict.json"
        strict.write_text(
            json.dumps(
                [
                    {
                        "name": "impossible",
                        "sql": "SELECT mach_id FROM activity",
                        "max_staleness": 0.0001,
                    }
                ]
            )
        )
        assert main(["watch", "--db", db, "--rules", str(strict), "--now", "60"]) == 2
        assert "ALERT [staleness]" in capsys.readouterr().out
