"""Chaos acceptance test: a seeded fault plan against a supervised grid.

The contract under test is the PR's headline guarantee: every source the
plan silences ends up flagged by the recency report — as supervisor-degraded
(the watchdog path) or as z-score exceptional (the statistics path) — and no
healthy source is ever falsely flagged. And because both the simulation and
the fault plan are seeded, two identical runs must agree bit-for-bit on the
flagged sets, the injected-fault counts and the heartbeat table.

A statistics subtlety drives the test topology: with population statistics
the largest |z| a lone outlier among ``n`` values can reach is
``sqrt(n - 1)``, so with 10 sources and the default threshold 3.0 a single
frozen source can *never* be z-flagged (sqrt(9) = 3 only in the degenerate
all-others-equal case). The main test therefore exercises the watchdog
(degraded) path, and a separate 16-machine test (sqrt(15) = 3.87) exercises
the pure z-score path with no watchdog at all.
"""

from repro.core.report import RecencyReporter
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig

IDLE_SQL = "SELECT mach_id FROM activity WHERE value = 'idle'"


def make_plan() -> FaultPlan:
    return (
        FaultPlan(seed=11)
        .silence("m3", start=150.0)
        .silence("m7", start=200.0)
        .poll_error("m2", probability=0.2)
    )


def run_chaos():
    """One seeded 500-second chaos run; returns everything we assert on."""
    sim = GridSimulator(
        SimulationConfig(num_machines=10, seed=5),
        fault_plan=make_plan(),
        silence_timeout=90.0,
    )
    sim.run(500.0)
    reporter = RecencyReporter(
        sim.backend, create_temp_tables=False, sources=sim.sources
    )
    try:
        report = reporter.report(IDLE_SQL, method="naive")
    finally:
        reporter.close()
    return sim, report


class TestChaosAcceptance:
    def test_silenced_sources_flagged_no_false_positives(self):
        sim, report = run_chaos()
        silenced = sim.fault_plan.silenced_sources()
        assert silenced == {"m3", "m7"}

        suspect = report.suspect_sources
        # Every plan-silenced source is reported exceptional or degraded.
        assert silenced <= suspect, (
            f"silenced {silenced} not all flagged; suspect={suspect}"
        )
        # Zero false positives: no healthy source is flagged. m2 suffered
        # transient poll errors but the retry ladder must have healed it.
        healthy = set(sim.machine_ids) - silenced
        assert not healthy & suspect, f"healthy sources flagged: {healthy & suspect}"

        # The silenced sources were caught by the watchdog, not by luck.
        assert set(sim.sources.degraded()) == silenced
        for mid in silenced:
            assert "silent source" in sim.supervisors[mid].record.reason
        assert not sim.supervisors["m2"].degraded
        assert sim.fault_plan.injected.get("poll_error", 0) > 0

        # The report names the degraded sources in its notices.
        assert any("Degraded data sources" in n for n in report.notices())

    def test_runs_are_bit_for_bit_deterministic(self):
        runs = []
        for _ in range(2):
            sim, report = run_chaos()
            runs.append(
                {
                    "suspect": frozenset(report.suspect_sources),
                    "degraded": tuple(sim.sources.degraded()),
                    "injected": dict(sim.fault_plan.injected),
                    "heartbeats": {
                        mid: dict(sim.backend.heartbeat_rows()).get(mid) for mid in sim.machine_ids
                    },
                    "retries": {
                        mid: sup.record.retries for mid, sup in sim.supervisors.items()
                    },
                    "restarts": {
                        mid: sup.record.restarts for mid, sup in sim.supervisors.items()
                    },
                }
            )
        assert runs[0] == runs[1]


class TestZScorePath:
    def test_lone_silent_source_among_sixteen_is_exceptional(self):
        """With no watchdog at all, the paper's own z-score statistics must
        flag the frozen source — possible only because sqrt(16 - 1) > 3."""
        plan = FaultPlan(seed=11).silence("m5", start=60.0)
        sim = GridSimulator(
            SimulationConfig(num_machines=16, seed=5),
            fault_plan=plan,
        )
        sim.run(500.0)
        reporter = RecencyReporter(sim.backend, create_temp_tables=False)
        try:
            report = reporter.report(IDLE_SQL, method="naive")
        finally:
            reporter.close()
        exceptional = {s.source_id for s in report.split.exceptional}
        assert exceptional == {"m5"}
        # No supervisor gave up: this is pure statistics, not supervision.
        assert sim.sources.degraded() == []
