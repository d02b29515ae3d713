"""Property test for the paper's heartbeat fix (Section 3.1): a source that
loses every *data* record but whose HEARTBEAT records still get through must
never look out of date — not z-score exceptional, not degraded.

This is exactly the ``drop_records(spare_heartbeats=True)`` fault: the fault
models a lossy pipeline that preserves the liveness signal, and the recency
machinery must honour that signal no matter how lossy the data channel is.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.report import RecencyReporter
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig

IDLE_SQL = "SELECT mach_id FROM activity WHERE value = 'idle'"
TARGET = "m1"


@given(
    drop_probability=st.floats(0.5, 1.0),
    plan_seed=st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_sparing_heartbeats_preserves_liveness(drop_probability, plan_seed):
    plan = FaultPlan(seed=plan_seed).drop_records(
        TARGET, probability=drop_probability, spare_heartbeats=True
    )
    sim = GridSimulator(
        SimulationConfig(num_machines=16, seed=5, heartbeat_interval=20.0),
        fault_plan=plan,
        silence_timeout=90.0,
    )
    sim.run(400.0)

    # The fault really dropped data records for the target source...
    if drop_probability == 1.0:
        assert plan.injected.get("drop_records", 0) > 0

    reporter = RecencyReporter(
        sim.backend, create_temp_tables=False, sources=sim.sources
    )
    try:
        report = reporter.report(IDLE_SQL, method="naive")
    finally:
        reporter.close()

    # ...yet the surviving heartbeats keep its recency current: it is
    # neither statistically exceptional nor supervisor-degraded.
    assert TARGET not in {s.source_id for s in report.split.exceptional}
    assert TARGET not in sim.sources.degraded()
    assert TARGET not in report.suspect_sources
