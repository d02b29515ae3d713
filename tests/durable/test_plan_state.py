"""The fault plan's state is checkpointed with the simulator's RNG.

A run stopped cleanly at any checkpoint epoch and resumed makes the same
fault decisions as the uninterrupted run: one-shot triggers stay spent, the
probabilistic streams continue where they stopped, ``injected`` carries over.
"""

import pytest

from repro import MemoryBackend
from repro.durable import DurabilityManager, DurabilityPolicy, recover
from repro.durable.checkpoint import latest_valid_checkpoint, write_checkpoint
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig

DURATION = 300.0
INTERVAL = 50.0


def make_plan():
    # A fresh plan per simulator: its triggers and streams are stateful.
    return (
        FaultPlan(seed=3)
        .poll_error("m2", at=[50])
        .backend_error("m3", op="heartbeat", at=[40])
        .drop_records("m1", probability=0.3)
    )


def make_sim(directory, resume=False, planned=True):
    policy = DurabilityPolicy(fsync="never", checkpoint_interval=INTERVAL)
    manager = DurabilityManager(str(directory), policy=policy, resume=resume)
    return GridSimulator(
        SimulationConfig(num_machines=4, seed=5),
        fault_plan=make_plan() if planned else None,
        durability=manager,
    )


def outcome(sim):
    """What the run did: the plan's counts, the ladder's, the five tables."""
    tables = {
        schema.name: sorted(sim.backend.execute(f"SELECT * FROM {schema.name}").rows)
        for schema in sim.catalog.monitored_tables()
    }
    tables["heartbeat"] = sorted(sim.backend.heartbeat_rows())
    assert len(tables) == 5
    records = sim.sources.snapshot()
    counters = {mid: (records[mid].retries, records[mid].restarts) for mid in sim.machine_ids}
    return dict(sim.fault_plan.injected), counters, tables


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    sim = make_sim(tmp_path_factory.mktemp("oracle"))
    sim.run(DURATION)
    sim.durability.close(sim.now)
    injected, counters, _ = result = outcome(sim)
    assert injected["poll_error"] == injected["backend_heartbeat"] == 1
    assert injected["drop_records"] > 0
    assert counters["m2"] == counters["m3"] == (1, 0)
    return result


@pytest.mark.parametrize("cut", [50.0, 100.0, 150.0, 200.0, 250.0])
def test_a_clean_stop_and_resume_makes_the_uninterrupted_runs_decisions(
    tmp_path, uninterrupted, cut
):
    sim = make_sim(tmp_path)
    sim.run(cut)
    assert sim.now == cut
    # Only the ladder's mechanism state (backoff timers) is not checkpointed:
    # cut where none is pending.
    assert {record.status for record in sim.sources.snapshot().values()} == {"healthy"}
    sim.durability.close(sim.now)  # the final checkpoint carries the plan's state

    resumed = make_sim(tmp_path, resume=True)
    assert resumed.now == cut
    assert resumed.fault_plan.injected == sim.fault_plan.injected
    resumed.run(DURATION - resumed.now)
    resumed.durability.close(resumed.now)
    injected, counters, tables = outcome(resumed)
    # A scripted trigger older than the checkpoint never fires twice.
    assert injected["poll_error"] == injected["backend_heartbeat"] == 1
    assert (injected, counters) == uninterrupted[:2]
    assert tables == uninterrupted[2]


def test_a_checkpoint_without_the_plan_key_resumes_with_a_fresh_plan_state(tmp_path):
    """A directory the parent wrote: no ``fault_plan`` block in the state."""
    sim = make_sim(tmp_path)
    sim.run(150.0)
    sim.durability.close(sim.now)
    epoch, state, _ = latest_valid_checkpoint(str(tmp_path))
    assert set(state.pop("fault_plan")) == {"fired", "rngs", "injected"}
    write_checkpoint(str(tmp_path), epoch, state)

    resumed = make_sim(tmp_path, resume=True)
    assert resumed.now == 150.0 and resumed.fault_plan.injected == {}
    resumed.run(50.0)
    resumed.durability.close(resumed.now)
    # Fresh state: the two old triggers are due again (the parent's behaviour).
    assert resumed.fault_plan.injected["poll_error"] == 1


def test_a_poll_failed_at_a_checkpoint_is_journaled_again_after_it(tmp_path):
    """The poll's frame reaches the WAL, its backend write fails, and the
    tick's checkpoint records the un-advanced offset before the retry: the
    retry must land in the new segment, or recovery meets a gap."""
    policy = DurabilityPolicy(fsync="never", checkpoint_interval=10_000.0)
    plan = FaultPlan(seed=0).backend_error("m3", op="heartbeat", at=[40])
    sim = GridSimulator(
        SimulationConfig(num_machines=4, seed=5),
        fault_plan=plan,
        durability=DurabilityManager(str(tmp_path), policy=policy),
    )
    while "backend_heartbeat" not in plan.injected:
        sim.step()
    offset = sim.sniffers["m3"].offset
    assert sim.durability.checkpoint(sim.now)  # the end of the failing tick
    assert latest_valid_checkpoint(str(tmp_path))[1]["ingest"]["offsets"]["m3"] == offset
    sim.run(30.0)  # past the supervisor's retry
    assert sim.sniffers["m3"].offset > offset and sim.sources.snapshot()["m3"].retries == 1
    sim.durability.close(final_checkpoint=False)
    live = outcome(sim)[2]

    rebuilt = MemoryBackend(sim.catalog)
    recover(str(tmp_path), backend=rebuilt)
    resumed = make_sim(tmp_path, resume=True, planned=False)
    for backend in (rebuilt, resumed.backend):
        assert sorted(backend.heartbeat_rows()) == live["heartbeat"]
        for name in ("activity", "routing", "sched_jobs", "run_jobs"):
            assert sorted(backend.execute(f"SELECT * FROM {name}").rows) == live[name]
    resumed.durability.close(final_checkpoint=False)


def test_a_run_without_a_plan_checkpoints_no_plan_key(tmp_path):
    sim = make_sim(tmp_path, planned=False)
    sim.run(60.0)
    sim.durability.close(sim.now)
    assert "fault_plan" not in latest_valid_checkpoint(str(tmp_path))[1]
