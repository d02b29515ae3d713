"""Backend faults against a whole poll: one ``apply_poll`` fails whole.

A sniffer poll reaches the backend as one write — its rows and the
heartbeat they publish. A ``backend_apply`` or ``backend_heartbeat`` fault
is decided before any of it lands, so a failed poll leaves neither rows nor
heartbeat behind, and the supervisor's retry publishes both.
"""

import pytest

from repro import MemoryBackend
from repro.core.sources import BACKING_OFF, HEALTHY
from repro.faults import FaultPlan, FaultyBackend, InjectedFault
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig, event_writes
from repro.grid.supervisor import BASE_BACKOFF, JITTER, SnifferSupervisor


def supervised(plan):
    backend = MemoryBackend(monitoring_catalog(["m1"]))
    sniffer = Sniffer(Machine("m1"), backend, SnifferConfig(poll_interval=5.0, lag=0.0))
    return SnifferSupervisor(sniffer, plan=plan), sniffer, backend


def tables(backend):
    return {
        name: sorted(backend.execute(f"SELECT * FROM {name}").rows)
        for name in ("activity", "run_jobs", "heartbeat")
    }


@pytest.mark.parametrize("op", ["apply", "heartbeat"])
def test_a_failed_poll_lands_nothing_and_the_retry_lands_both(op):
    plan = FaultPlan(seed=0).backend_error("m1", op=op, at=[5.0])
    supervisor, sniffer, backend = supervised(plan)
    sniffer.machine.start_job(1.0, "j1")  # MACHINE_STATE busy + JOB_STARTED
    sniffer.machine.heartbeat(2.0)
    assert supervisor.tick(0.0) == 0  # nothing visible yet: no write at all
    empty = tables(backend)
    assert empty == {"activity": [], "run_jobs": [], "heartbeat": []}

    assert supervisor.tick(5.0) == 0  # the poll that fails
    assert plan.injected == {f"backend_{op}": 1}
    assert supervisor.state == BACKING_OFF
    assert tables(backend) == empty  # neither the rows nor the heartbeat
    assert (sniffer.offset, sniffer.records_loaded, sniffer.record.recency) == (0, 0, -float("inf"))

    # The retry, at the latest moment its jittered backoff can end, re-reads the batch.
    assert supervisor.tick(5.0 + BASE_BACKOFF * (1.0 + JITTER)) == 3
    assert supervisor.state == HEALTHY
    assert tables(backend) == {
        "activity": [("m1", "busy", 1.0)],
        "run_jobs": [("m1", "j1", 1.0)],
        "heartbeat": [("m1", 2.0)],
    }
    assert (sniffer.offset, sniffer.record.recency) == (3, 2.0)


def test_every_decision_is_taken_before_anything_lands():
    """One ``backend_apply`` consultation per write — the decision stream a
    write-at-a-time poll drew — then one ``backend_heartbeat``; the wrapped
    backend is called only after all of them passed."""
    consulted = []

    class Spy(FaultPlan):
        def check(self, kind, source, now):
            consulted.append((kind, len(inner.execute("SELECT * FROM activity").rows)))
            super().check(kind, source, now)

    inner = MemoryBackend(monitoring_catalog(["m1"]))
    machine = Machine("m1")
    machine.start_job(1.0, "j1")
    machine.complete_job(2.0, "j1")  # JOB_COMPLETED + MACHINE_STATE idle
    writes = event_writes(list(machine.log))
    assert [op for op, *_ in writes] == ["upsert", "upsert", "delete", "upsert"]

    plan = Spy(seed=0).backend_error("m1", op="heartbeat", probability=1.0)
    faulty = FaultyBackend(inner, plan, "m1")
    with pytest.raises(InjectedFault):
        faulty.apply_poll(writes, "m1", 2.0)
    assert consulted == [("backend_apply", 0)] * 4 + [("backend_heartbeat", 0)]
    assert tables(inner) == {"activity": [], "run_jobs": [], "heartbeat": []}

    consulted.clear()
    faulty.apply_poll(writes, "m1", None)  # publishes nothing: no heartbeat decision
    assert consulted == [("backend_apply", 0)] * 4
    assert tables(inner)["activity"] == [("m1", "idle", 2.0)]


def test_the_wrapper_does_not_forward_a_poll_past_the_plan():
    """``__getattr__`` forwards what the wrapper does not define: were
    ``apply_poll`` among those, no backend fault would ever fire."""
    assert "apply_poll" in vars(FaultyBackend)
    plan = FaultPlan(seed=0).backend_error("m1", op="heartbeat", probability=1.0)
    faulty = FaultyBackend(MemoryBackend(monitoring_catalog(["m1"])), plan, "m1")
    with pytest.raises(InjectedFault):
        faulty.apply_poll([], "m1", 1.0)
    assert faulty.heartbeat_rows() == []
