"""Pooled, persistent shard connections under the coordinator's selector loop.

What changed when the fan-out stopped paying a thread and a TCP connect
per RPC: sockets now outlive requests, so these tests pin the rules that
keep a long-lived socket honest — request ids, the stale-socket rule, who
closes what — and that the pool and the loop leave nothing behind.
"""

import os
import sys
import threading
import time

import pytest

from repro.federation import (
    FederationCoordinator,
    RPCTimeout,
    ShardInfo,
    ShardRegistry,
    ShardServer,
    rpc,
)
from repro.federation.coordinator import _FanOut
from repro.federation.rpc import RPCServer
from repro.grid.simulator import SimulationConfig
from repro.obs import Telemetry

SQL = "SELECT * FROM activity WHERE value = 'busy'"
REQUEST = {"op": "fragment", "mode": "all", "subqueries": []}


class Counting:
    """A fragment-shaped handler that numbers its replies and can misbehave:
    ``faults[k]`` is the fault kind injected on the k-th request received,
    ``slow[n]`` the seconds the n-th reply (both 1-based) takes to compute."""

    def __init__(self, faults=None, slow=None):
        self.faults = faults or {}
        self.slow = slow or {}
        self.received = 0
        self.seen = 0
        self.requests = []

    def fault_hook(self, request):
        self.received += 1
        return self.faults.get(self.received)

    def __call__(self, request):
        self.seen += 1
        n = self.seen
        self.requests.append(request)
        time.sleep(self.slow.get(n, 0.0))
        return {"ok": True, "shard_id": "s0", "mode": "all", "n": n,
                "results": [], "guards": {}, "degraded": []}


@pytest.fixture
def one_shard():
    """``start(handler, **coordinator_kwargs)`` -> (server, coordinator, ask)."""
    made = []

    def start(handler, idle_timeout=None, **kwargs):
        server = RPCServer(handler, fault_hook=handler.fault_hook, fault_delay=0.05)
        if idle_timeout is not None:
            server.idle_timeout = idle_timeout
        server.start()
        registry = ShardRegistry()
        registry.add(ShardInfo("s0", server.host, server.port, ["m1"]))
        defaults = dict(deadline=3.0, attempt_timeout=1.0, retries=1, hedge_delay=None)
        defaults.update(kwargs)
        coordinator = FederationCoordinator(registry, **defaults)
        made.append((server, coordinator))
        info = registry.shards()[0]

        def ask():
            # A one-shard fan-out: the reply, or None when the shard is unreachable.
            fan_out = _FanOut(coordinator, REQUEST, time.monotonic() + 3.0)
            return fan_out.run([info]).get(info.shard_id)

        return server, coordinator, ask

    yield start
    for server, coordinator in made:
        coordinator.close()
        server.stop()


def settled_shard(shard_id, start):
    config = SimulationConfig(num_machines=2, seed=5, machine_id_start=start)
    shard = ShardServer(shard_id, config)
    shard.server.start()  # the acceptor only: the data stands still
    with shard._lock:
        for _ in range(60):
            shard.sim.step()
    return shard


@pytest.fixture
def pair():
    shards = [settled_shard(f"s{k}", k * 2 + 1) for k in range(2)]
    registry = ShardRegistry()
    for shard in shards:
        registry.register(shard.host, shard.port)
    coordinator = FederationCoordinator(registry, deadline=3.0, attempt_timeout=1.0, retries=0)
    try:
        yield shards, registry, coordinator
    finally:
        coordinator.close()
        for shard in shards:
            shard.close()


def split_key(report):
    return (
        [(s.source_id, s.recency) for s in report.normal_sources],
        [(s.source_id, s.recency) for s in report.exceptional_sources],
    )


class TestPersistentConnections:
    def test_a_hundred_requests_ride_one_connection(self, one_shard):
        handler = Counting()
        server, _, ask = one_shard(handler)
        replies = [ask() for _ in range(100)]
        assert [reply["n"] for reply in replies] == list(range(1, 101))
        assert server.accepted == 1

    def test_requests_carry_an_id_and_no_trace_context_when_telemetry_is_off(self, one_shard):
        handler = Counting()
        _, _, ask = one_shard(handler)
        ask(), ask()
        first, second = handler.requests
        assert first["id"] != second["id"]
        assert "traceparent" not in first
        assert {key: first[key] for key in REQUEST} == REQUEST  # only the envelope grew

    def test_duplicate_reply_does_not_answer_the_next_request(self, one_shard):
        handler = Counting(faults={1: "rpc_duplicate"})
        server, _, ask = one_shard(handler)
        assert ask()["n"] == 1  # its twin is left sitting on the pooled socket
        assert ask()["n"] == 2  # ...and is discarded by id, not taken as the answer
        assert ask()["n"] == 3
        assert server.accepted == 1

    @pytest.mark.parametrize("kind", ["rpc_drop", "rpc_garbage"])
    def test_poisoned_pooled_socket_is_closed_and_the_retry_connects_afresh(self, one_shard, kind):
        handler = Counting(faults={2: kind})
        server, coordinator, ask = one_shard(handler)
        assert ask()["n"] == 1
        reply = ask()  # the fault hits the pooled socket; the retry must not reuse it
        assert reply is not None and reply["ok"]
        assert server.accepted == 2
        assert ask() is not None
        assert server.accepted == 2  # the fresh socket was pooled in its place

    def test_idle_close_by_the_server_is_not_the_shards_fault(self, one_shard):
        handler = Counting()
        server, coordinator, ask = one_shard(handler, idle_timeout=0.05, retries=0)
        assert ask()["n"] == 1
        time.sleep(0.3)  # the server hangs up on the pooled socket
        reply = ask()  # retries=0: a charged failure would have returned None
        assert reply is not None and reply["n"] == 2
        assert server.accepted == 2
        assert coordinator._breaker("s0").consecutive_failures == 0

    def test_hedge_loser_is_closed_not_pooled(self, one_shard):
        handler = Counting(slow={1: 0.6})
        server, coordinator, ask = one_shard(handler, hedge_delay=0.1)
        started = time.monotonic()
        assert ask()["n"] == 2  # the hedge answered; request 1 is still asleep
        assert time.monotonic() - started < 0.5
        assert server.accepted == 2
        idle = coordinator._pool._idle[(server.host, server.port)]
        assert len(idle) == 1  # the winner; the straggler's socket was closed
        time.sleep(0.7)  # request 1 wakes and answers into a closed socket
        assert ask()["n"] == 3

    def test_restarted_shard_on_a_new_port_is_reached_after_reregister(self, pair):
        shards, registry, coordinator = pair
        assert coordinator.report(SQL).complete
        shards[1].close()
        shards[1] = settled_shard("s1", 3)  # same id, new ephemeral port
        registry.register(shards[1].host, shards[1].port)
        report = coordinator.report(SQL)  # retries=0: a stale socket would show
        assert report.complete
        assert coordinator._breaker("s1").consecutive_failures == 0

    def test_stop_retires_the_connection_threads(self, one_shard):
        before = threading.active_count()
        server, _, ask = one_shard(Counting())
        ask()
        assert threading.active_count() == before + 2  # the acceptor + one connection
        server.stop()
        deadline = time.monotonic() + 2.0
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before


class TestNothingLeftBehind:
    def test_no_threads_or_descriptors_per_report(self, pair):
        _, _, coordinator = pair
        coordinator.report(SQL)  # warm: one pooled socket per shard from here on
        threads = threading.active_count()
        descriptors = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            assert coordinator.report(SQL).complete
        assert threading.active_count() == threads
        assert len(os.listdir("/proc/self/fd")) == descriptors

    def test_a_default_coordinator_keeps_no_fragment(self, pair):
        # Without the stale fallback nothing reads a last-good fragment.
        _, _, coordinator = pair
        assert coordinator.stale_fallback is False
        for _ in range(50):
            assert coordinator.report(SQL).complete
        assert len(coordinator._fragments) == 0

    def test_close_drops_the_pool_and_the_coordinator_stays_usable(self, pair):
        shards, _, coordinator = pair
        coordinator.report(SQL)
        coordinator.close()
        assert coordinator._pool._idle == {}
        assert coordinator.report(SQL).complete
        assert all(shard.server.accepted == 3 for shard in shards)  # hello + 2 connects


class TestPlanMemo:
    def test_plan_is_reused_until_the_machine_set_changes(self, pair):
        shards, registry, coordinator = pair
        plan = coordinator.plan_for(SQL)
        assert coordinator.plan_for(SQL) is plan
        registry.register(shards[0].host, shards[0].port)  # same machines: still valid
        assert coordinator.plan_for(SQL) is plan
        registry.add(ShardInfo("s9", shards[0].host, shards[0].port, ["m9"]))
        replanned = coordinator.plan_for(SQL)
        assert replanned is not plan
        registry.remove("s9")
        assert coordinator.plan_for(SQL) is not replanned

    def test_a_heartbeat_that_swaps_a_machine_replans_over_the_new_union(self):
        machines = ["m1", "m2"]

        def shard(request):
            return {"ok": True, "shard_id": "s0", "machines": list(machines), "recency": {}}

        with RPCServer(shard).start() as server:
            registry = ShardRegistry()
            registry.register(server.host, server.port)
            coordinator = FederationCoordinator(registry)
            sql = "SELECT * FROM activity WHERE mach_id = 'm3'"
            plan = coordinator.plan_for(sql)
            assert plan.mode == "empty"  # m3 lies outside the union
            registry.refresh(timeout=2.0)  # the same machines: the memo holds
            assert coordinator.plan_for(sql) is plan
            machines[1] = "m3"  # as many machines as before, one of them new
            registry.refresh(timeout=2.0)
            replanned = coordinator.plan_for(sql)
        assert replanned.mode != "empty"
        assert coordinator._planned[1] == ("m1", "m3")


class TestConcurrentReports:
    def test_four_callers_stay_split_identical_and_count_exactly(self, pair):
        _, _, coordinator = pair
        expected = split_key(coordinator.report(SQL))
        wrong = []

        def caller():
            for _ in range(25):
                report = coordinator.report(SQL)
                if not report.complete or split_key(report) != expected:
                    wrong.append(report)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make a lost update likely if one is possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert coordinator.reports_total == 101
        assert coordinator.partial_reports == 0


class TestTraceContext:
    def test_shard_side_spans_join_the_reports_trace(self):
        telemetry = Telemetry()
        config = SimulationConfig(num_machines=2, seed=5, machine_id_start=1)
        shard = ShardServer("s0", config, telemetry=telemetry)
        shard.server.start()
        registry = ShardRegistry()
        registry.register(shard.host, shard.port)
        coordinator = FederationCoordinator(registry, telemetry=telemetry)
        try:
            report = coordinator.report(SQL)
        finally:
            coordinator.close()
            shard.close()
        assert report.trace_id is not None
        spans = {span.name: span for span in telemetry.tracer.spans_for_trace(report.trace_id)}
        assert {"federation.report", "federation.fragment"} <= set(spans)
        assert spans["federation.fragment"].parent_id == spans["federation.report"].span_id
        assert spans["federation.fragment"].attributes["shard"] == "s0"


class TestTimeoutType:
    def test_one_shot_call_raises_rpc_timeout(self):
        handler = Counting(slow={1: 0.5})
        server = RPCServer(handler).start()
        try:
            with pytest.raises(RPCTimeout):
                rpc.call(server.host, server.port, {"op": "x"}, timeout=0.1)
        finally:
            server.stop()
