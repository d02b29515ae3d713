"""RPC chaos under live shards: the coordinator degrades, it does not fail.

Random ``rpc_*`` plans (dropped, delayed, duplicated and garbage replies,
by probability on every shard plus one scripted hit on ``s0``) go live
under in-process shard servers before the last shard's hello, which is
retried as an operator would, and while a coordinator reports across them.
The plan round-trips through JSON; the coordinator never raises, answers
within its deadline (+0.5 s), its completeness arithmetic adds up, and it
names no source outside the registered union.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import RPC_KINDS, FaultPlan, plan_from_json
from repro.federation import FederationCoordinator, ShardRegistry, ShardServer
from repro.federation.rpc import RPCError
from repro.grid.simulator import SimulationConfig

SQL = "SELECT mach_id FROM activity WHERE value = 'idle'"
DEADLINE = 0.6
REPORTS = 8
#: Hellos to the last shard under the live rules before the test gives up.
HELLOS = 20

_seed = st.integers(0, 2**16)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    probabilities=st.tuples(*[st.none() | st.floats(0.05, 0.35) for _ in RPC_KINDS]),
    scripted=st.tuples(st.sampled_from(RPC_KINDS), st.floats(0.0, 5.0)),
    shards=st.integers(2, 3),
    per_shard=st.integers(2, 3),
    seeds=st.tuples(_seed, _seed),
)
def test_coordinator_degrades_under_rpc_chaos(probabilities, scripted, shards, per_shard, seeds):
    plan_seed, coordinator_seed = seeds
    plan = FaultPlan(seed=plan_seed)
    servers, registry, coordinator = [], ShardRegistry(), None
    try:
        for k in range(shards):
            first = k * per_shard + 1
            config = SimulationConfig(per_shard, seed=plan_seed + k, machine_id_start=first)
            servers.append(ShardServer(f"s{k}", config, fault_plan=plan).start())
            # A delayed reply stalls for half the deadline.
            servers[-1].server.fault_delay = DEADLINE / 2
        for server in servers[:-1]:
            registry.register(server.host, server.port)
        for kind, probability in zip(RPC_KINDS, probabilities):
            if probability is not None:
                plan.rpc_fault("*", kind, probability=probability)
        plan.rpc_fault("s0", scripted[0], at=[scripted[1]])
        for attempt in range(HELLOS):
            try:
                registry.register(servers[-1].host, servers[-1].port, timeout=DEADLINE)
                break
            except RPCError:
                assert attempt < HELLOS - 1, plan.to_json()
        assert plan_from_json(plan.to_json()).to_json() == plan.to_json()
        union = set(registry.machines())
        coordinator = FederationCoordinator(
            registry,
            deadline=DEADLINE,
            attempt_timeout=0.15,
            retries=2,
            hedge_delay=0.1,
            breaker_threshold=5,
            breaker_reset=0.5,
            seed=coordinator_seed,
        )
        for _ in range(REPORTS):
            started = time.monotonic()
            report = coordinator.report(SQL)
            elapsed = time.monotonic() - started
            assert elapsed <= DEADLINE + 0.5, (elapsed, plan.to_json())
            assert report.shards_ok + len(report.missing_shards) == report.shards_total
            assert report.relevant_source_ids <= union, report.relevant_source_ids - union
    finally:
        if coordinator is not None:
            coordinator.close()
        for server in servers:
            server.close()
