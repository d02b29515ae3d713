#!/usr/bin/env python
"""Fault-tolerant shard federation: partial failure degrades, never fails.

The paper's deployment assumes one monitoring database; real grids shard
it. This tour runs three shard servers (each a grid partition behind a
length-prefixed JSON RPC socket), federates a recency report across them,
then breaks things: a dead shard is *named* in the report's completeness
metadata instead of hanging the query; a stale cached fragment can stand
in (with its age disclosed); and a restarted shard rejoins to restore full
completeness. The split itself is computed once, globally — a federated
report over healthy shards is identical to a single-process report over
the union of the same sources (see tests/federation/test_differential.py).

Run:  python examples/federation_tour.py
"""

import time

from repro.federation import FederationCoordinator, ShardRegistry, ShardServer
from repro.grid.simulator import SimulationConfig

SQL = "SELECT * FROM activity WHERE value = 'busy'"
SEED = 2006
PER_SHARD = 2


def launch(shard_id: str, index: int) -> ShardServer:
    # Disjoint machine-id ranges: shard k owns m{2k+1}, m{2k+2}.
    config = SimulationConfig(
        num_machines=PER_SHARD,
        seed=SEED + index,
        machine_id_start=index * PER_SHARD + 1,
    )
    shard = ShardServer(shard_id, config)
    shard.server.start()
    # Deterministic tour: step the partition's simulator directly instead
    # of running the wall-clock stepping thread.
    with shard._lock:
        for _ in range(120):
            shard.sim.step()
    return shard


def show(report) -> None:
    print(
        f"  shards: {report.shards_ok}/{report.shards_total} ok"
        f"  complete={report.complete}"
        f"  missing={report.missing_shards}"
        f"  elapsed={report.timings.total:.2f}s"
    )
    print(f"  relevant sources: {sorted(report.relevant_source_ids)}")
    for line in report.notices():
        print(f"  {line}")


def main() -> None:
    print("--- Part 1: three shards, one federated report ---")
    shards = [launch(f"s{k}", k) for k in range(3)]
    registry = ShardRegistry()
    for shard in shards:
        registry.register(shard.host, shard.port)
    print(f"  registered: {[info.shard_id for info in registry.shards()]}")
    print(f"  union of machines: {registry.machines()}")

    coordinator = FederationCoordinator(
        registry,
        deadline=2.0,          # the report answers inside this, no matter what
        attempt_timeout=0.5,   # per-RPC budget
        retries=1,             # bounded retry with backoff + seeded jitter
        hedge_delay=0.25,      # a straggler gets a second request racing it
        breaker_threshold=3,   # repeated failures stop connection attempts...
        breaker_reset=0.5,     # ...until a half-open probe is allowed through
        stale_fallback=True,   # a dead shard's last fragment may stand in
        stale_max_age=60.0,
    )
    report = coordinator.report(SQL)
    show(report)

    print("\n--- Part 2: kill a shard; the report degrades, never hangs ---")
    shards[2].close()  # s2 is gone: connections to it are refused
    coordinator.stale_fallback = False  # first, the honest answer
    started = time.monotonic()
    report = coordinator.report(SQL)
    print(f"  (answered {time.monotonic() - started:.2f}s after the kill)")
    show(report)

    print("\n--- Part 3: stale fallback discloses its age ---")
    coordinator.stale_fallback = True  # now allow the cached fragment
    report = coordinator.report(SQL)
    show(report)
    print(f"  stale shards: {list(report.stale_shards)}")

    print("\n--- Part 4: restart and rejoin restores completeness ---")
    # The repeated failures opened s2's circuit breaker: the coordinator
    # stops burning its deadline on connection attempts to a known-dead
    # shard until the reset timeout lets a half-open probe through.
    print(f"  s2 breaker after the failures: {coordinator._breaker('s2').state}")
    replacement = launch("s2", 2)
    registry.register(replacement.host, replacement.port)
    shards[2] = replacement
    time.sleep(0.6)  # past breaker_reset: the next call is the probe
    report = coordinator.report(SQL)
    show(report)
    print(f"  s2 breaker after the rejoin: {coordinator._breaker('s2').state}")

    status = coordinator.federation_status()
    print(
        f"\n  federation status: {status['shards_ok']}/{status['shards_total']} ok, "
        f"{status['reports_total']} reports ({status['partial_reports']} partial)"
    )
    coordinator.close()  # drops the pooled shard connections
    for shard in shards:
        shard.close()
    print("done: partial failure is a degraded report, not a failed one")


if __name__ == "__main__":
    main()
