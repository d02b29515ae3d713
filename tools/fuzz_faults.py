#!/usr/bin/env python
"""Long-running chaos fuzz of the fault-injection + supervision pipeline.

Generates random fault plans against random grid configurations and checks
the chaos invariants on every run:

* every plan-silenced source ends up suspect (supervisor-degraded or
  z-score exceptional) once its silence has lasted past the watchdog limit;
* no source that the plan left untouched is ever degraded;
* sources that only lose *data* records while heartbeats get through
  (``drop_records(spare_heartbeats=True)``) are never flagged at all;
* the same (sim seed, plan) pair reproduces the same degraded set.

Only fault kinds that keep the no-false-positive invariant crisp are drawn
here — silences, heartbeat-sparing drops and duplicates. Poll/backend
errors are exercised by the unit suite instead, because with adversarial
probabilities they can legitimately degrade a source, which would make
"degraded but not silenced" indistinguishable from a bug.

Every run also gets a **durability campaign**: the same simulation runs
again under a :class:`~repro.durable.DurabilityManager` with injected
``wal_append`` and ``checkpoint_write`` faults and lossy delivery
(dropped / duplicated records) on two machines, and afterwards the journal
is recovered into a fresh backend which must reproduce the live database
exactly — durability faults may slow ingest down and delivery faults
change what arrives, but what is journaled is what was applied.

And a **federation campaign**: random ``rpc_*`` fault plans (dropped,
delayed, duplicated and garbage frames) run under live shard servers
while a :class:`~repro.federation.FederationCoordinator` reports across
them — the coordinator must never raise, never blow its deadline, and
its completeness metadata must always add up.

Intended for occasional deep verification (e.g. a nightly job)::

    python tools/fuzz_faults.py [num-runs]
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile

from repro.core.report import RecencyReporter
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig

DURATION = 400.0
SILENCE_TIMEOUT = 90.0
IDLE_SQL = "SELECT mach_id FROM activity WHERE value = 'idle'"


def random_plan(rng: random.Random, machine_ids) -> FaultPlan:
    plan = FaultPlan(seed=rng.randrange(2**16))
    silenced = rng.sample(machine_ids, k=rng.randint(1, max(1, len(machine_ids) // 4)))
    for mid in silenced:
        # Leave enough runway for the watchdog to notice before the end.
        plan.silence(mid, start=rng.uniform(50.0, DURATION - 2 * SILENCE_TIMEOUT))
    lossy = [m for m in machine_ids if m not in silenced]
    for mid in rng.sample(lossy, k=min(2, len(lossy))):
        if rng.random() < 0.5:
            plan.drop_records(mid, probability=rng.uniform(0.3, 1.0), spare_heartbeats=True)
        else:
            plan.duplicate_records(mid, probability=rng.uniform(0.1, 0.5))
    return plan


def run_once(rng: random.Random, run_index: int) -> None:
    num_machines = rng.randint(8, 20)
    sim_seed = rng.randrange(2**16)
    config = SimulationConfig(num_machines=num_machines, seed=sim_seed)
    probe = GridSimulator(config)  # only to learn the machine ids
    plan = random_plan(rng, probe.machine_ids)

    def simulate():
        sim = GridSimulator(
            SimulationConfig(num_machines=num_machines, seed=sim_seed),
            fault_plan=plan_from_clone(),
            silence_timeout=SILENCE_TIMEOUT,
        )
        sim.run(DURATION)
        return sim

    def plan_from_clone():
        # A fresh plan per run: RNG streams and one-shot triggers are stateful.
        from repro.faults import plan_from_json

        return plan_from_json(plan.to_json())

    sim = simulate()
    silenced = plan.silenced_sources()
    reporter = RecencyReporter(sim.backend, create_temp_tables=False, sources=sim.sources)
    try:
        report = reporter.report(IDLE_SQL, method="naive")
    finally:
        reporter.close()

    suspect = report.suspect_sources
    missing = silenced - suspect
    if missing:
        raise AssertionError(
            f"run {run_index}: silenced sources not flagged: {sorted(missing)} "
            f"(machines={num_machines}, sim_seed={sim_seed}, plan={plan.to_json()})"
        )
    degraded = set(sim.sources.degraded())
    false_degraded = degraded - silenced
    if false_degraded:
        raise AssertionError(
            f"run {run_index}: untouched sources degraded: {sorted(false_degraded)} "
            f"(machines={num_machines}, sim_seed={sim_seed}, plan={plan.to_json()})"
        )

    repeat = simulate()
    if set(repeat.sources.degraded()) != degraded:
        raise AssertionError(
            f"run {run_index}: non-deterministic degraded set "
            f"(machines={num_machines}, sim_seed={sim_seed}, plan={plan.to_json()})"
        )
    print(
        f"run {run_index}: ok machines={num_machines} silenced={sorted(silenced)} "
        f"degraded={sorted(degraded)} injected={plan_totals(sim)}"
    )


def plan_totals(sim: GridSimulator) -> str:
    counts = sim.fault_plan.injected
    return ",".join(f"{k}={v}" for k, v in sorted(counts.items())) or "none"


def run_durability_once(rng: random.Random, run_index: int) -> None:
    """Chaos the durability layer itself, then prove recovery is lossless.

    Journal-side faults (``wal_append`` retried by the supervisor,
    ``checkpoint_write`` absorbed by the manager) and delivery faults
    (records dropped or duplicated between the log and the sniffer — the
    journal holds what was delivered) are injected; backend faults are
    excluded because a batch that is journaled but only partly applied
    *legitimately* makes the journal richer than the live DB.
    """
    from repro.backends.memory import MemoryBackend
    from repro.durable import DurabilityManager, DurabilityPolicy, recover
    from repro.grid.simulator import monitoring_catalog

    num_machines = rng.randint(4, 10)
    sim_seed = rng.randrange(2**16)
    plan = FaultPlan(seed=rng.randrange(2**16))
    plan.durability_error("*", op="wal", probability=rng.uniform(0.02, 0.15))
    plan.durability_error("*", op="checkpoint", probability=rng.uniform(0.1, 0.5))
    dropping, duplicating = rng.sample(range(1, num_machines + 1), k=2)
    plan.drop_records(f"m{dropping}", probability=rng.uniform(0.3, 1.0))
    plan.duplicate_records(f"m{duplicating}", probability=rng.uniform(0.1, 0.5))

    data_dir = tempfile.mkdtemp(prefix="fuzz-durable-")
    try:
        manager = DurabilityManager(
            data_dir,
            policy=DurabilityPolicy(fsync="always", checkpoint_interval=30.0),
        )
        sim = GridSimulator(
            SimulationConfig(num_machines=num_machines, seed=sim_seed),
            fault_plan=plan,
            durability=manager,
        )
        sim.run(200.0)
        manager.close(sim.now, final_checkpoint=False)

        fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
        recovered = recover(data_dir, backend=fresh)
        for schema in sim.catalog.monitored_tables():
            sql = f"SELECT * FROM {schema.name}"
            live = sorted(map(tuple, sim.backend.execute(sql).rows))
            rebuilt = sorted(map(tuple, fresh.execute(sql).rows))
            if live != rebuilt:
                raise AssertionError(
                    f"run {run_index}: recovery diverged on {schema.name} "
                    f"(machines={num_machines}, sim_seed={sim_seed}, "
                    f"plan={plan.to_json()})"
                )
        if sorted(sim.backend.heartbeat_rows()) != sorted(fresh.heartbeat_rows()):
            raise AssertionError(
                f"run {run_index}: recovery diverged on heartbeats "
                f"(machines={num_machines}, sim_seed={sim_seed}, plan={plan.to_json()})"
            )
        injected = ",".join(f"{k}={v}" for k, v in sorted(plan.injected.items())) or "none"
        print(
            f"run {run_index}: durability ok machines={num_machines} "
            f"checkpoints={manager.checkpoints_written}"
            f"+{manager.checkpoint_failures}failed "
            f"replayed={recovered.replayed_events} injected={injected}"
        )
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def run_federation_once(rng: random.Random, run_index: int) -> None:
    """Chaos the shard RPC transport, then prove the coordinator degrades.

    Random ``rpc_*`` fault plans (all four kinds, probabilistic and
    scripted) are injected under the shard servers' protocol layer. The
    invariants: the coordinator never raises and never blows its deadline
    no matter what the transport does; completeness arithmetic always
    holds (``shards_ok + missing == total``); reported sources never stray
    outside the registered union; and the plan document round-trips
    losslessly so any failure is replayable from the printed JSON.
    """
    import time

    from repro.faults import RPC_KINDS, plan_from_json
    from repro.federation import FederationCoordinator, ShardRegistry, ShardServer

    plan = FaultPlan(seed=rng.randrange(2**16))
    for kind in RPC_KINDS:
        if rng.random() < 0.75:
            plan.rpc_fault("*", kind, probability=rng.uniform(0.05, 0.35))
    # A couple of scripted hits so even an unlucky probability draw
    # exercises the one-shot path.
    plan.rpc_fault("s0", rng.choice(RPC_KINDS), at=[rng.uniform(0.0, 5.0)])
    if plan_from_json(plan.to_json()).to_json() != plan.to_json():
        raise AssertionError(f"run {run_index}: rpc plan does not round-trip")

    num_shards = rng.randint(2, 3)
    per_shard = rng.randint(2, 3)
    shards = []
    registry = ShardRegistry()
    coordinator = None
    deadline = 2.0
    try:
        for k in range(num_shards):
            config = SimulationConfig(
                num_machines=per_shard,
                seed=rng.randrange(2**16),
                machine_id_start=k * per_shard + 1,
            )
            shard = ShardServer(f"s{k}", config, fault_plan=plan).start()
            shards.append(shard)
            # The hello itself travels through the faulty transport; keep
            # retrying like an operator would until the shard answers.
            from repro.federation.rpc import RPCError

            for attempt in range(20):
                try:
                    registry.register(shard.host, shard.port, timeout=5.0)
                    break
                except RPCError:
                    if attempt == 19:
                        raise
                    time.sleep(0.05)
        union = set(registry.machines())
        coordinator = FederationCoordinator(
            registry,
            deadline=deadline,
            attempt_timeout=0.4,
            retries=2,
            hedge_delay=0.2,
            breaker_threshold=5,
            breaker_reset=0.5,
            seed=rng.randrange(2**16),
        )
        partial = 0
        for _ in range(8):
            started = time.monotonic()
            report = coordinator.report(IDLE_SQL)
            elapsed = time.monotonic() - started
            if elapsed > deadline + 0.5:
                raise AssertionError(
                    f"run {run_index}: report took {elapsed:.2f}s under rpc chaos "
                    f"(plan={plan.to_json()})"
                )
            if report.shards_ok + len(report.missing_shards) != report.shards_total:
                raise AssertionError(
                    f"run {run_index}: completeness arithmetic broken: "
                    f"{report.shards_ok}+{len(report.missing_shards)} != "
                    f"{report.shards_total} (plan={plan.to_json()})"
                )
            if not report.relevant_source_ids <= union:
                raise AssertionError(
                    f"run {run_index}: sources outside the union: "
                    f"{sorted(report.relevant_source_ids - union)} "
                    f"(plan={plan.to_json()})"
                )
            partial += 0 if report.complete else 1
        injected = ",".join(f"{k}={v}" for k, v in sorted(plan.injected.items())) or "none"
        print(
            f"run {run_index}: federation ok shards={num_shards} "
            f"partial={partial}/8 injected={injected}"
        )
    finally:
        if coordinator is not None:
            coordinator.close()
        for shard in shards:
            shard.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "runs", type=int, nargs="?", default=25, help="chaos campaigns to run"
    )
    runs = parser.parse_args().runs
    rng = random.Random(20060912)  # VLDB 2006 started on Sept 12
    for i in range(runs):
        run_once(rng, i)
        run_durability_once(rng, i)
        run_federation_once(rng, i)
    print(f"all {runs} chaos runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
