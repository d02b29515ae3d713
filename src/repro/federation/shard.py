"""One shard of the federated grid: a ``GridSimulator`` partition behind RPC.

A :class:`ShardServer` owns a :class:`~repro.grid.simulator.GridSimulator`
over a *disjoint* slice of the machine-id space (``machine_id_start`` gives
shard ``k`` the ids ``m{k*M+1}..m{(k+1)*M}``), runs it as a
:class:`~repro.deploy.Deployment` with no front door — the deployment's step
loop on a wall-clock cadence, its teardown order — and answers the
federation RPC ops:

``hello`` / ``heartbeat``
    Membership and liveness: shard id, owned machines, simulated clock and
    the per-source reported recency map (the registry's health signal).
``fragment``
    The recency-report fragment: executes the coordinator's recency
    subqueries *and* guard queries verbatim inside one backend snapshot
    and returns raw ``(source, recency)`` rows plus per-guard verdicts.
    The shard never computes its own z-score split — a per-shard split
    would not compose into the global one — and never decides guard
    outcomes alone, because a guard can be satisfied by another shard's
    rows. Both decisions belong to the coordinator.
``status``
    Everything ``heartbeat`` carries plus degraded sources, durability
    acked watermarks and fault counters (the chaos harness's oracle).
``stop``
    Graceful shutdown: stop stepping, flush the WAL, final checkpoint.

With ``data_dir`` the shard reuses the :mod:`repro.durable` WAL/checkpoint
layer unchanged, so a SIGKILLed shard restarted with ``resume=True`` comes
back with every acked heartbeat intact.
"""

from __future__ import annotations

from typing import Optional

from repro.core.recency_query import execute_fragment
from repro.deploy import Deployment
from repro.errors import TracError
from repro.faults.plan import FaultPlan
from repro.federation.rpc import RPCServer
from repro.grid.simulator import GridSimulator, SimulationConfig
from repro.obs import instrument as obs
from repro.obs.trace import extract_context


class ShardServer:
    """Serve one grid partition's recency-report fragments over RPC.

    Parameters
    ----------
    shard_id:
        Stable name of this shard (e.g. ``"s0"``); the registry keys
        membership, breakers and fragment caches by it.
    config:
        The shard's :class:`~repro.grid.simulator.SimulationConfig`. Use
        ``machine_id_start`` to give each shard a disjoint id range.
    host / port:
        RPC bind address; ``port=0`` picks an ephemeral port.
    durability:
        An optional :class:`~repro.durable.DurabilityManager` for
        crash-safe per-shard state (WAL + checkpoints, exactly as the
        single-process simulator uses it).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`. Given, it puts every
        sniffer under a :class:`~repro.grid.supervisor.SnifferSupervisor`,
        and its ingest fault kinds drive them as usual; its ``rpc_*`` kinds are injected
        below the RPC protocol layer on this shard's replies.
    step_interval:
        Wall seconds between simulator ticks in the stepping thread.
    """

    def __init__(
        self,
        shard_id: str,
        config: Optional[SimulationConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        durability: Optional[object] = None,
        fault_plan: Optional[FaultPlan] = None,
        telemetry: Optional[object] = None,
        step_interval: float = 0.02,
    ) -> None:
        if not shard_id:
            raise TracError("shard_id must be non-empty")
        self.shard_id = shard_id
        self.telemetry = telemetry
        self.step_interval = step_interval
        self.sim = GridSimulator(
            config,
            fault_plan=fault_plan,
            telemetry=telemetry,
            durability=durability,
        )
        self.server = RPCServer(
            self._handle,
            host=host,
            port=port,
            fault_hook=self._rpc_fault,
        )
        self.host = self.server.host
        self.port = self.server.port
        self.deployment = Deployment(self.sim, telemetry=telemetry, doors=[self.server])
        # The deployment's lock serializes simulator steps against RPC
        # reads; fragment queries additionally run inside one backend
        # snapshot, so a reply is consistent even mid-step.
        self._lock = self.deployment.lock

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardServer":
        self.server.start()
        self.deployment.start_stepping(self.step_interval)
        return self

    @property
    def stopping(self) -> bool:
        return self.deployment.stopping.is_set()

    def close(self) -> None:
        """Graceful shutdown in :meth:`Deployment.close`'s order: stepping,
        the RPC acceptor, then the final checkpoint and WAL close."""
        self.deployment.close()

    def __enter__(self) -> "ShardServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- RPC ----------------------------------------------------------------

    def _rpc_fault(self, request: dict) -> Optional[str]:
        plan = self.sim.fault_plan
        if plan is None:
            return None
        with self._lock:  # the plan's state is the stepping thread's too
            return plan.check_rpc(self.shard_id, self.sim.now)

    def _handle(self, request: dict) -> dict:
        op = request.get("op")
        if op in ("hello", "heartbeat"):
            return self._info()
        if op == "status":
            return self._info(full=True)
        if op == "fragment":
            return self._fragment(request)
        if op == "stop":
            # Reply first (the flag only stops the step loop); the caller
            # or signal handler runs close() for the WAL/checkpoint flush.
            self.deployment.stop()
            return {"ok": True, "shard_id": self.shard_id, "stopping": True}
        return {"ok": False, "shard_id": self.shard_id, "error": f"unknown op {op!r}"}

    def _info(self, full: bool = False) -> dict:
        with self._lock:
            doc: dict = {
                "ok": True,
                "shard_id": self.shard_id,
                "now": self.sim.now,
                "machines": list(self.sim.machine_ids),
                "recency": self.sim.reported_recency(),
            }
            if full:
                doc["degraded"] = self.sim.sources.degraded()
                durability = self.sim.durability
                if durability is not None:
                    doc["acked"] = durability.acked()
                    doc["durability"] = durability.stats()
                if self.sim.fault_plan is not None:
                    doc["faults_injected"] = dict(self.sim.fault_plan.injected)
        return doc

    def _fragment(self, request: dict) -> dict:
        tel = obs.resolve(self.telemetry)
        parent = extract_context(request) if tel.enabled else None  # the report's span
        with self._lock:
            with obs.PhaseTimer(tel, "federation.fragment", parent=parent, shard=self.shard_id):
                with self.sim.backend.snapshot() as snap:
                    # One of several holders: guards and subqueries both
                    # run unconditionally (no short-circuit).
                    fragment = execute_fragment(snap, request)
                degraded = self.sim.sources.degraded()
                now = self.sim.now
        return dict(fragment, ok=True, shard_id=self.shard_id, now=now, degraded=degraded)

    def __repr__(self) -> str:
        return (
            f"ShardServer({self.shard_id!r}, {self.host}:{self.port}, "
            f"machines={len(self.sim.machine_ids)})"
        )
