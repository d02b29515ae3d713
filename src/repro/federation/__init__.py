"""Fault-tolerant shard federation: partial-failure-safe recency reports.

The grid is split into N shards, each a :class:`ShardServer` wrapping a
:class:`~repro.grid.simulator.GridSimulator` over a disjoint machine-id
slice (crash-safe via :mod:`repro.durable`), serving recency-report
fragments over a length-prefixed JSON socket RPC (:mod:`.rpc`). A
:class:`FederationCoordinator` fans out with per-shard deadlines, bounded
retries, hedged requests and circuit breakers, and merges fragments into a
:class:`FederatedRecencyReport` that states its own completeness
(``shards_ok`` / ``missing_shards`` / stale-cache ages) the way TRAC's
NOTICE lines state recency. See ``docs/ROBUSTNESS.md``.
"""

from repro.federation.rpc import RPCTimeout
from repro.federation.shard import ShardServer
from repro.federation.coordinator import FederationCoordinator, ShardInfo, ShardRegistry

__all__ = ["RPCTimeout", "ShardServer", "ShardInfo", "ShardRegistry", "FederationCoordinator"]
