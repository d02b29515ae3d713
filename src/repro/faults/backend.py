"""A delegating backend wrapper that injects write failures.

One :class:`FaultyBackend` wraps the shared monitoring backend *per
sniffer*: the supervisor sets the wrapper's ``now`` before each poll, and
the wrapper consults the :class:`~repro.faults.plan.FaultPlan` on every
write the sniffer performs. Everything else — reads, snapshots, telemetry,
the catalog — is the wrapped backend's own: the fault model is about the
load path, not the query path (queries run against whatever state the
faults left behind).

Failure atomicity mirrors a real loader: a failed ``upsert_rows`` aborts
the poll before the sniffer advances its offset, so the next successful
poll re-reads and re-applies the whole batch (at-least-once delivery); a
failed ``upsert_heartbeat`` loses only the recency advance, which a later
poll repairs.
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.faults.plan import FaultPlan


class FaultyBackend:
    """Wraps ``inner`` and raises :class:`~repro.faults.plan.InjectedFault`
    from ``source``'s sniffer's write calls when ``plan`` says so."""

    def __init__(self, inner: Backend, plan: FaultPlan, source: str) -> None:
        self.inner = inner
        self.plan = plan
        self.source = source
        #: Simulation time of the current poll (set by the supervisor).
        self.now = 0.0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)  # whatever is not a sniffer write

    def upsert_rows(self, *args) -> None:
        self.plan.check("backend_apply", self.source, self.now)
        self.inner.upsert_rows(*args)

    def delete_rows(self, *args) -> None:
        self.plan.check("backend_apply", self.source, self.now)
        self.inner.delete_rows(*args)

    def upsert_heartbeat(self, source_id: str, recency: float) -> None:
        self.plan.check("backend_heartbeat", self.source, self.now)
        self.inner.upsert_heartbeat(source_id, recency)

    def __repr__(self) -> str:
        return f"FaultyBackend({self.inner!r}, source={self.source!r})"
