"""A delegating backend wrapper that injects write failures.

One :class:`FaultyBackend` wraps the shared monitoring backend *per
sniffer*: the supervisor sets the wrapper's ``now`` before each poll, and
the wrapper consults the :class:`~repro.faults.plan.FaultPlan` on the one
write a poll performs, :meth:`FaultyBackend.apply_poll`. Everything else —
reads, snapshots, telemetry, the catalog — is the wrapped backend's own:
the fault model is about the load path, not the query path (queries run
against whatever state the faults left behind).

A poll fails whole: a ``backend_apply`` or ``backend_heartbeat`` fault
raises before any of its rows or its heartbeat land, the sniffer's offset
stays put, and the supervisor's retry re-reads the batch and publishes
both (at-least-once delivery over keyed writes).
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.faults.plan import FaultPlan


class FaultyBackend:
    """Wraps ``inner`` and raises :class:`~repro.faults.plan.InjectedFault`
    from ``source``'s sniffer's polls when ``plan`` says so."""

    def __init__(self, inner: Backend, plan: FaultPlan, source: str) -> None:
        self.inner = inner
        self.plan = plan
        self.source = source
        #: Simulation time of the current poll (set by the supervisor).
        self.now = 0.0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)  # all but ``apply_poll``, the sniffer's write

    def apply_poll(self, writes, source_id, recency) -> None:
        # Every decision before anything lands: one ``backend_apply``
        # consultation per write (the stream a write-at-a-time poll drew)
        # and one ``backend_heartbeat`` when the poll publishes recency.
        for _ in writes:
            self.plan.check("backend_apply", self.source, self.now)
        if recency is not None:
            self.plan.check("backend_heartbeat", self.source, self.now)
        self.inner.apply_poll(writes, source_id, recency)

    def __repr__(self) -> str:
        return f"FaultyBackend({self.inner!r}, source={self.source!r})"
