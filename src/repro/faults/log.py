"""A log-file proxy whose *reads* drop or duplicate records.

The paper assumes reliable, append-only storage, and :class:`FaultyLog`
keeps that: writes go straight to the wrapped
:class:`~repro.grid.logfile.LogFile` and nothing is ever removed from it.
What the faults perturb is *delivery* — the slice of records a sniffer's
``read_from`` observes — which models the R-GMA-style failure reports of
lossy republishing (dropped records) and at-least-once redelivery
(duplicated records) without violating the log's durability contract.

The supervisor updates ``now`` each poll so scripted faults fire against
simulation time; before the first poll the read horizon is used instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # type-only: faults must not import grid at runtime
    from repro.grid.events import LogEvent  # pragma: no cover
    from repro.grid.logfile import LogFile  # pragma: no cover


class FaultyLog:
    """Wraps one machine's :class:`LogFile` with lossy delivery."""

    def __init__(self, inner: "LogFile", plan: FaultPlan, source: str) -> None:
        self.inner = inner
        self.plan = plan
        self.source = source
        #: Simulation time of the current poll (set by the supervisor).
        self.now: Optional[float] = None

    def read_from(self, offset: int, up_to_time: float) -> Tuple[List["LogEvent"], int]:
        events, new_offset = self.inner.read_from(offset, up_to_time)
        at = self.now if self.now is not None else up_to_time
        return self.plan.filter_events(self.source, at, events), new_offset

    # -- everything else is the durable log underneath -----------------------

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        return iter(self.inner)

    def __repr__(self) -> str:
        return f"FaultyLog({self.inner!r})"
