"""Append-only per-machine log files.

The paper assumes reliable storage and transport (Section 3.1), so the log
is a durable, strictly append-only sequence: a sniffer reads from its last
offset and never loses records. Events must be appended in non-decreasing
timestamp order — updates "stream in from the source in the order of these
timestamps".
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import SimulationError
from repro.grid.events import LogEvent


class LogFile:
    """An append-only sequence of :class:`LogEvent` for one machine."""

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._events: List[LogEvent] = []

    def append(self, event: LogEvent) -> None:
        """Append one event; enforces monotone timestamps and ownership."""
        if event.source != self.owner:
            raise SimulationError(
                f"event from {event.source!r} appended to log of {self.owner!r}"
            )
        if self._events and event.timestamp < self._events[-1].timestamp:
            raise SimulationError(
                f"log of {self.owner!r}: timestamp {event.timestamp} is before "
                f"the last record {self._events[-1].timestamp}"
            )
        self._events.append(event)

    def read_from(self, offset: int, up_to_time: float) -> Tuple[List[LogEvent], int]:
        """Read records after ``offset`` whose timestamp is ``<= up_to_time``.

        Models a sniffer that only sees records already flushed before its
        visibility horizon (propagation lag). Returns the events and the new
        offset.
        """
        events = self._events  # read once: a FileLog's is a property
        if offset < 0 or offset > len(events):
            raise SimulationError(f"invalid log offset {offset}")
        out: List[LogEvent] = []
        position = offset
        while position < len(events) and events[position].timestamp <= up_to_time:
            out.append(events[position])
            position += 1
        return out, position

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __repr__(self) -> str:
        return f"LogFile({self.owner!r}, {len(self._events)} events)"
