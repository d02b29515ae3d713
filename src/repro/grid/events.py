"""Log event records.

Every status record an application process writes to its log is a
:class:`LogEvent`: the event's timestamp (the simulation clock when it
happened — Section 3.1: "each update is tagged with the time of the event
recorded in the update"), the source machine, a kind, and a payload.

The payload is read-only, and equal all-string payloads are one shared
object from a bounded table (the last :data:`PAYLOAD_TABLE_SIZE` distinct
ones): an empty HEARTBEAT and a status flip's two values are nearly every
record a log holds.  Any other payload is a private read-only copy.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

#: Distinct payloads the sharing table holds, least recently used out first.
PAYLOAD_TABLE_SIZE = 64


class EventKind(enum.Enum):
    """The record types the monitoring pipeline understands."""

    MACHINE_STATE = "machine_state"      # payload: value = 'idle' | 'busy'
    NEIGHBOR_ADDED = "neighbor_added"    # payload: neighbor
    JOB_SUBMITTED = "job_submitted"      # payload: job_id, owner
    JOB_SCHEDULED = "job_scheduled"      # payload: job_id, remote_machine
    JOB_STARTED = "job_started"          # payload: job_id
    JOB_COMPLETED = "job_completed"      # payload: job_id
    JOB_SUSPENDED = "job_suspended"      # payload: job_id
    HEARTBEAT = "heartbeat"              # "nothing to report" record


@lru_cache(maxsize=PAYLOAD_TABLE_SIZE)
def _shared_payload(items: Tuple[Tuple[str, str], ...]) -> Mapping[str, object]:
    return MappingProxyType(dict(items))


_EMPTY_PAYLOAD: Mapping[str, object] = MappingProxyType({})  # every HEARTBEAT's


def _frozen_payload(payload: Optional[Mapping[str, object]]) -> Mapping[str, object]:
    if not payload:
        return _EMPTY_PAYLOAD
    items = tuple(payload.items())
    for _, value in items:
        if type(value) is not str:  # 1, 1.0 and True are one table key but print apart
            return MappingProxyType(dict(items))
    return _shared_payload(items)


class LogEvent:
    """One immutable log record."""

    __slots__ = ("timestamp", "source", "kind", "payload")

    def __init__(
        self,
        timestamp: float,
        source: str,
        kind: EventKind,
        payload: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.timestamp = float(timestamp)
        self.source = source
        self.kind = kind
        self.payload = _frozen_payload(payload)

    def value(self, key: str) -> object:
        """Payload field access with a clear error."""
        if key not in self.payload:
            raise KeyError(
                f"event {self.kind.value!r} from {self.source!r} has no payload {key!r}"
            )
        return self.payload[key]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LogEvent)
            and self.timestamp == other.timestamp
            and self.source == other.source
            and self.kind == other.kind
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.source, self.kind))

    def __repr__(self) -> str:
        return (
            f"LogEvent(t={self.timestamp}, src={self.source!r}, "
            f"kind={self.kind.value}, {dict(self.payload)!r})"
        )
