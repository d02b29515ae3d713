"""Text serialization of log events.

The real systems the paper monitors (Condor daemons) write plain-text event
logs that the quill/sniffer processes parse. This module defines this
repository's on-disk format — one event per line::

    <timestamp> <source> <KIND> key=value key=value ...

e.g. ::

    1142431205.000000 m1 MACHINE_STATE value=idle
    1142431265.000000 m1 JOB_SCHEDULED job_id=j17 remote_machine=m4

Values are percent-encoded so they may contain spaces, ``=`` and newlines;
keys are bare identifiers. Lines starting with ``#`` are comments. The
format round-trips exactly (``parse_line(format_line(e)) == e``), which the
property tests enforce.
"""

from __future__ import annotations

from typing import Iterable
from urllib.parse import quote, unquote

from repro.errors import SimulationError
from repro.grid.events import EventKind, LogEvent

_KIND_BY_NAME = {kind.name: kind for kind in EventKind}


def format_line(event: LogEvent, coerce: bool = False) -> str:
    """Serialize one event to its text line (no trailing newline).

    The text carries strings only: a non-string payload value raises, or
    with ``coerce=True`` (the WAL and the log mirrors) is written as
    ``str(value)``."""
    parts = [f"{event.timestamp:.6f}", _encode(event.source), event.kind.name]
    payload = event.payload
    for key in sorted(payload):
        value = payload[key]
        if not isinstance(value, str):
            if not coerce:
                raise SimulationError(
                    f"payload {key!r} of {event.kind.name} is {type(value).__name__}; "
                    "the text log format carries strings only"
                )
            value = str(value)
        parts.append(f"{key}={_encode(value)}")
    return " ".join(parts)


def parse_line(line: str, line_number: int = 0) -> LogEvent:
    """Parse one text line back into a :class:`LogEvent`.

    Raises
    ------
    SimulationError
        For malformed lines, unknown event kinds or bad payload syntax.
    """
    fields = line.strip().split(" ")
    if len(fields) < 3:
        raise SimulationError(f"line {line_number}: expected at least 3 fields: {line!r}")
    try:
        timestamp = float(fields[0])
    except ValueError as exc:
        raise SimulationError(f"line {line_number}: bad timestamp {fields[0]!r}") from exc
    source = _decode(fields[1])
    kind_name = fields[2]
    if kind_name not in _KIND_BY_NAME:
        raise SimulationError(f"line {line_number}: unknown event kind {kind_name!r}")
    payload = {}
    for field in fields[3:]:
        if not field:
            continue
        key, sep, raw = field.partition("=")
        if not sep or not key:
            raise SimulationError(f"line {line_number}: bad payload field {field!r}")
        payload[key] = _decode(raw)
    return LogEvent(timestamp, source, _KIND_BY_NAME[kind_name], payload)


def format_log(events: Iterable[LogEvent]) -> str:
    """Serialize a sequence of events, one line each, with a header."""
    lines = ["# trac-log v1"]
    lines.extend(format_line(event) for event in events)
    return "\n".join(lines) + "\n"


#: What ``quote(value, safe="")`` never escapes (RFC 3986 unreserved).
_UNRESERVED = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-~")


def _encode(value: str) -> str:
    # Ids and states are unreserved already: skip the quoting machinery.
    return value if _UNRESERVED.issuperset(value) else quote(value, safe="")


def _decode(value: str) -> str:
    return unquote(value)
