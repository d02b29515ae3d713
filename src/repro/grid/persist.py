"""File-backed logs: write machine logs to disk and sniff them back.

Makes the paper's data path literal: each machine's events live in a text
file (:mod:`repro.grid.logformat`), and a sniffer tails the *file* — so a
monitoring database can be rebuilt offline from a directory of logs, or fed
by processes in other languages that write the same format.

* :class:`FileLogWriter` — append events to a machine's log file;
* :class:`FileLog` — read-side adapter exposing the same
  ``read_from(offset, up_to_time)`` interface as the in-memory
  :class:`~repro.grid.logfile.LogFile`, so the standard
  :class:`~repro.grid.sniffer.Sniffer` can tail it unchanged;
* :func:`archive_simulation` — dump every machine's in-memory log to a
  directory;
* :func:`replay_directory` — load a directory of log files into a backend
  through real sniffers, reproducing the database a live deployment would
  have built.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.backends.base import Backend
from repro.errors import DurabilityError, SimulationError
from repro.grid.events import LogEvent
from repro.grid.logfile import LogFile
from repro.grid.logformat import format_line, format_log, parse_line
from repro.grid.sniffer import Sniffer, SnifferConfig

#: File name pattern for one machine's log.
LOG_SUFFIX = ".log"

LOG_HEADER = "# trac-log v1\n"


def log_path(directory: str, machine_id: str) -> str:
    return os.path.join(directory, f"{machine_id}{LOG_SUFFIX}")


class FileLogWriter:
    """Append-only writer for one machine's on-disk log.

    Events must arrive in non-decreasing timestamp order, mirroring the
    in-memory :class:`LogFile` contract — the order is enforced across
    reopens by scanning the existing file's tail. Payload values are
    written as strings (the text format carries nothing else).

    Durability contract: each event is one line handed to the OS by one
    ``write(2)`` on an unbuffered handle (no per-file buffer), so another
    process can tail it at once and a *killed process* loses nothing that
    ``append`` returned for; reopening cuts off a line a crash tore.  It never
    fsyncs: a machine crash or power loss may lose the tail, which the WAL
    (the durable record) does not depend on.
    """

    def __init__(self, path: str, owner: str) -> None:
        self.path = path
        self.owner = owner
        self._last_timestamp = float("-inf")
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            with open(path, "rb+") as handle:
                whole = handle.read().rfind(b"\n") + 1
                if whole < handle.tell():
                    handle.truncate(whole)  # drop the torn last line
            events, _ = read_log_events(path, owner, lenient=True)
            if events:
                self._last_timestamp = events[-1].timestamp
        else:
            with open(path, "w") as handle:
                handle.write(LOG_HEADER)
        self._handle = open(path, "ab", buffering=0)

    def append(self, event: LogEvent) -> None:
        if self._handle is None:
            raise DurabilityError(f"log writer for {self.path} is closed")
        if event.source != self.owner:
            raise SimulationError(
                f"event from {event.source!r} appended to log of {self.owner!r}"
            )
        if event.timestamp < self._last_timestamp:
            raise SimulationError(
                f"log {self.path!r}: timestamp {event.timestamp} is before "
                f"the last written record"
            )
        line = (format_line(event, coerce=True) + "\n").encode()
        while line:  # one write(2) unless the OS takes a short write
            line = line[self._handle.write(line):]
        self._last_timestamp = event.timestamp

    def close(self) -> None:
        if self._handle is None:
            return
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "FileLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_log_events(
    path: str, owner: str, lenient: bool = False
) -> Tuple[List[LogEvent], Optional[str]]:
    """Parse a log file into events.

    With ``lenient=True`` parsing stops at the first malformed line and
    returns ``(valid_prefix, tear_reason)`` — the recovery-side behaviour
    for a file whose final line a crash may have torn.  With
    ``lenient=False`` malformed lines raise, as :class:`FileLog` does.
    """
    events: List[LogEvent] = []
    if not os.path.exists(path):
        return events, "missing file"
    with open(path) as handle:
        text = handle.read()
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            event = parse_line(stripped, number)
        except Exception as exc:
            if lenient:
                return events, str(exc)  # parse_line names the line
            raise
        if event.source != owner:
            raise SimulationError(
                f"log {path!r} owned by {owner!r} contains an event from {event.source!r}"
            )
        events.append(event)
    return events, None


def rewrite_log(path: str, events: List[LogEvent]) -> None:
    """Atomically rewrite a log file to exactly ``events`` (temp + rename)."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w") as handle:
        handle.write(format_log(events))  # LOG_HEADER, then one line each
        handle.flush()
        os.fsync(handle.fileno())
    os.rename(tmp_path, path)


class FileLog(LogFile):
    """Read-side view of an on-disk log: a ``LogFile`` whose events are the
    file's, parsed again only when its inode, size or mtime changes.

    ``read_from`` offsets are *event indexes* (comments and blank lines are
    not counted), so a sniffer's durable offset stays valid as the file
    grows.  Appends go through :class:`FileLogWriter`."""

    def __init__(self, path: str, owner: str) -> None:
        self.path = path
        self.owner = owner
        self._parsed: Tuple[Optional[tuple], List[LogEvent]] = (None, [])

    @property
    def _events(self) -> List[LogEvent]:  # type: ignore[override]
        try:
            st = os.stat(self.path)
            stamp: Optional[tuple] = (st.st_ino, st.st_size, st.st_mtime_ns)
        except FileNotFoundError:
            stamp = None
        if stamp != self._parsed[0]:
            self._parsed = (stamp, read_log_events(self.path, self.owner)[0])
        return self._parsed[1]

    def append(self, event: LogEvent) -> None:
        raise SimulationError(f"{self.path} is read here; append through FileLogWriter")


class FileSource:
    """Adapter pairing a machine id with its :class:`FileLog`, shaped the
    way :class:`~repro.grid.sniffer.Sniffer` expects a machine to look."""

    def __init__(self, machine_id: str, log: FileLog) -> None:
        self.machine_id = machine_id
        self.log = log

    def __repr__(self) -> str:
        return f"FileSource({self.machine_id!r}, {self.log.path!r})"


def archive_simulation(sim, directory: str) -> List[str]:
    """Write every machine's in-memory log to ``directory``.

    Returns the file paths written."""
    os.makedirs(directory, exist_ok=True)
    paths: List[str] = []
    for machine_id, machine in sorted(sim.machines.items()):
        path = log_path(directory, machine_id)
        with FileLogWriter(path, machine_id) as writer:
            for event in machine.log:
                writer.append(event)
        paths.append(path)
    return paths


def discover_logs(directory: str) -> Dict[str, str]:
    """Map machine id -> log path for every ``*.log`` file in a directory."""
    out: Dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(LOG_SUFFIX):
            out[name[: -len(LOG_SUFFIX)]] = os.path.join(directory, name)
    return out


def replay_directory(
    backend: Backend,
    directory: str,
    up_to_time: Optional[float] = None,
) -> Dict[str, Sniffer]:
    """Load a directory of log files into ``backend`` through sniffers.

    One sniffer per log file, drained completely up to ``up_to_time``
    (default: everything). Returns the sniffers, whose offsets/backlogs can
    be inspected, so callers can also continue polling as files grow.
    """
    sniffers: Dict[str, Sniffer] = {}
    horizon = float("inf") if up_to_time is None else up_to_time
    for machine_id, path in discover_logs(directory).items():
        source = FileSource(machine_id, FileLog(path, machine_id))
        sniffer = Sniffer(source, backend, SnifferConfig(lag=0.0))  # type: ignore[arg-type]
        sniffer.poll(horizon)
        sniffers[machine_id] = sniffer
    return sniffers
