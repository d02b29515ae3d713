"""CRC32-framed append-only journals: the durability substrate.

A journal file is a 9-byte magic header followed by frames::

    TRACWAL1\\n                        -- magic
    <u32 length><u32 crc32><payload>  -- repeated, little-endian header

Frames are written append-only and never rewritten, so the only damage a
crash can inflict is a *torn tail*: the final frame may be missing bytes
or carry a bad checksum.  :func:`scan_frames` reads the longest valid
prefix and reports why it stopped; :func:`repair_torn_tail` truncates the
file back to that prefix so appending can continue (truncate-and-continue
recovery).  Nothing before the tear is ever discarded, and a scan never
raises on corrupt input — corruption shortens the prefix, it does not
poison it.

On top of the framing sits the WAL record codec used by the ingest
journal, one frame per sniffer poll: ``bat`` (the half-open span of log
offsets the poll consumed, the lines applied — fewer than the span, or
none, when fault injection dropped records on the way — and, as an
optional ``"r"``, the recency it publishes) and ``hb`` (a poll that read
nothing new and only advances recency).  Records carry the *formatted*
log line (see ``repro.grid.logformat``) rather than structured events so
this module stays dependency-free below the grid layer.

Durability is governed by an fsync policy:

``always``
    fsync after every appended frame; an append that returns is durable.
``interval``
    fsync when at least ``fsync_interval`` wall-clock seconds have passed
    since the last sync; bounds data loss to one interval.
``never``
    flush to the OS only; survives a killed *process* but not a crashed
    machine.  Checkpoints still sync explicitly.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import DurabilityError, check_number

MAGIC = b"TRACWAL1\n"
_FRAME_HEADER = struct.Struct("<II")

#: Upper bound on one frame's payload.  A length field beyond this is torn
#: garbage from a partial header write, not a record worth buffering.
MAX_FRAME_BYTES = 16 * 1024 * 1024

FSYNC_POLICIES = ("always", "interval", "never")

WAL_PREFIX = "wal-"
WAL_SUFFIX = ".wal"

__all__ = [
    "MAGIC",
    "MAX_FRAME_BYTES",
    "FSYNC_POLICIES",
    "FrameWriter",
    "FrameScan",
    "scan_frames",
    "repair_torn_tail",
    "wal_path",
    "list_wal_segments",
    "encode_batch",
    "encode_heartbeat",
    "decode_record",
    "read_wal",
]


def validate_fsync_policy(policy: str, interval: float) -> None:
    """Reject unknown policies and non-positive intervals up front."""
    if policy not in FSYNC_POLICIES:
        raise DurabilityError(
            f"unknown fsync policy {policy!r}; expected one of {', '.join(FSYNC_POLICIES)}"
        )
    check_number("fsync_interval", interval, 0, low_open=True, error=DurabilityError)


def wal_path(directory: str, epoch: int) -> str:
    """Path of the WAL segment holding records journaled *after* checkpoint ``epoch``."""
    return os.path.join(directory, f"{WAL_PREFIX}{epoch:08d}{WAL_SUFFIX}")


def list_wal_segments(directory: str) -> List[Tuple[int, str]]:
    """All WAL segments in ``directory`` as ``(epoch, path)``, ascending by epoch."""
    segments: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return segments
    for name in names:
        if name.startswith(WAL_PREFIX) and name.endswith(WAL_SUFFIX):
            middle = name[len(WAL_PREFIX) : -len(WAL_SUFFIX)]
            if middle.isdigit():
                segments.append((int(middle), os.path.join(directory, name)))
    segments.sort()
    return segments


class FrameWriter:
    """Append CRC32-framed payloads to one journal file.

    Every append is flushed to the OS (a killed process loses nothing that
    ``append`` returned for); whether a *machine* crash can lose the tail
    is governed by the fsync policy.  ``append`` returns ``True`` when the
    payload — and everything appended before it — hit stable storage.
    """

    def __init__(
        self,
        path: str,
        fsync: str = "interval",
        fsync_interval: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        validate_fsync_policy(fsync, fsync_interval)
        self.path = path
        self.fsync_policy = fsync
        self.fsync_interval = float(fsync_interval)
        self._clock = clock
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        size = os.path.getsize(path) if os.path.exists(path) else 0
        if 0 < size < len(MAGIC):
            # A crash tore the magic itself; nothing valid follows it.
            with open(path, "rb+") as fp:
                fp.truncate(0)
            size = 0
        self._fp = open(path, "ab")
        self.appended = 0
        self.sync_count = 0
        if size == 0:
            self._fp.write(MAGIC)
            self._fp.flush()
        self._last_sync = self._clock()

    @property
    def closed(self) -> bool:
        return self._fp is None

    def append(self, payload: bytes) -> bool:
        """Append one frame; return ``True`` if it was fsynced before returning."""
        if self._fp is None:
            raise DurabilityError(f"frame writer for {self.path} is closed")
        if len(payload) > MAX_FRAME_BYTES:
            raise DurabilityError(
                f"frame payload of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES} cap"
            )
        self._fp.write(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload)))
        self._fp.write(payload)
        self._fp.flush()
        self.appended += 1
        if self.fsync_policy == "always":
            self.sync()
            return True
        if (
            self.fsync_policy == "interval"
            and self._clock() - self._last_sync >= self.fsync_interval
        ):
            self.sync()
            return True
        return False

    def sync(self) -> None:
        """Force everything appended so far onto stable storage."""
        if self._fp is None:
            return
        self._fp.flush()
        os.fsync(self._fp.fileno())
        self.sync_count += 1
        self._last_sync = self._clock()

    def close(self, sync: bool = True) -> None:
        if self._fp is None:
            return
        if sync:
            self.sync()
        self._fp.close()
        self._fp = None

    def __enter__(self) -> "FrameWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FrameScan:
    """Result of scanning a journal: the valid prefix plus why the scan stopped."""

    __slots__ = ("path", "payloads", "valid_size", "torn")

    def __init__(
        self, path: str, payloads: List[bytes], valid_size: int, torn: Optional[str]
    ) -> None:
        self.path = path
        self.payloads = payloads
        self.valid_size = valid_size
        #: ``None`` for a clean file, else a human-readable tear description.
        self.torn = torn

    def __len__(self) -> int:
        return len(self.payloads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "clean" if self.torn is None else f"torn: {self.torn}"
        return f"FrameScan({self.path!r}, frames={len(self.payloads)}, {state})"


def scan_frames(path: str) -> FrameScan:
    """Read the longest valid frame prefix of ``path``.  Never raises on corruption."""
    try:
        with open(path, "rb") as fp:
            data = fp.read()
    except FileNotFoundError:
        return FrameScan(path, [], 0, "missing file")
    if not data:
        return FrameScan(path, [], 0, None)
    if not data.startswith(MAGIC):
        return FrameScan(path, [], 0, "bad or truncated magic header")
    payloads: List[bytes] = []
    offset = len(MAGIC)
    torn: Optional[str] = None
    while offset < len(data):
        header = data[offset : offset + _FRAME_HEADER.size]
        if len(header) < _FRAME_HEADER.size:
            torn = "truncated frame header"
            break
        length, crc = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            torn = "implausible frame length"
            break
        payload = data[offset + _FRAME_HEADER.size : offset + _FRAME_HEADER.size + length]
        if len(payload) < length:
            torn = "truncated frame payload"
            break
        if zlib.crc32(payload) != crc:
            torn = "frame checksum mismatch"
            break
        payloads.append(payload)
        offset += _FRAME_HEADER.size + length
    return FrameScan(path, payloads, len(MAGIC) + sum(
        _FRAME_HEADER.size + len(p) for p in payloads
    ), torn)


def repair_torn_tail(path: str, scan: Optional[FrameScan] = None) -> FrameScan:
    """Truncate ``path`` back to its valid prefix so appending can continue.

    Returns the (possibly re-computed) scan; ``scan.torn`` still names the
    tear that was repaired so callers can report it.
    """
    if scan is None:
        scan = scan_frames(path)
    if scan.torn is None or scan.torn == "missing file":
        return scan
    with open(path, "rb+") as fp:
        fp.truncate(scan.valid_size)
        fp.flush()
        os.fsync(fp.fileno())
    return scan


# ---------------------------------------------------------------------------
# WAL record codec


def _encode(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":"), sort_keys=True).encode("utf-8")


def encode_batch(
    source: str, start: int, end: int, lines: Sequence[str], recency: Optional[float] = None
) -> bytes:
    """One poll: the lines applied while consuming log offsets ``[start,
    end)`` and, as ``"r"``, the recency the poll publishes (if any).  Fault
    injection can drop or duplicate records, so the lines need not map
    one-to-one onto the offsets (there may be none at all); replay dedupes
    the lines by the span and ``"r"`` by the source's recency."""
    record = {"k": "bat", "s": source, "a": int(start), "b": int(end), "l": list(lines)}
    if recency is not None:
        record["r"] = float(recency)
    return _encode(record)


def encode_heartbeat(source: str, recency: float) -> bytes:
    """A poll that read nothing new but advances ``source``'s recency."""
    return _encode({"k": "hb", "s": source, "r": float(recency)})


def decode_record(payload: bytes) -> dict:
    """Decode and validate one WAL record payload.

    Raises :class:`DurabilityError` for unintelligible payloads.  In
    practice this only fires on version skew: CRC framing already rejects
    corrupted frames before they reach the codec.
    """
    try:
        record = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise DurabilityError(f"undecodable WAL record: {exc}") from exc
    if not isinstance(record, dict):
        raise DurabilityError(f"WAL record is not an object: {record!r}")
    kind = record.get("k")
    if kind == "ev":
        raise DurabilityError(
            "WAL record kind 'ev' (one frame per event) was written by an older version"
        )
    if kind == "bat":
        if not isinstance(record.get("s"), str) or not isinstance(record.get("a"), int) \
                or not isinstance(record.get("b"), int) or not isinstance(record.get("l"), list) \
                or not isinstance(record.get("r", 0.0), (int, float)):
            raise DurabilityError(f"malformed batch record: {record!r}")
    elif kind == "hb":
        if not isinstance(record.get("s"), str) or not isinstance(record.get("r"), (int, float)):
            raise DurabilityError(f"malformed heartbeat record: {record!r}")
    else:
        raise DurabilityError(f"unknown WAL record kind {kind!r}")
    return record


def read_wal(path: str) -> Tuple[List[dict], FrameScan]:
    """Scan ``path`` and decode its records.  Corruption shortens, never raises."""
    scan = scan_frames(path)
    return [decode_record(payload) for payload in scan.payloads], scan
