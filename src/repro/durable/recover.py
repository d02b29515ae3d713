"""Crash recovery: latest valid checkpoint + idempotent WAL replay.

Recovery proceeds in three steps:

1. Load the newest valid checkpoint (corrupt ones are skipped, falling
   back to the previous epoch).  If a backend is supplied, its tables and
   heartbeats are reset to the checkpointed snapshot.
2. Replay every WAL segment whose epoch is >= the recovered epoch, in
   ascending order.  Torn tails are truncated and counted, never fatal.
3. Dedupe replayed batches by per-source offset watermarks so each
   applied event is exactly-once: a batch whose span ends at or below the
   watermark is skipped (it was already in the checkpoint, or in an
   earlier segment replayed after a fall-back), a batch reaching the
   watermark is applied, and one starting *beyond* it is a gap — a broken
   invariant worth dying over, because silently continuing would hide
   lost acknowledged writes.
   A frame's recency (``"r"``, on an ``hb`` or optionally on a ``bat``) is
   applied only when it advances the source's, which keeps per-source
   recency monotonically non-decreasing across restarts.  What survives of
   a frame reaches the backend as one ``apply_poll``, as it did live.

The result also carries the per-source offsets / recency / last-loaded
timestamps that ``GridSimulator.restore_durable_state`` feeds back into
the sniffers (the :class:`~repro.durable.manager.DurabilityManager`
hands it over when it binds), so ingest resumes exactly where the
journal left off.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.catalog import HEARTBEAT_TABLE
from repro.durable.checkpoint import latest_valid_checkpoint
from repro.durable.wal import (
    FrameScan,
    decode_record,
    list_wal_segments,
    repair_torn_tail,
)
from repro.errors import DurabilityError
from repro.obs import instrument as obs
from repro.obs.events import EVT_RECOVERED, EVT_WAL_TORN

__all__ = ["RecoveredState", "recover", "restore_database"]

_NEG_INF = float("-inf")


class RecoveredState:
    """Everything recovery learned: checkpoint state plus replay watermarks."""

    __slots__ = (
        "data_dir",
        "epoch",
        "state",
        "offsets",
        "recency",
        "last_loaded",
        "replayed_events",
        "replayed_heartbeats",
        "skipped_records",
        "torn_segments",
        "invalid_checkpoints",
        "segments",
    )

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.epoch = 0
        #: The checkpoint ``state`` payload, or ``None`` when recovering
        #: from WAL segments alone (or from an empty directory).
        self.state: Optional[dict] = None
        self.offsets: Dict[str, int] = {}
        self.recency: Dict[str, float] = {}
        self.last_loaded: Dict[str, float] = {}
        self.replayed_events = 0
        self.replayed_heartbeats = 0
        self.skipped_records = 0
        self.torn_segments: List[str] = []
        self.invalid_checkpoints: List[str] = []
        self.segments: List[str] = []

    @property
    def has_checkpoint(self) -> bool:
        return self.state is not None

    @property
    def empty(self) -> bool:
        """True when there was nothing at all to recover."""
        return self.state is None and not self.segments

    def summary(self) -> dict:
        return {
            "epoch": self.epoch,
            "has_checkpoint": self.has_checkpoint,
            "segments": len(self.segments),
            "replayed_events": self.replayed_events,
            "replayed_heartbeats": self.replayed_heartbeats,
            "skipped_records": self.skipped_records,
            "torn_segments": len(self.torn_segments),
            "invalid_checkpoints": len(self.invalid_checkpoints),
            "sources": len(self.offsets),
        }


def restore_database(backend, database_state: dict) -> None:
    """Reset ``backend`` tables + heartbeats to a checkpointed snapshot.

    Backend-agnostic: uses only ``delete_all`` / ``insert_rows`` /
    ``upsert_heartbeat``, so it works for both MemoryBackend and
    SQLiteBackend targets.
    """
    for table, rows in database_state.get("tables", {}).items():
        backend.delete_all(table)
        if rows:
            backend.insert_rows(table, [tuple(row) for row in rows])
    backend.delete_all(HEARTBEAT_TABLE)
    for source, recency in database_state.get("heartbeats", []):
        backend.upsert_heartbeat(source, float(recency))


def recover(
    data_dir: str,
    backend=None,
) -> RecoveredState:
    """Recover the durable state under ``data_dir``.

    When ``backend`` is given, the checkpointed snapshot is restored into
    it and replayed records are applied; with ``backend=None`` this is a
    dry scan that still computes offsets/recency watermarks.  Torn WAL
    tails are truncated in place (truncate-and-continue) so the segment
    can keep accepting appends.
    """
    tel = obs.resolve()
    recovered = RecoveredState(data_dir)
    if not os.path.isdir(data_dir):
        return recovered

    epoch, state, invalid = latest_valid_checkpoint(data_dir)
    recovered.invalid_checkpoints = invalid
    if state is not None:
        recovered.epoch = epoch if epoch is not None else 0
        recovered.state = state
        if backend is not None:
            restore_database(backend, state.get("database", {}))
        ingest = state.get("ingest", {})
        recovered.offsets = {s: int(o) for s, o in ingest.get("offsets", {}).items()}
        recovered.recency = {s: float(r) for s, r in ingest.get("recency", {}).items()}
        recovered.last_loaded = {
            s: float(t) for s, t in ingest.get("last_loaded", {}).items()
        }

    for segment_epoch, path in list_wal_segments(data_dir):
        if segment_epoch < recovered.epoch:
            continue
        recovered.segments.append(path)
        scan = repair_torn_tail(path)
        _replay_segment(recovered, scan, backend, tel)

    if tel.enabled:
        tel.count(obs.RECOVERY_RUNS)
        tel.count(obs.RECOVERY_REPLAYED, recovered.replayed_events, kind="event")
        tel.count(obs.RECOVERY_REPLAYED, recovered.replayed_heartbeats, kind="heartbeat")
        tel.count(obs.RECOVERY_REPLAYED, recovered.skipped_records, kind="skipped")
        tel.count(obs.RECOVERY_TORN_SEGMENTS, len(recovered.torn_segments))
        tel.emit(
            EVT_RECOVERED,
            severity="info",
            **recovered.summary(),
        )
    return recovered


def _replay_segment(recovered: RecoveredState, scan: FrameScan, backend, tel) -> None:
    if scan.torn is not None and scan.torn != "missing file":
        recovered.torn_segments.append(scan.path)
        if tel.enabled:
            tel.emit(EVT_WAL_TORN, severity="warning", path=scan.path, reason=scan.torn)
    from repro.grid.logformat import parse_line
    from repro.grid.sniffer import event_writes

    for payload in scan.payloads:
        record = decode_record(payload)
        source = record["s"]
        events = []
        if record["k"] == "bat":
            start, end = record["a"], record["b"]
            watermark = recovered.offsets.get(source, 0)
            if end <= watermark:
                recovered.skipped_records += 1
            elif start > watermark:
                raise DurabilityError(
                    f"gap in journaled offsets for {source}: expected {watermark}, "
                    f"found batch [{start}, {end}) in {scan.path}"
                )
            else:
                events = [parse_line(line) for line in record["l"]]
                if events:
                    recovered.last_loaded[source] = events[-1].timestamp
                recovered.replayed_events += len(events)
                recovered.offsets[source] = end
        # A frame's lines and its recency ("r", optional on a "bat") are
        # deduped apart — by offsets, by recency — and applied together.
        recency = record.get("r")
        if recency is not None:
            recency = float(recency)
            if recency > recovered.recency.get(source, _NEG_INF):
                recovered.recency[source] = recency
                recovered.replayed_heartbeats += 1
            else:
                recovered.skipped_records += 1
                recency = None
        if backend is not None and (events or recency is not None):
            backend.apply_poll(event_writes(events), source, recency)
