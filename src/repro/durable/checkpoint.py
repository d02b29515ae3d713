"""Atomic, epoch-numbered checkpoints of simulator + database state.

A checkpoint file ``checkpoint-<epoch>.json`` holds one JSON document::

    {"format": "trac-checkpoint-v1", "epoch": N, "wall": ..., "state": {...}}

The ``state`` payload is produced by ``GridSimulator.durable_state()``
and read back, on resume, by ``GridSimulator.restore_durable_state()``:
a consistent copy-on-write snapshot of every table plus sniffer offsets,
heartbeats, the per-source records of the
:class:`~repro.core.sources.SourceRegistry` (``health``, ``slo`` and the
supervision counters in ``ingest``), the simulator RNG, and the
scheduler/job bookkeeping needed to resume.

Writes are crash-atomic: the document is written to a temp file, fsynced,
``os.rename``d into place, and the directory entry is fsynced.  A reader
therefore sees either the old checkpoint or the new one, never a torn
half.  Recovery walks checkpoints newest-first and skips any that fail to
parse or validate, falling back to the previous epoch (whose WAL segments
are retained until enough newer checkpoints exist — see
:func:`prune_artifacts`).
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional, Tuple

from repro.durable.wal import list_wal_segments
from repro.errors import DurabilityError

CHECKPOINT_FORMAT = "trac-checkpoint-v1"
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_path",
    "list_checkpoints",
    "write_checkpoint",
    "load_checkpoint",
    "latest_valid_checkpoint",
    "prune_artifacts",
]


def checkpoint_path(directory: str, epoch: int) -> str:
    return os.path.join(directory, f"{CHECKPOINT_PREFIX}{epoch:08d}{CHECKPOINT_SUFFIX}")


def list_checkpoints(directory: str) -> List[Tuple[int, str]]:
    """All checkpoints in ``directory`` as ``(epoch, path)``, ascending by epoch."""
    found: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return found
    for name in names:
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX):
            middle = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
            if middle.isdigit():
                found.append((int(middle), os.path.join(directory, name)))
    found.sort()
    return found


def _fsync_directory(directory: str) -> None:
    # Directory fsync is what makes the rename itself durable; some
    # platforms refuse O_RDONLY on directories, which is survivable.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def write_checkpoint(directory: str, epoch: int, state: dict) -> str:
    """Atomically write ``state`` as checkpoint ``epoch``; return its path.

    The bytes are ``json.dump``'s with sorted keys, written one top-level
    ``state`` entry at a time: ``json.dumps`` runs the C encoder (``dump``
    the pure-Python one), and no piece holds the whole document."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, epoch)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as fp:
        # The top level's sorted keys: epoch, format, state, wall.
        fp.write(f'{{"epoch":{int(epoch)},"format":{_dumps(CHECKPOINT_FORMAT)},"state":{{')
        for i, key in enumerate(sorted(state)):
            fp.write(("," if i else "") + _dumps(key) + ":" + _dumps(state[key]))
        fp.write(f'}},"wall":{_dumps(time.time())}}}\n')
        fp.flush()
        os.fsync(fp.fileno())
    os.rename(tmp_path, path)
    _fsync_directory(directory)
    return path


def load_checkpoint(path: str) -> dict:
    """Load and validate one checkpoint file; raise :class:`DurabilityError` if invalid."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            payload = json.load(fp)
    except (OSError, ValueError) as exc:
        raise DurabilityError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise DurabilityError(f"checkpoint {path} has unknown format")
    if not isinstance(payload.get("epoch"), int) or not isinstance(payload.get("state"), dict):
        raise DurabilityError(f"checkpoint {path} is structurally invalid")
    return payload


def latest_valid_checkpoint(
    directory: str,
) -> Tuple[Optional[int], Optional[dict], List[str]]:
    """Newest loadable checkpoint as ``(epoch, state, invalid_paths)``.

    Invalid checkpoints encountered on the way down are skipped (and
    reported), implementing fall-back-to-previous-epoch recovery.
    """
    invalid: List[str] = []
    for epoch, path in reversed(list_checkpoints(directory)):
        try:
            payload = load_checkpoint(path)
        except DurabilityError:
            invalid.append(path)
            continue
        return epoch, payload["state"], invalid
    return None, None, invalid


def prune_artifacts(directory: str, keep: int) -> List[str]:
    """Remove checkpoints beyond the ``keep`` newest, plus WAL segments older
    than the oldest retained checkpoint (they can no longer be replayed).

    Returns the removed paths.  Nothing is pruned until more than ``keep``
    checkpoints exist, so fall-back recovery always has a full chain.
    """
    if keep < 1:
        raise DurabilityError(f"must keep at least one checkpoint, got {keep}")
    checkpoints = list_checkpoints(directory)
    removed: List[str] = []
    if len(checkpoints) <= keep:
        return removed
    cutoff = checkpoints[-keep][0]
    for epoch, path in checkpoints:
        if epoch < cutoff:
            try:
                os.remove(path)
                removed.append(path)
            except OSError:
                pass
    for epoch, path in list_wal_segments(directory):
        if epoch < cutoff:
            try:
                os.remove(path)
                removed.append(path)
            except OSError:
                pass
    return removed
