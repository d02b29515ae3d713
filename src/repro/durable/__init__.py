"""Crash-safe durability: WAL-backed ingest, checkpoints, and recovery.

The subsystem has three layers:

* :mod:`repro.durable.wal` — CRC32-framed append-only journals with
  configurable fsync policies and torn-tail (truncate-and-continue)
  recovery;
* :mod:`repro.durable.checkpoint` — atomic, epoch-numbered checkpoints of
  a consistent database snapshot plus simulator/ingest state, after which
  the WAL rotates;
* :mod:`repro.durable.recover` / :mod:`repro.durable.manager` — replay the
  latest checkpoint plus the WAL tail exactly-once, and bind the whole
  machinery into a live :class:`~repro.grid.simulator.GridSimulator`.

See docs/ROBUSTNESS.md ("Crash-safe durability") for the invariants and
`tools/crash_matrix.py` for the SIGKILL proof harness.
"""

from repro.durable.manager import DurabilityManager, DurabilityPolicy
from repro.durable.recover import recover
from repro.durable.wal import list_wal_segments, scan_frames

__all__ = ["DurabilityManager", "DurabilityPolicy", "recover", "scan_frames", "list_wal_segments"]
