"""The durability manager: binds WAL + checkpoints into a live simulator.

One :class:`DurabilityManager` owns a *data directory*::

    data_dir/
        wal-00000000.wal        # journal of applied batches + heartbeats
        checkpoint-00000001.json
        wal-00000001.wal        # rotated after each checkpoint
        logs/m1.log ...         # disk mirrors of the machine logs

Write path (per sniffer poll): one frame — the poll's delivery and the
recency it publishes, see :meth:`DurabilityManager.journal_events` — is
journaled *before* the poll touches the backend, under the configured
fsync policy.  ``acked()`` exposes the per-source watermarks
covered by the last fsync — the crash matrix kills the process and then
asserts recovery never loses anything behind those watermarks.

Checkpoint path (per ``checkpoint_interval`` simulated seconds, driven
from ``GridSimulator.step``): sync the WAL, capture
``GridSimulator.durable_state()`` (one consistent CoW snapshot), write it
atomically as epoch ``N+1``, rotate to ``wal-(N+1)``, prune artifacts
older than the retained checkpoint chain.  A failed checkpoint write
(injected via the ``checkpoint_write`` fault, or a real ``OSError``) is
degradation, not death: the old checkpoint + an unrotated WAL still
recover everything.

Resume path: one :meth:`~DurabilityManager.bind`, made once the
simulator's sniffers exist and before supervisors wrap the machine logs.
It replays the journal into the bare backend, installs
:class:`DurableLogFile` mirrors truncated back to the checkpointed length
(deterministic re-simulation regrows the tail identically, and the
sniffers skip regenerated events below their recovered offsets), opens
the WAL and hands the :class:`~repro.durable.recover.RecoveredState` to
``GridSimulator.restore_durable_state``, which puts back everything
``durable_state`` wrote — clocks, RNG, jobs, sniffer offsets/recency and
the per-source records, whole, so a resumed ``/status`` row equals the
one checkpointed.
"""

from __future__ import annotations

import glob
import os
import time
from typing import Dict, Optional, Set, Tuple

from repro.durable.checkpoint import prune_artifacts, write_checkpoint
from repro.durable.recover import RecoveredState, recover
from repro.durable.wal import (
    FrameWriter,
    encode_batch,
    encode_heartbeat,
    validate_fsync_policy,
    wal_path,
)
from repro.errors import DurabilityError, SimulationError, check_number
from repro.grid.events import LogEvent
from repro.grid.logfile import LogFile
from repro.grid.logformat import format_line
from repro.grid.persist import FileLogWriter, log_path, read_log_events, rewrite_log
from repro.obs import instrument as obs
from repro.obs.events import EVT_CHECKPOINT, EVT_CHECKPOINT_FAILED

__all__ = ["DurabilityPolicy", "DurabilityManager", "DurableLogFile"]

_NEG_INF = float("-inf")

#: Subdirectory of the data dir holding per-machine log mirrors.
LOGS_SUBDIR = "logs"

#: Checkpoint epochs (and their WAL segments) retained for fall-back recovery.
KEEP_CHECKPOINTS = 2

class DurableLogFile(LogFile):
    """An in-memory :class:`LogFile` whose appends are mirrored to disk.

    The mirror makes the paper's "log file on the source machine" literal;
    its durability is best-effort (flushed per append, never fsynced)
    because the WAL, not the mirror, is authoritative for recovery — on
    resume the mirror is truncated back to the checkpoint and regrown by
    deterministic re-simulation.
    """

    def __init__(self, owner: str, writer: FileLogWriter, events: Tuple[LogEvent, ...] = ()) -> None:
        super().__init__(owner)
        # Restored events bypass append-time mirroring: they are already
        # on disk (the mirror was just rewritten to exactly this prefix).
        self._events.extend(events)
        self.writer = writer

    def append(self, event: LogEvent) -> None:
        super().append(event)
        self.writer.append(event)


class DurabilityPolicy:
    """Tuning knobs for the durability subsystem.

    Parameters
    ----------
    fsync:
        WAL fsync policy (``always`` / ``interval`` / ``never``); see
        :mod:`repro.durable.wal`.
    fsync_interval:
        Wall-clock seconds between WAL fsyncs under the ``interval`` policy.
    checkpoint_interval:
        *Simulated* seconds between checkpoints.
    """

    def __init__(
        self,
        fsync: str = "interval",
        fsync_interval: float = 1.0,
        checkpoint_interval: float = 60.0,
    ) -> None:
        validate_fsync_policy(fsync, fsync_interval)
        check_number(
            "checkpoint_interval", checkpoint_interval, 0, low_open=True, error=DurabilityError
        )
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.checkpoint_interval = float(checkpoint_interval)

    def __repr__(self) -> str:
        return (
            f"DurabilityPolicy(fsync={self.fsync!r}, "
            f"checkpoint_interval={self.checkpoint_interval})"
        )


class DurabilityManager:
    """Owns one data directory: journals ingest, checkpoints, recovers.

    Parameters
    ----------
    data_dir:
        Directory for WAL segments, checkpoints and log mirrors (created
        if missing).
    policy:
        A :class:`DurabilityPolicy`; defaults are sensible for simulation.
    resume:
        ``True`` recovers whatever the directory holds; ``False`` starts
        fresh, deleting any previous run's artifacts.
    """

    def __init__(
        self,
        data_dir: str,
        policy: Optional[DurabilityPolicy] = None,
        resume: bool = False,
    ) -> None:
        self.data_dir = data_dir
        self.logs_dir = os.path.join(data_dir, LOGS_SUBDIR)
        self.policy = policy or DurabilityPolicy()
        self.resume = bool(resume)
        os.makedirs(self.logs_dir, exist_ok=True)
        if not self.resume:
            self._wipe()

        self.epoch = 0
        self.recovered: Optional[RecoveredState] = None
        self.checkpoints_written = 0
        self.checkpoint_failures = 0
        self._sim = None
        self._wal: Optional[FrameWriter] = None
        self._last_checkpoint_now: Optional[float] = None
        # Cumulative across WAL rotations (FrameWriter counters reset each
        # epoch).  Records are log records + heartbeats journaled, not frames.
        self.wal_records = 0
        self.wal_syncs = 0
        # Journaled watermarks: everything appended to the WAL (synced or
        # not).  Acked watermarks: the prefix covered by the last fsync —
        # what a crash is guaranteed not to lose.
        self._journaled_offsets: Dict[str, int] = {}
        self._journaled_recency: Dict[str, float] = {}
        self._acked_offsets: Dict[str, int] = {}
        self._acked_recency: Dict[str, float] = {}
        self._unsynced: Set[str] = set()  # sources journaled since the last fsync

    # -- lifecycle ---------------------------------------------------------

    def _wipe(self) -> None:
        for pattern in ("wal-*.wal", "checkpoint-*.json", "*.tmp"):
            for path in glob.glob(os.path.join(self.data_dir, pattern)):
                os.remove(path)
        for path in glob.glob(os.path.join(self.logs_dir, "*")):
            os.remove(path)

    def saved_config(self) -> Optional[dict]:
        """The ``SimulationConfig`` dict from the latest valid checkpoint,
        so ``--resume`` can rebuild the simulator without re-specifying
        flags.  ``None`` when there is no checkpoint to resume from."""
        from repro.durable.checkpoint import latest_valid_checkpoint

        _, state, _ = latest_valid_checkpoint(self.data_dir)
        if state is None:
            return None
        return state.get("config")

    def bind(self, sim) -> bool:
        """Bind to ``sim``: recover, mirror the logs, open the WAL, journal
        every sniffer through this manager and hand what was recovered to
        ``sim.restore_durable_state``.

        Runs once the sniffers exist (their configs drawn from the RNG)
        and before supervisors wrap ``machine.log`` in FaultyLog proxies:
        the mirror has to sit underneath fault injection. Returns ``True``
        when a checkpoint was restored (the simulator must then skip
        topology/bootstrap).
        """
        self._sim = sim
        restored_events: Dict[str, Tuple[LogEvent, ...]] = {}
        if self.resume:
            self.recovered = recover(self.data_dir, backend=sim.backend)
            state = self.recovered.state
            if state is not None:
                saved_ids = state.get("machine_ids", [])
                if list(saved_ids) != list(sim.machine_ids):
                    raise DurabilityError(
                        f"checkpoint in {self.data_dir} covers machines {saved_ids}, "
                        f"but the simulator has {sim.machine_ids}; resume with the "
                        f"checkpointed configuration"
                    )
                for mid in sim.machine_ids:
                    restored_events[mid] = self._restore_log(
                        mid, int(state["machines"][mid]["log_len"])
                    )
            else:
                # WAL-only resume: the simulator regrows from t=0, so the
                # mirrors must restart empty or the rerun would duplicate
                # every line.
                for mid in sim.machine_ids:
                    rewrite_log(log_path(self.logs_dir, mid), [])
            self._journaled_offsets = dict(self.recovered.offsets)
            self._journaled_recency = dict(self.recovered.recency)
            self._acked_offsets = dict(self.recovered.offsets)
            self._acked_recency = dict(self.recovered.recency)
            self.epoch = self.recovered.epoch

        for mid in sim.machine_ids:
            writer = FileLogWriter(log_path(self.logs_dir, mid), mid)
            sim.machines[mid].log = DurableLogFile(
                mid, writer, restored_events.get(mid, ())
            )
        self._wal = FrameWriter(
            wal_path(self.data_dir, self.epoch),
            fsync=self.policy.fsync,
            fsync_interval=self.policy.fsync_interval,
        )
        for sniffer in sim.sniffers.values():
            sniffer.journal = self

        if self.recovered is None:
            return False
        sim.restore_durable_state(self.recovered)
        if self.recovered.state is None:
            return False
        self._last_checkpoint_now = sim.now
        return True

    def _restore_log(self, mid: str, target_len: int) -> Tuple[LogEvent, ...]:
        """Truncate one mirror back to its checkpointed length.

        The tail past the checkpoint is discarded (deterministic
        re-simulation regrows it identically); a mirror that lost events
        *before* the checkpoint cannot be resumed from.
        """
        path = log_path(self.logs_dir, mid)
        events, _tear = read_log_events(path, mid, lenient=True)
        if len(events) < target_len:
            raise DurabilityError(
                f"log mirror {path} holds {len(events)} events but the checkpoint "
                f"requires {target_len}; the mirror lost pre-checkpoint data"
            )
        events = events[:target_len]
        rewrite_log(path, events)
        return tuple(events)

    def _check_fault(self, kind: str, source: str, now: float) -> None:
        """Ask the bound simulator's fault plan (if any) whether this
        WAL append / checkpoint write fails."""
        plan = None if self._sim is None else self._sim.fault_plan
        if plan is not None:
            plan.check(kind, source, now)

    # -- journaling (sniffer hooks) ----------------------------------------

    def journal_events(
        self, source: str, start: int, end: int, events, now: float, recency=None
    ) -> None:
        """Journal one poll as one ``bat`` frame: its delivery over log
        offsets [start, end) and, as ``"r"``, the ``recency`` it publishes.

        Also when ``events`` is empty (every record of the span was dropped
        on the way): the journaled offsets of a source must not gap.  Skips
        what lies below the journaled watermarks (a resumed sniffer
        re-reading regenerated events, or a poll retried after a backend
        fault) so the WAL never holds a duplicate within an epoch.
        """
        self._check_fault("wal_append", source, now)
        watermark = self._journaled_offsets.get(source, 0)
        if end <= watermark:  # the span is journaled; its recency may not be
            self._journal(source, recency)
            return
        if start > watermark:
            raise DurabilityError(
                f"journal gap for {source}: watermark {watermark}, batch starts at {start}"
            )
        if watermark > start and len(events) == end - start:
            # Regular delivery, one event per offset: drop the prefix the
            # journal already holds.  When faults dropped or duplicated
            # records the lines no longer map onto offsets: journal the
            # true log span and replay exactly what was applied.
            events = events[watermark - start :]
            start = watermark
        self._journal(source, recency, (start, end, [format_line(e, coerce=True) for e in events]))

    def journal_heartbeat(self, source: str, recency: float, now: float) -> None:
        """Journal a poll that read nothing new but publishes ``recency``
        (only if it advances the source) as one ``hb`` frame."""
        if recency > self._journaled_recency.get(source, _NEG_INF):
            self._check_fault("wal_append", source, now)
            self._journal(source, recency)

    def _journal(self, source: str, recency: Optional[float], span=None) -> None:
        """Append one frame: a ``bat`` over ``span = (start, end, lines)``,
        else an ``hb``.  ``recency`` rides only if it advances the source's
        journaled one (an ``hb`` without it is not written)."""
        if recency is not None and recency <= self._journaled_recency.get(source, _NEG_INF):
            recency = None
        if span is None and recency is None:
            return
        if self._wal is None:
            raise DurabilityError("durability manager has no open WAL (closed?)")
        if span is None:
            lines, synced = (), self._wal.append(encode_heartbeat(source, recency))
        else:
            lines, synced = span[2], self._wal.append(encode_batch(source, *span, recency))
            self._journaled_offsets[source] = span[1]
        if recency is not None:
            self._journaled_recency[source] = recency
        self._unsynced.add(source)
        self.wal_records += len(lines) + (recency is not None)
        tel = obs.resolve()
        if tel.enabled:
            tel.count(obs.WAL_RECORDS, len(lines), kind="event")
            tel.count(obs.WAL_RECORDS, int(recency is not None), kind="heartbeat")
        if synced:
            self.wal_syncs += 1
            if tel.enabled:
                tel.count(obs.WAL_SYNCS)
            self._promote()

    def _promote(self) -> None:
        """The WAL is on stable storage: fold the journaled watermarks of
        the sources journaled since the last sync into the acked ones."""
        for source in self._unsynced:
            for acked, journaled in (
                (self._acked_offsets, self._journaled_offsets),
                (self._acked_recency, self._journaled_recency),
            ):
                if source in journaled:
                    acked[source] = max(acked.get(source, journaled[source]), journaled[source])
        self._unsynced.clear()

    def sync(self) -> None:
        """Force the WAL onto stable storage and advance the acked marks."""
        if self._wal is not None:
            self._wal.sync()
            self.wal_syncs += 1
        self._promote()

    def acked(self) -> dict:
        """Per-source watermarks guaranteed to survive a crash right now."""
        return {
            "offsets": dict(self._acked_offsets),
            "recency": dict(self._acked_recency),
        }

    # -- checkpointing ------------------------------------------------------

    def maybe_checkpoint(self, now: float) -> bool:
        """Checkpoint when ``checkpoint_interval`` simulated seconds passed."""
        if self._last_checkpoint_now is None:
            self._last_checkpoint_now = now
            return False
        if now - self._last_checkpoint_now < self.policy.checkpoint_interval:
            return False
        return self.checkpoint(now)

    def checkpoint(self, now: float, state: Optional[dict] = None) -> bool:
        """Write checkpoint epoch+1, rotate the WAL, prune old artifacts.

        Failure (injected or real IO error) is survivable: the previous
        checkpoint and the unrotated WAL still cover everything, so this
        logs/counts the failure and returns ``False``.
        """
        self._last_checkpoint_now = now
        tel = obs.resolve()
        started = time.perf_counter()
        try:
            self._check_fault("checkpoint_write", "*", now)
            if state is None:
                if self._sim is None:
                    raise DurabilityError("no simulator bound and no explicit state given")
                state = self._sim.durable_state()
            # The WAL must be complete w.r.t. the captured state before the
            # epoch advances past it.
            self.sync()
            new_epoch = self.epoch + 1
            write_checkpoint(self.data_dir, new_epoch, state)
            old_wal = self._wal
            self._wal = FrameWriter(
                wal_path(self.data_dir, new_epoch),
                fsync=self.policy.fsync,
                fsync_interval=self.policy.fsync_interval,
            )
            if old_wal is not None:
                old_wal.close()
            self.epoch = new_epoch
            prune_artifacts(self.data_dir, KEEP_CHECKPOINTS)
            # The new segment continues from the captured marks, not the
            # journaled ones: a poll journaled but failed at the backend is
            # not in the state, so its retry is journaled again.
            ingest = state.get("ingest")
            if ingest is not None:
                self._journaled_offsets = dict(ingest["offsets"])
                self._journaled_recency = dict(ingest["recency"])
        except (DurabilityError, SimulationError, OSError) as exc:
            self.checkpoint_failures += 1
            if tel.enabled:
                tel.count(obs.CHECKPOINTS, outcome="failed")
                tel.emit(
                    EVT_CHECKPOINT_FAILED,
                    t=now,
                    severity="error",
                    error=str(exc),
                    epoch=self.epoch,
                )
            return False
        self.checkpoints_written += 1
        if tel.enabled:
            tel.count(obs.CHECKPOINTS, outcome="ok")
            tel.observe(obs.CHECKPOINT_SECONDS, time.perf_counter() - started)
            tel.emit(EVT_CHECKPOINT, t=now, severity="info", epoch=self.epoch)
        return True

    def close(self, now: Optional[float] = None, final_checkpoint: bool = True) -> None:
        """Clean shutdown: optionally checkpoint, then sync + close the WAL."""
        if final_checkpoint and self._sim is not None and now is not None:
            self.checkpoint(now)
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._promote()
        if self._sim is not None:
            for machine in self._sim.machines.values():
                log = machine.log
                # Unwrap a FaultyLog proxy to reach the mirror underneath.
                log = getattr(log, "inner", log)
                writer = getattr(log, "writer", None)
                if writer is not None:
                    writer.close()

    def stats(self) -> dict:
        """Summary for CLI output."""
        out = {
            "epoch": self.epoch,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_failures": self.checkpoint_failures,
            "wal_records": self.wal_records,
            "wal_syncs": self.wal_syncs,
        }
        if self.recovered is not None:
            out["recovered"] = self.recovered.summary()
        return out
