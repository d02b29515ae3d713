"""Recovery: checkpoint restore plus exactly-once, monotonic WAL replay."""

import os

import pytest

from repro.backends.memory import MemoryBackend
from repro.durable.checkpoint import write_checkpoint
from repro.durable.recover import recover, restore_database
from repro.durable.wal import (
    FrameWriter,
    encode_batch,
    encode_heartbeat,
    wal_path,
)
from repro.errors import DurabilityError
from repro.grid.simulator import monitoring_catalog


def line(ts, source="m1", value="idle"):
    return f"{ts:.6f} {source} MACHINE_STATE value={value}"


def write_wal(directory, epoch, payloads):
    with FrameWriter(wal_path(directory, epoch), fsync="never") as writer:
        for payload in payloads:
            writer.append(payload)


def backend_for(*machines):
    return MemoryBackend(monitoring_catalog(list(machines)))


def activity_rows(backend):
    return sorted(backend.execute("SELECT * FROM activity").rows)


class TestEmpty:
    def test_missing_directory(self, tmp_path):
        recovered = recover(str(tmp_path / "absent"))
        assert recovered.empty and recovered.epoch == 0

    def test_empty_directory(self, tmp_path):
        recovered = recover(str(tmp_path))
        assert recovered.empty
        assert recovered.offsets == {} and recovered.recency == {}


class TestWalOnlyReplay:
    def test_events_and_heartbeats_apply(self, tmp_path):
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [
                encode_batch("m1", 0, 2, [line(5.0, value="idle"), line(8.0, value="busy")]),
                encode_heartbeat("m1", 9.0),
            ],
        )
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.offsets == {"m1": 2}
        assert recovered.recency == {"m1": 9.0}
        assert recovered.last_loaded == {"m1": 8.0}
        assert recovered.replayed_events == 2
        assert recovered.replayed_heartbeats == 1
        assert not recovered.has_checkpoint
        assert activity_rows(backend) == [("m1", "busy", 8.0)]
        assert dict(backend.heartbeat_rows()) == {"m1": 9.0}

    def test_a_batch_and_its_recency_replay_together_and_dedupe_apart(self, tmp_path):
        """One frame per poll: the lines dedupe by offsets, the ``"r"`` by
        recency. A frame whose span is below the watermark can still carry a
        recency that advances, and vice versa."""
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [
                encode_batch("m1", 0, 2, [line(5.0), line(8.0, value="busy")], 8.0),
                encode_batch("m1", 0, 2, [line(5.0), line(8.0, value="busy")], 9.0),
                encode_batch("m1", 2, 3, [line(8.5, value="idle")], 8.5),
            ],
        )
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.offsets == {"m1": 3} and recovered.recency == {"m1": 9.0}
        assert recovered.replayed_events == 3 and recovered.replayed_heartbeats == 2
        assert recovered.skipped_records == 2  # the second frame's span, the third's "r"
        assert activity_rows(backend) == [("m1", "idle", 8.5)]
        assert dict(backend.heartbeat_rows()) == {"m1": 9.0}

    def test_duplicate_offsets_skipped_not_reapplied(self, tmp_path):
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [
                encode_batch("m1", 0, 1, [line(5.0)]),
                encode_batch("m1", 1, 2, [line(8.0, value="busy")]),
                encode_batch("m1", 1, 2, [line(8.0, value="busy")]),
            ],
        )
        recovered = recover(directory, backend=backend_for("m1"))
        assert recovered.offsets == {"m1": 2}
        assert recovered.replayed_events == 2
        assert recovered.skipped_records == 1

    def test_offset_gap_is_fatal(self, tmp_path):
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [encode_batch("m1", 0, 1, [line(5.0)]), encode_batch("m1", 5, 6, [line(9.0)])],
        )
        with pytest.raises(DurabilityError, match="gap"):
            recover(directory, backend=backend_for("m1"))

    def test_batch_records_replay_and_dedupe(self, tmp_path):
        directory = str(tmp_path)
        lines = [line(5.0), line(6.0, value="busy"), line(7.0, value="idle")]
        write_wal(
            directory,
            0,
            [encode_batch("m1", 0, 3, lines), encode_batch("m1", 0, 3, lines)],
        )
        recovered = recover(directory, backend=backend_for("m1"))
        assert recovered.offsets == {"m1": 3}
        assert recovered.replayed_events == 3
        assert recovered.skipped_records == 1

    def test_a_span_with_nothing_delivered_advances_the_watermark(self, tmp_path):
        """Every record of [1, 4) was dropped on the way: the frame still
        says the offsets were consumed, so the next batch does not gap."""
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [
                encode_batch("m1", 0, 1, [line(5.0)]),
                encode_batch("m1", 1, 4, []),
                encode_batch("m1", 4, 5, [line(9.0, value="busy")]),
            ],
        )
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.offsets == {"m1": 5}
        assert recovered.replayed_events == 2
        assert activity_rows(backend) == [("m1", "busy", 9.0)]

    def test_batch_gap_is_fatal(self, tmp_path):
        directory = str(tmp_path)
        write_wal(directory, 0, [encode_batch("m1", 4, 6, [line(5.0), line(6.0)])])
        with pytest.raises(DurabilityError, match="gap"):
            recover(directory)

    def test_heartbeats_stay_monotonic(self, tmp_path):
        directory = str(tmp_path)
        write_wal(
            directory,
            0,
            [encode_heartbeat("m1", 10.0), encode_heartbeat("m1", 5.0)],
        )
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.recency == {"m1": 10.0}
        assert recovered.replayed_heartbeats == 1
        assert recovered.skipped_records == 1
        assert dict(backend.heartbeat_rows()) == {"m1": 10.0}

    def test_torn_tail_is_counted_and_repaired(self, tmp_path):
        directory = str(tmp_path)
        write_wal(directory, 0, [encode_batch("m1", 0, 1, [line(5.0)]), b"oops"])
        path = wal_path(directory, 0)
        with open(path, "rb+") as fp:
            fp.truncate(os.path.getsize(path) - 2)
        recovered = recover(directory, backend=backend_for("m1"))
        assert recovered.torn_segments == [path]
        assert recovered.replayed_events == 1
        # repair=True truncated the tail in place: a rescan is now clean.
        assert recover(directory).torn_segments == []


class TestCheckpointRestore:
    def checkpointed_dir(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(
            directory,
            2,
            {
                "database": {
                    "tables": {"activity": [["m1", "idle", 5.0]]},
                    "heartbeats": [["m1", 5.0]],
                },
                "ingest": {
                    "offsets": {"m1": 3},
                    "recency": {"m1": 5.0},
                    "last_loaded": {"m1": 5.0},
                },
            },
        )
        return directory

    def test_snapshot_restored_then_tail_replayed(self, tmp_path):
        directory = self.checkpointed_dir(tmp_path)
        write_wal(directory, 1, [encode_batch("m1", 99, 100, [line(1.0)])])  # stale epoch
        write_wal(directory, 2, [encode_batch("m1", 3, 4, [line(7.0, value="busy")])])
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.epoch == 2 and recovered.has_checkpoint
        assert recovered.segments == [wal_path(directory, 2)]
        assert recovered.offsets == {"m1": 4}
        assert activity_rows(backend) == [("m1", "busy", 7.0)]

    def test_checkpoint_alone_restores_watermarks(self, tmp_path):
        directory = self.checkpointed_dir(tmp_path)
        backend = backend_for("m1")
        recovered = recover(directory, backend=backend)
        assert recovered.offsets == {"m1": 3}
        assert recovered.recency == {"m1": 5.0}
        assert activity_rows(backend) == [("m1", "idle", 5.0)]
        assert dict(backend.heartbeat_rows()) == {"m1": 5.0}

    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        directory = self.checkpointed_dir(tmp_path)
        bad = write_checkpoint(directory, 3, {"ingest": {"offsets": {"m1": 9}}})
        open(bad, "w").write("torn!")
        recovered = recover(directory)
        assert recovered.epoch == 2
        assert recovered.invalid_checkpoints == [bad]
        assert recovered.offsets == {"m1": 3}


class TestRestoreDatabase:
    def test_clears_preexisting_rows(self):
        backend = backend_for("m1", "m2")
        backend.insert_rows("activity", [("m2", "busy", 1.0)])
        backend.upsert_heartbeat("m2", 1.0)
        restore_database(
            backend,
            {
                "tables": {"activity": [["m1", "idle", 5.0]]},
                "heartbeats": [["m1", 5.0]],
            },
        )
        assert activity_rows(backend) == [("m1", "idle", 5.0)]
        assert dict(backend.heartbeat_rows()) == {"m1": 5.0}
