"""File-backed log tests: archive a simulation, replay it, compare."""

import pytest

from repro import MemoryBackend
from repro.errors import SimulationError
from repro.grid.events import EventKind, LogEvent
from repro.grid.persist import (
    FileLog,
    FileLogWriter,
    FileSource,
    archive_simulation,
    discover_logs,
    log_path,
    replay_directory,
)
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig


def hb(t, source="m1"):
    return LogEvent(t, source, EventKind.HEARTBEAT)


class TestFileLogWriter:
    def test_creates_file_with_header(self, tmp_path):
        path = str(tmp_path / "m1.log")
        FileLogWriter(path, "m1")
        assert open(path).read().startswith("# trac-log v1")

    def test_append_and_read_back(self, tmp_path):
        path = str(tmp_path / "m1.log")
        writer = FileLogWriter(path, "m1")
        writer.append(hb(1.0))
        writer.append(hb(2.0))
        log = FileLog(path, "m1")
        events, offset = log.read_from(0, up_to_time=10.0)
        assert [e.timestamp for e in events] == [1.0, 2.0]
        assert offset == 2

    def test_ownership_enforced(self, tmp_path):
        writer = FileLogWriter(str(tmp_path / "m1.log"), "m1")
        with pytest.raises(SimulationError):
            writer.append(hb(1.0, source="m2"))

    def test_monotone_timestamps_enforced(self, tmp_path):
        writer = FileLogWriter(str(tmp_path / "m1.log"), "m1")
        writer.append(hb(5.0))
        with pytest.raises(SimulationError):
            writer.append(hb(4.0))

    def test_reopen_appends(self, tmp_path):
        path = str(tmp_path / "m1.log")
        FileLogWriter(path, "m1").append(hb(1.0))
        FileLogWriter(path, "m1").append(hb(2.0))
        assert len(FileLog(path, "m1")) == 2


class TestFileLog:
    def test_missing_file_is_empty(self, tmp_path):
        log = FileLog(str(tmp_path / "nope.log"), "m1")
        assert len(log) == 0
        assert log.read_from(0, 10.0) == ([], 0)

    def test_horizon_respected(self, tmp_path):
        path = str(tmp_path / "m1.log")
        writer = FileLogWriter(path, "m1")
        for t in (1.0, 2.0, 3.0):
            writer.append(hb(t))
        events, offset = FileLog(path, "m1").read_from(0, up_to_time=2.5)
        assert offset == 2

    def test_foreign_event_rejected(self, tmp_path):
        path = str(tmp_path / "m1.log")
        with open(path, "w") as handle:
            handle.write("1.0 m2 HEARTBEAT\n")
        with pytest.raises(SimulationError):
            FileLog(path, "m1").read_from(0, 10.0)

    def test_invalid_offset(self, tmp_path):
        path = str(tmp_path / "m1.log")
        FileLogWriter(path, "m1").append(hb(1.0))
        with pytest.raises(SimulationError):
            FileLog(path, "m1").read_from(5, 10.0)


    def test_a_file_is_parsed_once_per_change(self, tmp_path, monkeypatch):
        """Replaying four files parses each once, reading the backlogs parses
        nothing again, and a record appended between two polls is read."""
        import repro.grid.persist as persist

        sim = GridSimulator(SimulationConfig(num_machines=4, seed=5))
        sim.run(60)
        archive_simulation(sim, str(tmp_path))
        calls = []
        parse = persist.read_log_events
        monkeypatch.setattr(
            persist, "read_log_events", lambda *args: calls.append(args[0]) or parse(*args)
        )
        backend = MemoryBackend(monitoring_catalog(sim.machine_ids))
        sniffers = replay_directory(backend, str(tmp_path))
        assert len(calls) == 4
        assert [sniffer.backlog for sniffer in sniffers.values()] == [0, 0, 0, 0]
        assert len(calls) == 4
        with open(log_path(str(tmp_path), "m2"), "a") as handle:
            handle.write("500.000000 m2 HEARTBEAT\n")
        assert sniffers["m2"].poll(600.0) == 1
        assert sniffers["m2"].backlog == 0 and dict(backend.heartbeat_rows()).get("m2") == 500.0
        assert len(calls) == 5


class TestSnifferOverFileLog:
    def test_standard_sniffer_tails_a_file(self, tmp_path):
        """The same Sniffer implementation works over an on-disk log —
        records appended after the first poll arrive on the next one."""
        path = str(tmp_path / "m1.log")
        writer = FileLogWriter(path, "m1")
        backend = MemoryBackend(monitoring_catalog(["m1"]))
        source = FileSource("m1", FileLog(path, "m1"))
        sniffer = Sniffer(source, backend, SnifferConfig(lag=0.0))

        writer.append(LogEvent(1.0, "m1", EventKind.MACHINE_STATE, {"value": "busy"}))
        assert sniffer.poll(5.0) == 1
        assert dict(backend.heartbeat_rows()).get("m1") == 1.0

        writer.append(LogEvent(6.0, "m1", EventKind.MACHINE_STATE, {"value": "idle"}))
        assert sniffer.poll(10.0) == 1
        rows = backend.execute("SELECT value FROM activity").rows
        assert rows == [("idle",)]


class TestArchiveAndReplay:
    def test_archive_writes_one_file_per_machine(self, tmp_path):
        sim = GridSimulator(SimulationConfig(num_machines=4, seed=5))
        sim.run(60)
        paths = archive_simulation(sim, str(tmp_path))
        assert len(paths) == 4
        assert discover_logs(str(tmp_path)) == {
            f"m{i}": log_path(str(tmp_path), f"m{i}") for i in range(1, 5)
        }

    def test_replay_reproduces_fully_drained_database(self, tmp_path):
        """Offline replay of the archived logs must equal the database a
        fully caught-up live deployment would hold."""
        sim = GridSimulator(
            SimulationConfig(num_machines=5, seed=9, job_submit_probability=0.2)
        )
        sim.submit_job("alice", "m1")
        sim.run(120)
        sim.drain()  # live database, fully caught up
        archive_simulation(sim, str(tmp_path))

        fresh = MemoryBackend(monitoring_catalog(sim.machine_ids))
        sniffers = replay_directory(fresh, str(tmp_path))
        assert set(sniffers) == set(sim.machine_ids)

        for table in ("activity", "routing", "sched_jobs", "run_jobs", "heartbeat"):
            live = sorted(sim.backend.execute(f"SELECT * FROM {table}").rows)
            replayed = sorted(fresh.execute(f"SELECT * FROM {table}").rows)
            assert replayed == live, table

    def test_replay_up_to_time_gives_partial_view(self, tmp_path):
        sim = GridSimulator(SimulationConfig(num_machines=3, seed=2))
        sim.run(100)
        archive_simulation(sim, str(tmp_path))

        partial = MemoryBackend(monitoring_catalog(sim.machine_ids))
        replay_directory(partial, str(tmp_path), up_to_time=50.0)
        for _, recency in partial.heartbeat_rows():
            assert recency <= 50.0


class TestWriterFsyncPolicies:
    """The writer's durability: an append is one write and never an fsync
    (the WAL, not the mirror, is what recovery trusts)."""

    def test_never_skips_append_time_syncs(self, tmp_path, monkeypatch):
        import os as os_module

        calls = []
        real = os_module.fsync
        monkeypatch.setattr(os_module, "fsync", lambda fd: (calls.append(fd), real(fd)))
        with FileLogWriter(str(tmp_path / "m1.log"), "m1") as writer:
            writer.append(hb(1.0))
            writer.append(hb(2.0))
        assert calls == []

    def test_closed_writer_refuses_appends(self, tmp_path):
        from repro.errors import DurabilityError

        writer = FileLogWriter(str(tmp_path / "m1.log"), "m1")
        writer.close()
        with pytest.raises(DurabilityError):
            writer.append(hb(1.0))


class TestTornLogRecovery:
    """Lenient reads and atomic rewrites: the mirror-restore primitives."""

    def torn_log(self, tmp_path):
        path = str(tmp_path / "m1.log")
        with FileLogWriter(path, "m1") as writer:
            writer.append(hb(1.0))
            writer.append(hb(2.0))
        with open(path, "a") as handle:
            handle.write("3.000000 m1 HEART")  # torn mid-line by a crash
        return path

    def test_lenient_read_returns_valid_prefix(self, tmp_path):
        from repro.grid.persist import read_log_events

        events, tear = read_log_events(self.torn_log(tmp_path), "m1", lenient=True)
        assert [e.timestamp for e in events] == [1.0, 2.0]
        assert tear is not None and "line 4" in tear

    def test_the_tear_reason_names_the_line_once(self, tmp_path):
        from repro.grid.persist import read_log_events

        _, tear = read_log_events(self.torn_log(tmp_path), "m1", lenient=True)
        assert tear == "line 4: unknown event kind 'HEART'"

    def test_reopening_a_torn_log_cuts_the_torn_line(self, tmp_path):
        """Appending onto the torn bytes would merge the next record into
        them; the writer cuts back to the last newline first."""
        from repro.grid.persist import read_log_events

        path = self.torn_log(tmp_path)
        with FileLogWriter(path, "m1") as writer:
            writer.append(hb(5.0))
            writer.append(hb(6.0))
        events, tear = read_log_events(path, "m1", lenient=True)
        assert [e.timestamp for e in events] == [1.0, 2.0, 5.0, 6.0] and tear is None
        assert [e.timestamp for e in FileLog(path, "m1")] == [1.0, 2.0, 5.0, 6.0]

    def test_strict_read_raises_on_torn_line(self, tmp_path):
        from repro.grid.persist import read_log_events

        with pytest.raises(SimulationError):
            read_log_events(self.torn_log(tmp_path), "m1")

    def test_rewrite_log_truncates_atomically(self, tmp_path):
        import os

        from repro.grid.persist import read_log_events, rewrite_log

        path = self.torn_log(tmp_path)
        events, _ = read_log_events(path, "m1", lenient=True)
        rewrite_log(path, events[:1])
        assert not os.path.exists(path + ".tmp")
        events, tear = read_log_events(path, "m1", lenient=True)
        assert [e.timestamp for e in events] == [1.0] and tear is None
        # The rewritten file accepts further appends from a fresh writer.
        with FileLogWriter(path, "m1") as writer:
            writer.append(hb(5.0))
        events, _ = read_log_events(path, "m1")
        assert [e.timestamp for e in events] == [1.0, 5.0]
