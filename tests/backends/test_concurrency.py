"""Concurrency stress tests: reports stay internally consistent while
sniffer-like writers commit continuously through separate connections, and
memory-backend snapshots see each sniffer poll whole.

This is the deployment reality the paper targets: the monitoring database
is written around the clock, and every recencyReport must still observe one
snapshot.
"""

import sqlite3
import sys
import threading
import time

import pytest

from repro import Catalog, Column, FiniteDomain, MemoryBackend, SQLiteBackend, TableSchema
from repro.backends.base import UPSERT
from repro.core.report import RecencyReporter
from repro.obs.instrument import Telemetry

SOURCES = [f"m{i}" for i in range(1, 6)]


def catalog():
    machines = FiniteDomain(SOURCES)
    return Catalog(
        [
            TableSchema(
                "activity",
                [
                    Column("mach_id", "TEXT", machines),
                    Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
                    Column("seq", "INTEGER"),
                ],
                source_column="mach_id",
            )
        ]
    )


@pytest.mark.parametrize("rounds", [60])
def test_reports_see_consistent_snapshots_under_writes(tmp_path, rounds):
    """Invariant: within one report, the per-source activity row counts and
    the heartbeat values must come from the same instant. The writer keeps
    them coupled (it bumps heartbeat to the seq it just wrote), so a report
    mixing table states across writes would show heartbeat < max(seq)."""
    backend = SQLiteBackend(catalog(), str(tmp_path / "db.sqlite"))
    for source in SOURCES:
        backend.upsert_heartbeat(source, 0.0)

    stop = threading.Event()
    writer_error = []

    def writer():
        conn = sqlite3.connect(backend.path)
        try:
            seq = 0
            while not stop.is_set():
                seq += 1
                for source in SOURCES:
                    conn.execute(
                        "INSERT INTO activity VALUES (?, 'idle', ?)", (source, seq)
                    )
                    conn.execute(
                        "UPDATE heartbeat SET recency = ? WHERE source_id = ?",
                        (float(seq), source),
                    )
                conn.commit()  # one atomic round for all sources
        except Exception as exc:  # pragma: no cover - surfaced in the assert
            writer_error.append(exc)
        finally:
            conn.close()

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        reporter = RecencyReporter(backend, create_temp_tables=False)
        # Wait for the writer's first committed round before checking.
        deadline = time.time() + 10.0
        while time.time() < deadline:
            if backend.execute("SELECT COUNT(*) FROM activity").scalar():
                break
            time.sleep(0.01)
        assert not writer_error, writer_error

        seen_progress = set()
        for _ in range(rounds):
            report = reporter.report("SELECT MAX(seq) FROM activity A")
            max_seq = report.result.scalar()
            if max_seq is None:
                continue
            recencies = {s.source_id: s.recency for s in report.normal_sources}
            recencies.update(
                {s.source_id: s.recency for s in report.exceptional_sources}
            )
            # Same snapshot: every source's heartbeat equals the round that
            # produced max(seq) — the writer commits them together.
            assert set(recencies) == set(SOURCES)
            for source, recency in recencies.items():
                assert recency == float(max_seq), (
                    f"report mixed snapshots: max(seq)={max_seq} but "
                    f"{source} heartbeat={recency}"
                )
            seen_progress.add(max_seq)
            time.sleep(0.002)
        # The writer really ran concurrently with the reports.
        assert len(seen_progress) >= 1
    finally:
        stop.set()
        thread.join(timeout=10)
        backend.close()
    assert not writer_error, writer_error


def test_a_memory_snapshot_sees_each_poll_whole():
    """``apply_poll`` lands a poll's rows and its heartbeat under one lock
    hold: a snapshot taken beside a writer never holds a row newer than the
    heartbeat that publishes it (nor the heartbeat without the row)."""
    backend = MemoryBackend(catalog())
    stop = threading.Event()

    def writer(source):
        seq = 0
        while not stop.is_set():
            seq += 1
            row = (source, "idle", seq)
            backend.apply_poll([(UPSERT, "activity", ("mach_id",), row)], source, float(seq))

    writers = [threading.Thread(target=writer, args=(source,)) for source in SOURCES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 30.0
    try:
        for thread in writers:
            thread.start()
        for _ in range(500):
            assert time.monotonic() < deadline
            with backend.snapshot() as snap:
                rows = snap.execute("SELECT mach_id, seq FROM activity").rows
                beats = snap.execute("SELECT source_id, recency FROM heartbeat").rows
            assert {source: float(seq) for source, seq in rows} == dict(beats)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in writers:
            thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in writers)


def test_a_snapshot_lookup_equals_its_scan_beside_polls():
    """A snapshot reads the Heartbeat through the key index its parent keeps
    writing: one thread polls new and existing sources while another runs
    ``source_id IN (...)`` in snapshots. Each lookup must equal the same
    snapshot's answer with the index out of the way (a ``NOT (... NOT IN
    ...)`` is no conjunct, so it scans)."""
    backend = MemoryBackend(catalog(), telemetry=Telemetry())
    stop = threading.Event()

    def writer():
        seq = 0
        while not stop.is_set():
            seq += 1
            for source in (f"n{seq % 400}", SOURCES[seq % len(SOURCES)]):
                row = (source, "idle", seq)
                backend.apply_poll([(UPSERT, "activity", ("mach_id",), row)], source, float(seq))

    thread = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    deadline = time.monotonic() + 30.0
    looked_up = 0
    try:
        thread.start()
        for i in range(200):
            assert time.monotonic() < deadline
            wanted = ", ".join(f"'{s}'" for s in ("m1", "m4", f"n{i}", f"n{2 * i}", "n1"))
            with backend.snapshot() as snap:
                lookup = snap.execute(
                    f"SELECT source_id, recency FROM heartbeat WHERE source_id IN ({wanted})")
                scan = snap.execute(
                    "SELECT source_id, recency FROM heartbeat "
                    f"WHERE NOT (source_id NOT IN ({wanted}))")
            assert lookup.rows == scan.rows
            looked_up += lookup.profile.operators[0].detail.startswith("index lookup")
            assert scan.profile.operators[0].op == "cross_product"
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert looked_up == 200


def test_many_sequential_reports_with_interleaved_writes(tmp_path):
    """Alternating writes and reports never deadlock and always terminate
    (WAL readers don't block the writer and vice versa)."""
    backend = SQLiteBackend(catalog(), str(tmp_path / "db.sqlite"))
    writer = sqlite3.connect(backend.path)
    reporter = RecencyReporter(backend, create_temp_tables=False)
    try:
        for i in range(1, 40):
            source = SOURCES[i % len(SOURCES)]
            writer.execute("INSERT INTO activity VALUES (?, 'idle', ?)", (source, i))
            writer.execute(
                "INSERT INTO heartbeat VALUES (?, ?) "
                "ON CONFLICT(source_id) DO UPDATE SET recency = excluded.recency",
                (source, float(i)),
            )
            writer.commit()
            report = reporter.report(
                f"SELECT COUNT(*) FROM activity A WHERE A.mach_id = '{source}'"
            )
            assert report.relevant_source_ids == {source}
            assert report.result.scalar() >= 1
    finally:
        writer.close()
        backend.close()
