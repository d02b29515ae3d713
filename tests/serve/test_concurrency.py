"""Hammering the service concurrently: no corruption, exact admission."""

import threading

import pytest

from repro.obs import Telemetry
from repro.obs.instrument import SERVE_REQUEST_SECONDS
from repro.serve import QueryService, ServeConfig
from repro.serve.quota import QuotaExceeded, TenantQuotas
from tests.conftest import BASE_TIME

SQL = "SELECT mach_id FROM activity"


def hammer(threads: int, work):
    """Run ``work(index)`` on N threads released by a barrier; re-raise errors."""
    barrier = threading.Barrier(threads)
    errors = []

    def runner(index):
        barrier.wait(timeout=10.0)
        try:
            work(index)
        except Exception as exc:  # noqa: BLE001 - collected for the assert below
            errors.append(exc)

    workers = [threading.Thread(target=runner, args=(i,)) for i in range(threads)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in workers), "a hammer thread hung"
    return errors


class TestConcurrentQueries:
    THREADS = 12
    PER_THREAD = 5

    def test_parallel_queries_with_concurrent_writes(self, paper_memory_backend):
        """Readers on CoW snapshots race a writer mutating the live tables."""
        tel = Telemetry()
        config = ServeConfig(workers=6, queue_depth=256, tenant_rate=10_000.0,
                             tenant_burst=10_000.0, max_inflight=256)
        stop_writing = threading.Event()

        def write_beats():
            # Bounded work: a hot loop grows `activity` (and so every racing
            # query's scan) with host load until a request outlives its
            # deadline. One beat per millisecond at most, 2000 at most; the
            # wait also yields the interpreter to the readers.
            for beat in range(1, 2001):
                if stop_writing.wait(0.001):
                    break
                paper_memory_backend.upsert_heartbeat("m1", BASE_TIME + beat)
                paper_memory_backend.insert_rows(
                    "activity", [(f"m{1 + beat % 3}", "busy", BASE_TIME + beat)]
                )

        docs = []
        docs_lock = threading.Lock()
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            writer = threading.Thread(target=write_beats)
            writer.start()
            try:
                def work(index):
                    for _ in range(self.PER_THREAD):
                        doc = svc.query(SQL, tenant=f"t{index % 3}")
                        with docs_lock:
                            docs.append(doc)

                errors = hammer(self.THREADS, work)
            finally:
                stop_writing.set()
                writer.join(timeout=10.0)
            counts = svc.counts()

        assert errors == []
        total = self.THREADS * self.PER_THREAD
        assert len(docs) == total
        assert counts["ok"] == total
        for doc in docs:
            # Every response is internally consistent: a snapshot saw the
            # three seed machines plus whatever the writer had appended.
            assert doc["columns"] == ["mach_id"]
            machines = {row[0] for row in doc["rows"]}
            assert {"m1", "m2", "m3"} <= machines <= {"m1", "m2", "m3", "m4"}
            assert len(doc["trace_id"]) == 32

    def test_telemetry_survives_the_hammer_uncorrupted(self, paper_memory_backend):
        tel = Telemetry()
        config = ServeConfig(workers=6, queue_depth=256, tenant_rate=10_000.0,
                             tenant_burst=10_000.0, max_inflight=256)
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            errors = hammer(
                self.THREADS,
                lambda i: [svc.query(SQL, tenant=f"t{i % 3}")
                           for _ in range(self.PER_THREAD)],
            )
        assert errors == []
        total = self.THREADS * self.PER_THREAD

        # Histogram: per-tenant counts sum exactly — no lost updates.
        histograms = [m for m in tel.metrics.collect()
                      if m.name == SERVE_REQUEST_SECONDS]
        assert sum(h.count for h in histograms) == total
        assert {dict(h.labels)["tenant"] for h in histograms} == {"t0", "t1", "t2"}
        for h in histograms:
            # Bucket counts are cumulative and monotone when consistent.
            counts = [c for _, c in h.bucket_counts()]
            assert counts == sorted(counts)
            assert counts[-1] == h.count

        # Tracer: one serve span per request, each with a distinct trace.
        serve_spans = [s for s in tel.tracer.finished_spans()
                       if s.name == "serve.request"]
        assert len(serve_spans) == total
        assert len({s.trace_id for s in serve_spans}) == total

        # Rings stayed structurally sound (snapshots are lists, JSON-able).
        assert isinstance(tel.profiles.snapshot(), list)
        for event in tel.events.tail(50):
            assert event.to_dict()

    def test_quota_rejections_are_exact_under_contention(self, paper_memory_backend):
        """rate=0, burst=B, N simultaneous submits: exactly B admitted."""
        burst = 4
        threads = 16
        config = ServeConfig(workers=4, queue_depth=64, tenant_rate=0.0,
                             tenant_burst=float(burst), max_inflight=64)
        outcomes = []
        lock = threading.Lock()
        with QueryService(paper_memory_backend, config) as svc:
            def work(index):
                try:
                    doc = svc.query(SQL)
                    with lock:
                        outcomes.append(("ok", doc))
                except QuotaExceeded as exc:
                    with lock:
                        outcomes.append(("rejected", exc))

            errors = hammer(threads, work)
            counts = svc.counts()

        assert errors == []
        tally = {"ok": 0, "rejected": 0}
        for kind, _ in outcomes:
            tally[kind] += 1
        assert tally == {"ok": burst, "rejected": threads - burst}
        assert counts["ok"] == burst
        assert counts["rejected_quota"] == threads - burst

    def test_raw_quota_admission_is_atomic(self):
        """The primitive itself: concurrent admits never over-admit."""
        burst = 5
        threads = 32
        quotas = TenantQuotas(rate=0.0, burst=float(burst), max_inflight=threads)
        admitted = []
        rejected = []
        lock = threading.Lock()

        def work(index):
            try:
                quotas.admit("shared")
                with lock:
                    admitted.append(index)
            except QuotaExceeded:
                with lock:
                    rejected.append(index)

        errors = hammer(threads, work)
        assert errors == []
        assert len(admitted) == burst
        assert len(rejected) == threads - burst
        assert quotas.inflight("shared") == burst

    def test_inflight_ceiling_holds_under_contention(self):
        quotas = TenantQuotas(rate=0.0, burst=1000.0, max_inflight=3)
        admitted = []
        lock = threading.Lock()

        def work(index):
            try:
                quotas.admit("shared")
                with lock:
                    admitted.append(index)
            except QuotaExceeded as exc:
                assert exc.kind == "inflight"

        errors = hammer(20, work)
        assert errors == []
        assert len(admitted) == 3


class TestConcurrentBackendSafety:
    def test_snapshot_during_writes_sees_consistent_rows(self, paper_memory_backend):
        """Direct backend hammer: snapshots never observe torn state."""
        stop = threading.Event()

        def write_forever():
            tick = 0
            while not stop.is_set():
                tick += 1
                paper_memory_backend.insert_rows(
                    "activity", [("m1", "idle", BASE_TIME + tick)]
                )

        writer = threading.Thread(target=write_forever)
        writer.start()
        try:
            def work(index):
                for _ in range(20):
                    with paper_memory_backend.snapshot() as snap:
                        rows = snap.execute(SQL).rows
                        assert len(rows) >= 3
                        assert all(len(row) == 1 for row in rows)

            errors = hammer(8, work)
        finally:
            stop.set()
            writer.join(timeout=10.0)
        assert errors == []


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-v"])
