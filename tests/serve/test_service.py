"""QueryService: serving recency reports with admission control."""

import threading
import time

import pytest

from repro.backends import MemoryBackend, SQLiteBackend, copy_tables
from repro.errors import TracError
from repro.obs import Telemetry
from repro.obs.instrument import (
    SERVE_INFLIGHT,
    SERVE_QUEUE_DEPTH,
    SERVE_REJECTIONS,
    SERVE_REQUEST_SECONDS,
)
from repro.serve import QueryService, ServeConfig
from repro.serve.quota import QuotaExceeded

SQL = "SELECT mach_id FROM activity"


@pytest.fixture
def service(paper_memory_backend):
    with QueryService(paper_memory_backend, ServeConfig(workers=2)) as svc:
        yield svc


class TestQuery:
    def test_response_carries_rows_and_recency_report(self, service):
        doc = service.query(SQL, tenant="alice")
        assert doc["columns"] == ["mach_id"]
        assert sorted(row[0] for row in doc["rows"]) == ["m1", "m2", "m3"]
        assert doc["tenant"] == "alice"
        assert doc["method"] == "focused"
        # No predicate: every machine in the column domain is relevant.
        assert doc["relevant_sources"] == sorted(
            (f"m{i}" for i in range(1, 12)), key=str
        )
        assert doc["exceptional_sources"] == ["m2"]  # the month-stale source
        # Serving skips temp tables, so the exceptional split travels in
        # the structured field; the recency/consistency notices remain.
        assert any("least recent" in notice for notice in doc["notices"])
        assert any("Bound of inconsistency" in notice for notice in doc["notices"])
        assert doc["timings"]["total"] >= 0
        assert doc["queue_wait_seconds"] >= 0

    def test_naive_method_passes_through(self, service):
        doc = service.query(SQL, method="naive")
        assert doc["method"] == "naive"
        assert doc["minimal"] is False

    def test_bad_sql_raises_trac_error(self, service):
        with pytest.raises(TracError):
            service.query("SELECT nope FROM nothing")
        assert service.counts()["error"] == 1

    def test_empty_sql_rejected_before_admission(self, service):
        with pytest.raises(TracError):
            service.query("   ")
        with pytest.raises(TracError):
            service.query(SQL, tenant="")
        with pytest.raises(TracError, match="method"):
            service.query(SQL, method="focused_hardcoded")  # no plan crosses the front door
        with pytest.raises(TracError, match="positive"):
            service.query(SQL, deadline_seconds=-1)
        assert service.quotas.snapshot() == {}

    def test_counts_ok(self, service):
        service.query(SQL)
        service.query(SQL)
        counts = service.counts()
        assert counts["ok"] == 2
        assert counts["error"] == 0

    def test_submit_after_close_raises(self, paper_memory_backend):
        svc = QueryService(paper_memory_backend)
        svc.close()
        with pytest.raises(TracError):
            svc.query(SQL)


def serve_in_background(service, **kwargs):
    """``service.query`` on a thread of its own; returns the thread and a
    list that receives the document or the exception."""
    outcome = []

    def main():
        try:
            outcome.append(service.query(SQL, **kwargs))
        except Exception as exc:  # noqa: BLE001 - asserted by the test
            outcome.append(exc)

    thread = threading.Thread(target=main)
    thread.start()
    return thread, outcome


class TestDeadline:
    def test_a_deadline_that_passes_behind_a_held_slot_is_a_504(self, held_source):
        """The report holding the only slot finishes; the request behind it
        never runs, is counted as a deadline and gives its quota back."""
        tel = Telemetry()
        with QueryService(held_source, ServeConfig(workers=1), telemetry=tel) as svc:
            holder, held = serve_in_background(svc, tenant="first")
            assert held_source.entered.wait(timeout=5.0)
            body = b'{"sql": "SELECT mach_id FROM activity", "deadline_seconds": 0.05}'
            status, doc, _ = svc.handle_http(body)
            assert status == 504 and "deadline" in doc["error"]
            assert held_source.reports == 1  # the late request's report never ran
            assert svc.quotas.inflight("default") == 0
            held_source.release.set()
            holder.join(timeout=10.0)
            counts = svc.counts()
        assert held[0]["tenant"] == "first"  # a started report runs to completion
        assert counts["deadline"] == 1 and counts["ok"] == 1 and counts["error"] == 0
        assert svc.quotas.total_inflight() == 0
        assert svc.pool.stats()["expired"] == 1
        rejections = {
            dict(m.labels)["reason"]: m.value
            for m in tel.metrics.collect()
            if m.name == SERVE_REJECTIONS
        }
        assert rejections == {"deadline": 1.0}


class TestQuotaIntegration:
    def test_quota_rejections_surface_and_are_counted(self, paper_memory_backend):
        config = ServeConfig(workers=1, tenant_rate=0.0, tenant_burst=2.0)
        with QueryService(paper_memory_backend, config) as svc:
            svc.query(SQL)
            svc.query(SQL)
            with pytest.raises(QuotaExceeded) as exc_info:
                svc.query(SQL)
            assert exc_info.value.kind == "quota"
            counts = svc.counts()
        assert counts["ok"] == 2
        assert counts["rejected_quota"] == 1

    def test_quota_released_after_completion(self, paper_memory_backend):
        config = ServeConfig(workers=1, max_inflight=1)
        with QueryService(paper_memory_backend, config) as svc:
            for _ in range(3):  # sequential: inflight never exceeds 1
                svc.query(SQL)
            assert svc.quotas.total_inflight() == 0


class TestTelemetry:
    def test_latency_histogram_and_trace_id(self, paper_memory_backend):
        tel = Telemetry()
        with QueryService(paper_memory_backend, telemetry=tel) as svc:
            doc = svc.query(SQL, tenant="alice")
            assert doc["trace_id"] is not None
            histograms = [
                m for m in tel.metrics.collect() if m.name == SERVE_REQUEST_SECONDS
            ]
            assert len(histograms) == 1
            assert histograms[0].count == 1
            assert dict(histograms[0].labels) == {"tenant": "alice"}
            p99 = svc.latency_quantile_ms(0.99)
            assert p99 is not None and p99 > 0
            # The serve span landed in the tracer with the request's trace.
            names = [s.name for s in tel.tracer.finished_spans()]
            assert "serve.request" in names

    def test_serve_span_is_a_child_of_the_span_open_on_the_calling_thread(
        self, paper_memory_backend
    ):
        """The report runs on the caller's thread, so ``serve.request`` nests
        under whatever span is open there (the server's ``http.request``)
        with nothing handed across."""
        tel = Telemetry()
        with QueryService(paper_memory_backend, telemetry=tel) as svc:
            with tel.tracer.span("caller") as caller:
                doc = svc.query(SQL)
        serve = next(s for s in tel.tracer.finished_spans() if s.name == "serve.request")
        assert serve.parent_id == caller.span_id
        assert doc["trace_id"] == caller.trace_id_hex == serve.trace_id_hex

    def test_disabled_telemetry_still_serves(self, service):
        doc = service.query(SQL)
        assert "trace_id" not in doc and "profile" not in doc
        assert service.latency_quantile_ms() is None


class TestServingStatus:
    def test_status_document_shape(self, service):
        service.query(SQL, tenant="bob")
        status = service.serving_status()
        assert status["workers"] == 2
        assert status["requests"]["ok"] == 1
        assert status["inflight"] == 0
        assert "bob" in status["tenants"]
        assert status["req_per_s"] >= 0


class TestGauges:
    @staticmethod
    def gauges(tel):
        return {
            m.name: m.value
            for m in tel.metrics.collect()
            if m.name in (SERVE_INFLIGHT, SERVE_QUEUE_DEPTH)
        }

    def test_inflight_shows_a_request_while_it_runs(self, held_source):
        tel = Telemetry()
        with QueryService(held_source, ServeConfig(workers=1), telemetry=tel) as svc:
            thread, _ = serve_in_background(svc)
            try:
                assert held_source.entered.wait(timeout=5.0)
                assert self.gauges(tel)[SERVE_INFLIGHT] >= 1
            finally:
                held_source.release.set()
                thread.join(timeout=10.0)
            assert self.gauges(tel) == {SERVE_INFLIGHT: 0.0, SERVE_QUEUE_DEPTH: 0.0}

    def test_both_gauges_read_zero_after_a_burst_drains(self, held_source):
        tel = Telemetry()
        with QueryService(held_source, ServeConfig(workers=1), telemetry=tel) as svc:
            threads = [serve_in_background(svc)[0] for _ in range(4)]
            try:
                assert held_source.entered.wait(timeout=5.0)
                deadline = time.monotonic() + 5.0
                while svc.pool.queued() < 3:  # one runs, three wait
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            finally:
                held_source.release.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert svc.counts()["ok"] == 4
            assert self.gauges(tel) == {SERVE_INFLIGHT: 0.0, SERVE_QUEUE_DEPTH: 0.0}


class _WriterBesideEveryRead(MemoryBackend):
    """A simulator tick lands right after every table read: each tick moves
    every table (and m1's heartbeat) to a new instant."""

    ticks = 0

    def _execute_on(self, db, sql, *args, **kwargs):
        result = super()._execute_on(db, sql, *args, **kwargs)
        self.ticks += 1
        self.upsert_heartbeat("m1", 5_000_000_000.0 + self.ticks)
        self.insert_rows("activity", [("m1", "busy", float(self.ticks))])
        self.insert_rows("routing", [("m1", "m2", float(self.ticks))])
        return result


class TestMirror:
    def test_mirror_is_one_snapshot_beside_a_writer(self, paper_catalog, paper_memory_backend):
        source = _WriterBesideEveryRead(paper_catalog)
        for schema in paper_catalog:
            source.insert_rows(
                schema.name, paper_memory_backend.execute(f"SELECT * FROM {schema.name}").rows
            )
        tables = [schema.name for schema in paper_catalog]

        def rows_of(backend):
            return {t: sorted(backend.execute(f"SELECT * FROM {t}").rows) for t in tables}

        instant = rows_of(paper_memory_backend)

        memory = copy_tables(source, MemoryBackend(paper_catalog))

        assert source.ticks >= len(tables)  # the writer really ran beside the copy
        mirrored = rows_of(memory)
        assert mirrored == instant  # every table from the same instant: none saw a tick

    def test_mirror_into_memory_copies_all_tables(self, paper_sqlite_backend):
        memory = copy_tables(paper_sqlite_backend, MemoryBackend(paper_sqlite_backend.catalog))
        rows = memory.execute("SELECT mach_id FROM activity").rows
        assert sorted(r[0] for r in rows) == ["m1", "m2", "m3"]
        heartbeats = dict(memory.heartbeat_rows())
        assert set(heartbeats) == {f"m{i}" for i in range(1, 12)}
        with QueryService(memory) as svc:
            doc = svc.query(SQL)
            assert doc["exceptional_sources"] == ["m2"]

    def test_the_export_is_the_same_copy_and_replaces_what_the_file_held(
        self, paper_memory_backend, tmp_path
    ):
        """Memory → SQLite file (``trac simulate --db`` at exit) is the same
        function; rows a previous run left in the file do not survive it."""
        path = str(tmp_path / "export.sqlite")
        with SQLiteBackend(paper_memory_backend.catalog, path) as stale:
            stale.insert_rows("activity", [("m9", "idle", 1.0)])
            stale.upsert_heartbeat("m99", 1.0)
        with SQLiteBackend(paper_memory_backend.catalog, path) as exported:
            assert copy_tables(paper_memory_backend, exported) is exported
        with SQLiteBackend.open(path) as reopened:
            for schema in paper_memory_backend.catalog:
                sql = f"SELECT * FROM {schema.name}"
                assert sorted(reopened.execute(sql).rows) == sorted(
                    paper_memory_backend.execute(sql).rows
                )
