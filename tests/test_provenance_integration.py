"""End-to-end row provenance: report → metrics → observatory → flight.

The acceptance contract for the provenance layer:

* with lineage enabled, every Q1–Q4 result row carries a non-empty source
  set that is a subset of the report's relevant-source set (no row ever
  cites an irrelevant source);
* row quality degrades monotonically as staleness is injected into a
  contributing source;
* the quality rollup reaches every surface — the ``trac_row_quality``
  histogram and ``trac_rows_from_exceptional_total`` counter, the
  ``/provenance/<trace_id>`` observatory view, the ``POST /v1/query``
  response body, slow-query events, and flight dumps.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.report import RecencyReporter
from repro.core.sources import SourceRegistry
from repro.obs import Telemetry
from repro.obs.export import prometheus_text
from repro.obs.flight import FlightRecorder
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    workload_catalog,
)
from repro.workload.queries import paper_queries, query_machine_indexes

NUM_SOURCES = 24


def get(url, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=5.0) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture(scope="module")
def workload_backend():
    catalog = workload_catalog(NUM_SOURCES)
    backend = MemoryBackend(catalog)
    config = WorkloadConfig(num_sources=NUM_SOURCES, data_ratio=4)
    load_workload(
        backend, generate_workload(config, query_machine_indexes(NUM_SOURCES))
    )
    return backend


class TestPaperQueriesAcceptance:
    def test_every_result_row_cites_only_relevant_sources(self, workload_backend):
        reporter = RecencyReporter(
            workload_backend, lineage=True, create_temp_tables=False
        )
        for name, sql in paper_queries(NUM_SOURCES).items():
            report = reporter.report(sql)
            assert report.provenance is not None, name
            assert report.result.rows[0][0] > 0, f"{name} matched no rows"
            relevant = report.relevant_source_ids
            for sources in report.provenance["row_sources"]:
                assert sources, f"{name}: row with empty source set"
                assert set(sources) <= relevant, (
                    f"{name}: row cites sources outside the relevant set: "
                    f"{sorted(set(sources) - relevant)}"
                )

    def test_lineage_off_reports_no_provenance(self, workload_backend):
        reporter = RecencyReporter(workload_backend, create_temp_tables=False)
        report = reporter.report(paper_queries(NUM_SOURCES)["Q1"])
        assert report.provenance is None
        assert report.row_quality is None

    def test_quality_degrades_monotonically_with_injected_staleness(
        self, workload_backend
    ):
        reporter = RecencyReporter(
            workload_backend,
            lineage=True,
            create_temp_tables=False,
            sources=SourceRegistry(target_p95=30.0),
        )
        sql = paper_queries(NUM_SOURCES)["Q1"]
        baseline = reporter.report(sql)
        victim = sorted(baseline.relevant_source_ids)[0]
        previous = baseline.provenance["quality"]["worst_row_quality"]
        assert previous is not None
        original = next(
            rec
            for sid, rec in workload_backend.heartbeat_rows()
            if str(sid) == victim
        )
        try:
            worsening = []
            for lag in (60.0, 300.0, 3000.0):
                workload_backend.upsert_heartbeat(victim, original - lag)
                worst = reporter.report(sql).provenance["quality"]["worst_row_quality"]
                worsening.append(worst)
            assert worsening[0] < previous
            assert worsening == sorted(worsening, reverse=True)
        finally:
            workload_backend.upsert_heartbeat(victim, original)


@pytest.fixture()
def small_backend():
    from repro.catalog import Catalog, Column, TableSchema

    catalog = Catalog()
    catalog.add(
        TableSchema(
            "t1", [Column("s", "TEXT"), Column("x", "INTEGER")], source_column="s"
        )
    )
    backend = MemoryBackend(catalog)
    backend.create_tables()
    backend.insert_rows("t1", [("a", 1), ("b", 2)])
    backend.upsert_heartbeat("a", 100.0)
    backend.upsert_heartbeat("b", 40.0)
    return backend


class TestTelemetrySurfaces:
    def test_quality_histogram_and_exceptional_counter(self, small_backend):
        # A z-score outlier needs a fleet: max |z| over n sources is
        # (n-1)/sqrt(n), so 3 sources can never cross the 3.0 threshold.
        for i in range(12):
            small_backend.insert_rows("t1", [(f"m{i}", i)])
            small_backend.upsert_heartbeat(f"m{i}", 100.0 + i * 0.01)
        small_backend.insert_rows("t1", [("c", 3)])
        small_backend.upsert_heartbeat("c", -5000.0)  # far outlier: exceptional
        tel = Telemetry()
        reporter = RecencyReporter(
            small_backend, telemetry=tel, lineage=True, create_temp_tables=False
        )
        report = reporter.report("SELECT t1.s FROM t1")
        assert report.provenance["quality"]["rows_from_exceptional"] >= 1
        text = prometheus_text(tel.metrics)
        assert "trac_row_quality_bucket" in text
        assert "trac_rows_from_exceptional_total" in text

    def test_provenance_ring_records_trace_id(self, small_backend):
        tel = Telemetry()
        reporter = RecencyReporter(
            small_backend, telemetry=tel, lineage=True, create_temp_tables=False
        )
        report = reporter.report("SELECT t1.x FROM t1")
        records = tel.provenance.for_trace(report.trace_id)
        assert len(records) == 1
        assert records[0].provenance is report.provenance
        assert records[0].to_dict()["row_provenance"] == [["a"], ["b"]]
        assert records[0].to_dict()["quality"]["rows"] == 2

    def test_slow_query_event_carries_quality(self, small_backend, monkeypatch):
        monkeypatch.setenv("TRAC_SLOW_QUERY_SECONDS", "1e-9")  # everything is slow
        tel = Telemetry()
        reporter = RecencyReporter(
            small_backend,
            telemetry=tel,
            lineage=True,
            create_temp_tables=False,
        )
        reporter.report("SELECT t1.s FROM t1")
        slow = [e for e in tel.events.tail(50) if e.name == "query.slow"]
        assert slow
        attrs = slow[-1].attributes
        assert "worst_row_quality" in attrs
        assert attrs["top_sources"]  # [[source, rows], ...]

    def test_flight_dump_includes_provenance(self, small_backend, tmp_path):
        tel = Telemetry()
        reporter = RecencyReporter(
            small_backend, telemetry=tel, lineage=True, create_temp_tables=False
        )
        reporter.report("SELECT t1.s FROM t1")
        recorder = FlightRecorder(tel, str(tmp_path))
        path = recorder.dump(reason="manual")
        payload = json.loads(open(path).read())
        assert payload["provenance"]
        assert payload["provenance"][-1]["row_provenance"] == [["a"], ["b"]]
        assert payload["provenance"][-1]["quality"]["rows"] == 2


class TestObservatoryEndpoints:
    def test_query_endpoint_gains_provenance_block(self, small_backend, tmp_path):
        tel = Telemetry()
        with QueryService(
            small_backend, ServeConfig(workers=1, lineage=True), telemetry=tel
        ) as service, ObservatoryServer(tel, query_service=service) as server:
            _, body = get(server.url + "/v1/query", body={"sql": "SELECT t1.s FROM t1"})
            doc = json.loads(body)
            assert doc["provenance"]["row_sources"] == [["a"], ["b"]]
            assert doc["provenance"]["quality"]["rows"] == 2
            # The trace_id pivots to the dedicated provenance view.
            status, body = get(server.url + "/provenance/" + doc["trace_id"])
        assert status == 200
        view = json.loads(body)
        assert view["trace_id"] == doc["trace_id"]
        (record,) = view["provenance"]
        # One document on every surface: the served block, the ring record
        # and the flight dump's entry carry the same lists.
        block = doc["provenance"]
        assert record["row_provenance"] == block["row_sources"] == [["a"], ["b"]]
        assert record["quality"] == block["quality"]
        path = FlightRecorder(tel, str(tmp_path)).dump(reason="manual")
        (dumped,) = [
            entry
            for entry in json.loads(open(path).read())["provenance"]
            if entry["trace_id"] == doc["trace_id"]
        ]
        assert dumped == record
        quality = block["quality"]
        assert quality["worst_row_quality"] == min(s["quality"] for s in quality["sources"])
        assert quality["per_source_rows"] == {"a": 1, "b": 1}
        assert [s["source_id"] for s in quality["sources"]] == ["a", "b"]

    def test_unknown_provenance_trace_is_404(self, small_backend):
        tel = Telemetry()
        with ObservatoryServer(tel) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/provenance/" + "0" * 32)
        assert excinfo.value.code == 404

    def test_query_without_lineage_has_no_provenance_block(self, small_backend):
        tel = Telemetry()
        with QueryService(
            small_backend, ServeConfig(workers=1), telemetry=tel
        ) as service, ObservatoryServer(tel, query_service=service) as server:
            _, body = get(server.url + "/v1/query", body={"sql": "SELECT t1.s FROM t1"})
        assert "provenance" not in json.loads(body)


class TestServingProvenance:
    def test_v1_query_response_carries_trace_id_and_provenance(self, small_backend):
        tel = Telemetry()
        with QueryService(
            small_backend, ServeConfig(workers=2, lineage=True), telemetry=tel
        ) as service:
            response = service.query("SELECT t1.s FROM t1")
        assert response["trace_id"]
        assert response["provenance"]["row_sources"] == [["a"], ["b"]]
        assert response["provenance"]["quality"]["worst_row_quality"] is not None

    def test_lineage_off_by_default_in_serving(self, small_backend):
        with QueryService(small_backend, ServeConfig(workers=2)) as service:
            response = service.query("SELECT t1.s FROM t1")
        assert "provenance" not in response
