"""The observatory HTTP server, scraped over real sockets."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.sources import DEGRADED, HEALTHY, SourceRegistry
from repro.obs import Telemetry
from repro.obs.server import PROMETHEUS_CONTENT_TYPE, ObservatoryServer
from repro.obs.trace import Tracer


def get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode(
            "utf-8"
        )


@pytest.fixture()
def telemetry():
    tel = Telemetry()
    tel.metrics.counter("trac_probe_total", help="probe").inc(3)
    with tel.tracer.span("work", machine="m1"):
        pass
    tel.emit("sniffer.retry", source="m1", severity="warning", attempt=1)
    return tel


class TestEndpoints:
    def test_metrics_is_prometheus_text(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            status, ctype, body = get(server.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert "trac_probe_total 3" in body

    def test_healthz_reports_degraded_sources(self, telemetry):
        from repro.obs.dashboard import source_rows

        health = SourceRegistry()
        health.mark("m1", HEALTHY)
        health.mark("m2", DEGRADED, reason="silent", at=40.0)
        health.update("m1", breaker="closed")
        health.update("m2", breaker="open")
        status = lambda: {"sources": source_rows({"m1": 50.0}, 60.0, health)}  # noqa: E731
        with ObservatoryServer(telemetry, status_provider=status) as server:
            _, ctype, body = get(server.url + "/healthz")
        assert ctype.startswith("application/json")
        doc = json.loads(body)
        assert doc["status"] == "degraded"
        assert doc["degraded"] == ["m2"]
        assert doc["sources"] == health.health()  # m2 never reported: still listed
        assert doc["breakers"] == {"m1": "closed", "m2": "open"}
        assert doc["events"]["total"] == 1

    def test_healthz_without_health_registry_is_ok(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            doc = json.loads(get(server.url + "/healthz")[2])
        assert doc["status"] == "ok"
        assert doc["sources"] == {}

    def test_spans_ndjson_with_limit(self, telemetry):
        for i in range(5):
            with telemetry.tracer.span(f"extra{i}"):
                pass
        with ObservatoryServer(telemetry) as server:
            _, ctype, body = get(server.url + "/spans?limit=2")
        assert ctype.startswith("application/x-ndjson")
        lines = [json.loads(line) for line in body.splitlines()]
        assert [s["name"] for s in lines] == ["extra3", "extra4"]

    def test_events_ndjson(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            _, _, body = get(server.url + "/events")
        records = [json.loads(line) for line in body.splitlines()]
        assert [r["name"] for r in records] == ["sniffer.retry"]
        assert records[0]["attributes"] == {"attempt": 1}

    def test_status_uses_the_provider(self, telemetry):
        provider = lambda: {"now": 42.0, "sources": []}  # noqa: E731
        with ObservatoryServer(telemetry, status_provider=provider) as server:
            doc = json.loads(get(server.url + "/status")[2])
        assert doc == {"now": 42.0, "sources": []}

    def test_status_defaults_to_healthz_wrapper(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            doc = json.loads(get(server.url + "/status")[2])
        assert doc["healthz"]["status"] == "ok"

    def test_unknown_path_is_404_with_endpoint_list(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/nope")
            assert excinfo.value.code == 404
            doc = json.loads(excinfo.value.read().decode("utf-8"))
        assert "/metrics" in doc["endpoints"]

    @pytest.mark.parametrize(
        "limit", ["bogus", "-1", "99999999999999", "1.5"]
    )
    def test_bad_limit_is_a_client_error(self, telemetry, limit):
        with ObservatoryServer(telemetry) as server:
            for path in ("/events", "/spans"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get(f"{server.url}{path}?limit={limit}")
                assert excinfo.value.code == 400
                doc = json.loads(excinfo.value.read().decode("utf-8"))
                assert "limit" in doc["error"]


class TestTracingEndpoints:
    def test_requests_record_http_latency_histogram(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            get(server.url + "/healthz")
            # The latency lands after the response is on the wire, so a
            # scrape on a fresh connection can overtake it.
            deadline = time.monotonic() + 5.0
            body = ""
            while 'path="/healthz"' not in body and time.monotonic() < deadline:
                _, _, body = get(server.url + "/metrics")
        assert "trac_http_request_seconds_bucket" in body
        assert 'path="/healthz"' in body

    def test_traceparent_header_joins_the_callers_trace(self, telemetry):
        caller_trace = "f" * 31 + "e"
        header = {"traceparent": f"00-{caller_trace}-00f067aa0ba902b7-01"}
        with ObservatoryServer(telemetry) as server:
            request = urllib.request.Request(server.url + "/healthz", headers=header)
            with urllib.request.urlopen(request, timeout=5.0):
                pass
            # The request span closes on the handler thread just after
            # the response body is sent; wait for it to land.
            deadline = time.monotonic() + 5.0
            spans = telemetry.tracer.spans_for_trace(caller_trace)
            while not spans and time.monotonic() < deadline:
                time.sleep(0.01)
                spans = telemetry.tracer.spans_for_trace(caller_trace)
        assert [s.name for s in spans] == ["http.request"]
        assert spans[0].parent_id == 0x00F067AA0BA902B7

    def test_profile_endpoint_serves_recorded_profiles(self, telemetry):
        from repro.engine.profile import QueryProfile

        profile = QueryProfile("SELECT 1")
        profile.trace_id = "ab" * 16
        telemetry.profiles.record(profile)
        with ObservatoryServer(telemetry) as server:
            _, ctype, body = get(server.url + "/profile")
        assert ctype.startswith("application/json")
        docs = json.loads(body)
        assert [d["sql"] for d in docs] == ["SELECT 1"]

    def test_trace_endpoint_correlates_spans_events_profiles(self, telemetry):
        from repro.engine.profile import QueryProfile

        with telemetry.tracer.span("outer") as outer:
            telemetry.emit("probe.fired", severity="info")
        profile = QueryProfile("SELECT 1")
        profile.trace_id = outer.trace_id_hex
        telemetry.profiles.record(profile)
        with ObservatoryServer(telemetry) as server:
            _, _, body = get(server.url + f"/trace/{outer.trace_id_hex}")
        doc = json.loads(body)
        assert doc["trace_id"] == outer.trace_id_hex
        assert [s["name"] for s in doc["spans"]] == ["outer"]
        assert [e["name"] for e in doc["events"]] == ["probe.fired"]
        assert [p["sql"] for p in doc["profiles"]] == ["SELECT 1"]

    def test_trace_endpoint_serves_the_newest_request_at_span_capacity(self, telemetry):
        """A long-lived server fills the span collector; the collector must
        drop its oldest spans, not go blind to every later request."""
        telemetry.tracer = Tracer(max_spans=3)
        caller_trace = "f" * 31 + "d"
        header = {"traceparent": f"00-{caller_trace}-00f067aa0ba902b7-01"}
        with ObservatoryServer(telemetry) as server:
            for _ in range(6):
                get(server.url + "/healthz")
            request = urllib.request.Request(server.url + "/healthz", headers=header)
            with urllib.request.urlopen(request, timeout=5.0):
                pass
            deadline = time.monotonic() + 5.0
            while not telemetry.tracer.spans_for_trace(caller_trace):
                assert time.monotonic() < deadline, "the newest request's span was dropped"
                time.sleep(0.01)
            _, _, body = get(server.url + f"/trace/{caller_trace}")
            _, _, recent = get(server.url + "/spans?limit=2")
        assert [s["name"] for s in json.loads(body)["spans"]] == ["http.request"]
        assert len(recent.splitlines()) == 2
        assert telemetry.tracer.dropped >= 4

    def test_unknown_trace_is_404(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/trace/" + "0" * 32)
        assert excinfo.value.code == 404


class TestNdjsonSchemaPin:
    """The /spans and /events NDJSON schemas are consumed by external
    tooling; new fields must be ADDITIVE — every pre-tracing field keeps
    its name and meaning."""

    SPAN_FIELDS_V1 = {
        "name", "span_id", "parent_id", "start_wall", "duration_s", "attributes",
    }
    EVENT_FIELDS_V1 = {
        "seq", "t", "wall", "name", "severity", "source", "span_id", "attributes",
    }

    def test_span_records_are_backward_compatible(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            _, _, body = get(server.url + "/spans?limit=1")
        record = json.loads(body.splitlines()[0])
        missing = self.SPAN_FIELDS_V1 - set(record)
        assert not missing, f"v1 span fields dropped: {missing}"
        # The tracing PR's additions, both derivable from the v1 reader's
        # point of view as unknown-and-ignorable keys.
        assert set(record["trace_id"]) <= set("0123456789abcdef")
        assert len(record["trace_id"]) == 32
        assert record["traceparent"].startswith("00-")

    def test_event_records_are_backward_compatible(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            _, _, body = get(server.url + "/events?limit=1")
        record = json.loads(body.splitlines()[0])
        missing = self.EVENT_FIELDS_V1 - set(record)
        assert not missing, f"v1 event fields dropped: {missing}"
        assert "trace_id" in record  # additive (may be null for untraced)


class TestLifecycle:
    def test_ephemeral_port_and_url(self, telemetry):
        server = ObservatoryServer(telemetry, port=0)
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        server.stop()

    def test_start_is_idempotent_and_stop_releases(self, telemetry):
        server = ObservatoryServer(telemetry).start()
        assert server.start() is server
        port = server.port
        server.stop()
        # Port is free again: a new server can bind it.
        rebound = ObservatoryServer(telemetry, port=port)
        rebound.stop()


class TestMethodDiscipline:
    """Wrong methods, bad bodies, HEAD: adversarial HTTP hygiene."""

    def request(self, url, method, data=None):
        req = urllib.request.Request(url, data=data, method=method)
        try:
            with urllib.request.urlopen(req, timeout=5.0) as response:
                return response.status, dict(response.headers), response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), exc.read()

    @pytest.mark.parametrize("method", ["POST", "PUT", "DELETE", "PATCH"])
    def test_write_methods_on_read_endpoints_are_405(self, telemetry, method):
        with ObservatoryServer(telemetry) as server:
            for path in ("/metrics", "/status", "/healthz", "/events"):
                status, headers, _ = self.request(
                    server.url + path, method, data=b"{}"
                )
                assert status == 405, f"{method} {path}"
                assert headers.get("Allow") == "GET"

    def test_wrong_method_on_trace_prefix_is_405(self, telemetry):
        trace_id = telemetry.tracer.finished_spans()[0].trace_id
        with ObservatoryServer(telemetry) as server:
            status, headers, _ = self.request(
                server.url + f"/trace/{trace_id}", "POST", data=b"{}"
            )
        assert status == 405
        assert headers.get("Allow") == "GET"

    def test_head_mirrors_get_without_a_body(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            status, headers, body = self.request(server.url + "/healthz", "HEAD")
        assert status == 200
        assert headers.get("Content-Type", "").startswith("application/json")
        assert body == b""

    def test_unknown_path_is_still_404(self, telemetry):
        with ObservatoryServer(telemetry) as server:
            status, _, _ = self.request(server.url + "/nope", "GET")
            post_status, _, _ = self.request(server.url + "/nope", "POST", data=b"{}")
        assert status == 404
        assert post_status == 404
