"""The open-loop load generator (``tools/loadgen.py``, loaded by path:
tools/ is not a package): schedule math, aggregation, a real run."""

import importlib.util
import os
import threading
import time

import pytest

from repro.obs import Telemetry
from repro.obs.server import ObservatoryServer
from repro.serve import QueryService, ServeConfig

_TOOL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "tools", "loadgen.py"
)
_spec = importlib.util.spec_from_file_location("loadgen", _TOOL)
loadgen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loadgen)

LoadgenConfig, LoadResult, run_load = loadgen.LoadgenConfig, loadgen.LoadResult, loadgen.run_load
STATUS_REFUSED, STATUS_TIMEOUT = loadgen.STATUS_REFUSED, loadgen.STATUS_TIMEOUT
percentile, _classify_transport = loadgen.percentile, loadgen._classify_transport

SQL = "SELECT mach_id FROM activity"


class TestPercentile:
    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 1.0) == 4.0

    def test_single_observation(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestLoadgenConfig:
    def test_total_requests(self):
        config = LoadgenConfig("http://x/v1/query", SQL, rate=50.0, duration=2.0)
        assert config.total_requests == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig("http://x", SQL, rate=0.0)
        with pytest.raises(ValueError):
            LoadgenConfig("http://x", SQL, duration=-1.0)
        with pytest.raises(ValueError):
            LoadgenConfig("http://x", SQL, senders=0)
        with pytest.raises(ValueError):
            LoadgenConfig("http://x", SQL, tenants=())


class TestLoadResult:
    def make(self, statuses, latencies, wall=2.0):
        config = LoadgenConfig("http://x/v1/query", SQL, rate=5.0, duration=2.0)
        return LoadResult(config, statuses, latencies, wall)

    def test_status_classification(self):
        result = self.make([200, 200, 429, 500, 0], [0.01, 0.02])
        assert result.requests == 5
        assert result.ok == 2
        assert result.rejected == 1
        assert result.server_errors == 1
        assert result.transport_errors == 1
        assert result.achieved_rate == pytest.approx(1.0)

    def test_to_dict_shape(self):
        result = self.make([200, 429], [0.010])
        doc = result.to_dict()
        assert doc["ok"] == 1
        assert doc["rejected_429"] == 1
        assert doc["status_counts"] == {"200": 1, "429": 1}
        assert doc["latency_ms"]["p99"] == pytest.approx(10.0)
        assert doc["config"]["rate"] == 5.0

    def test_no_successes_yields_null_latency(self):
        result = self.make([429, 429], [])
        assert result.latency_ms(0.99) is None
        assert result.to_dict()["latency_ms"]["p50"] is None

    def test_shed_vs_dead_are_separate_counts(self):
        # Refused connections (shedding under overload) and timeouts (a
        # dead or wedged server) are different diagnoses; both still roll
        # up into transport_errors for older consumers.
        result = self.make(
            [200, STATUS_REFUSED, STATUS_REFUSED, STATUS_TIMEOUT, 0], [0.01]
        )
        assert result.refused == 2
        assert result.timeouts == 1
        assert result.transport_errors == 4

    def test_to_dict_labels_the_sentinels(self):
        doc = self.make([STATUS_REFUSED, STATUS_TIMEOUT, 0], []).to_dict()
        assert doc["refused"] == 1
        assert doc["timeouts"] == 1
        assert doc["status_counts"] == {
            "refused": 1,
            "timeout": 1,
            "transport_error": 1,
        }


class TestClassifyTransport:
    def test_refused_and_reset_map_to_refused(self):
        import http.client

        assert _classify_transport(ConnectionRefusedError()) == STATUS_REFUSED
        assert _classify_transport(ConnectionResetError()) == STATUS_REFUSED
        assert _classify_transport(BrokenPipeError()) == STATUS_REFUSED
        # What http.client raises when the peer closes before replying.
        assert _classify_transport(http.client.RemoteDisconnected()) == STATUS_REFUSED

    def test_timeouts_map_to_timeout(self):
        import socket

        assert _classify_transport(socket.timeout()) == STATUS_TIMEOUT
        assert _classify_transport(TimeoutError()) == STATUS_TIMEOUT

    def test_everything_else_is_generic_transport(self):
        import http.client

        assert _classify_transport(OSError("no route to host")) == 0
        assert _classify_transport(http.client.IncompleteRead(b"")) == 0

    def test_real_refused_connection_is_classified(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        result = run_load(
            LoadgenConfig(
                url=f"http://127.0.0.1:{port}/v1/query",
                sql=SQL,
                rate=10.0,
                duration=0.3,
                timeout=0.5,
            )
        )
        assert result.refused == result.requests
        assert result.timeouts == 0
        assert result.ok == 0
        assert result.reconnects == 0  # a fresh connect that fails is an answer

    def test_real_unanswered_request_is_a_timeout(self):
        import socket

        # Listening but never accepting: the connect succeeds (backlog),
        # the request is sent, nobody answers.
        with socket.socket() as mute:
            mute.bind(("127.0.0.1", 0))
            mute.listen(8)
            result = run_load(
                LoadgenConfig(
                    url=f"http://127.0.0.1:{mute.getsockname()[1]}/v1/query",
                    sql=SQL,
                    rate=10.0,
                    duration=0.2,
                    senders=2,
                    timeout=0.3,
                )
            )
        assert result.timeouts == result.requests == 2
        assert result.refused == 0


class TestRunLoad:
    def test_against_a_live_server(self, paper_memory_backend):
        tel = Telemetry()
        config = ServeConfig(workers=4, queue_depth=128, tenant_rate=10_000.0,
                             tenant_burst=10_000.0, max_inflight=128)
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                result = run_load(
                    LoadgenConfig(
                        url=server.url + "/v1/query",
                        sql=SQL,
                        rate=40.0,
                        duration=1.0,
                        tenants=("a", "b"),
                        senders=8,
                    )
                )
            counts = svc.counts()
        assert result.requests == 40
        assert result.ok == 40
        assert result.server_errors == 0
        assert result.transport_errors == 0
        assert counts["ok"] == 40
        assert result.latency_ms(0.99) > 0
        # Both tenants took traffic (round-robin across the schedule).
        status = svc.serving_status()
        assert set(status["tenants"]) == {"a", "b"}
        # One socket per sender for the whole run, none re-opened.
        assert 1 <= result.connections <= 8
        assert result.connections == server.accepted
        assert result.reconnects == 0
        assert result.to_dict()["connections"] == result.connections

    def test_dead_reused_socket_is_retried_once(self, paper_memory_backend, monkeypatch):
        monkeypatch.setattr(ObservatoryServer, "idle_timeout", 0.1)
        tel = Telemetry()
        with QueryService(paper_memory_backend, ServeConfig(workers=1), telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                config = LoadgenConfig(server.url + "/v1/query", SQL, timeout=2.0)
                sender = loadgen._Sender(config)
                assert sender.post("a") == 200
                deadline = time.monotonic() + 5.0
                handler = f"trac-observatory-{server.port}-conn"
                while (
                    any(t.name == handler for t in threading.enumerate())
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)  # the server times the idle socket out
                assert sender.post("a") == 200  # re-sent on a fresh connection
                assert (sender.connections, sender.reconnects) == (2, 1)
                assert server.accepted == 2
            # Server gone: the reused socket is dead and the one retry is
            # refused — an answer, not another retry.
            assert sender.post("a") == STATUS_REFUSED
            assert (sender.connections, sender.reconnects) == (3, 2)

    def test_rejections_are_counted_not_raised(self, paper_memory_backend):
        config = ServeConfig(workers=1, tenant_rate=0.0, tenant_burst=3.0)
        tel = Telemetry()
        with QueryService(paper_memory_backend, config, telemetry=tel) as svc:
            with ObservatoryServer(tel, query_service=svc) as server:
                result = run_load(
                    LoadgenConfig(
                        url=server.url + "/v1/query",
                        sql=SQL,
                        rate=20.0,
                        duration=0.5,
                        senders=4,
                    )
                )
        assert result.ok == 3  # the burst
        assert result.rejected == 7
        assert result.server_errors == 0
