"""The trac top dashboard: sparklines, status documents, rendering, loop."""

import json

import pytest

from repro.errors import TracError
from repro.obs.dashboard import (
    CLEAR,
    SPARK_CHARS,
    fetch_status,
    render_top,
    run_top,
    sparkline,
)


class TestSparkline:
    def test_empty_series_is_blank(self):
        assert sparkline([], width=4) == "    "

    def test_flat_series_is_all_low(self):
        assert sparkline([5.0, 5.0, 5.0], width=3) == SPARK_CHARS[0] * 3

    def test_ramp_hits_both_extremes(self):
        out = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert out[0] == SPARK_CHARS[0]
        assert out[-1] == SPARK_CHARS[-1]

    def test_short_series_right_aligned(self):
        out = sparkline([1.0, 2.0], width=6)
        assert len(out) == 6
        assert out.startswith(" " * 4)

    def test_only_last_width_values_used(self):
        # Huge early spike outside the window must not flatten the tail.
        out = sparkline([1000.0, 1.0, 2.0, 3.0], width=3)
        assert out[-1] == SPARK_CHARS[-1]

    def test_zero_width(self):
        assert sparkline([1.0], width=0) == ""


class TestRenderTop:
    def test_no_sources(self):
        frame = render_top({"now": 10.0, "sources": []})
        assert "trac top — t=10s" in frame
        assert "(no sources reporting yet)" in frame

    def test_table_sorted_by_state_severity(self):
        status = {
            "now": 100.0,
            "sources": [
                {"id": "m1", "state": "healthy", "recency": 99.0, "age": 1.0,
                 "z": 0.1, "burn": 0.0, "lag_series": [1.0], "retries": 0,
                 "restarts": 0, "breaker": "closed"},
                {"id": "m2", "state": "degraded", "recency": 40.0, "age": 60.0,
                 "z": 1.4, "burn": 2.0, "lag_series": [10.0, 60.0], "retries": 3,
                 "restarts": 1, "breaker": "open"},
            ],
        }
        frame = render_top(status)
        lines = frame.splitlines()
        m2_line = next(i for i, line in enumerate(lines) if line.startswith("m2"))
        m1_line = next(i for i, line in enumerate(lines) if line.startswith("m1"))
        assert m2_line < m1_line  # degraded floats to the top
        assert "open" in lines[m2_line]

    def test_slo_verdict_in_header(self):
        status = {
            "now": 5.0,
            "sources": [],
            "slo": {"target_p95": 60.0, "budget": 0.05, "worst_burn": 2.5,
                    "breached": ["m2"]},
        }
        frame = render_top(status)
        assert "SLO BREACHED (m2)" in frame
        assert "worst_burn=2.50" in frame
        ok = dict(status, slo={"target_p95": 60.0, "budget": 0.05,
                               "worst_burn": 0.1, "breached": []})
        assert "SLO ok" in render_top(ok)

    def test_missing_fields_render_dashes(self):
        frame = render_top({"sources": [{"id": "m1"}]})
        assert "m1" in frame  # renders without KeyError


class TestStatusFromSimulator:
    def make_sim(self, with_slo=True):
        from repro.core.sources import SourceRegistry
        from repro.faults import FaultPlan
        from repro.grid.simulator import GridSimulator, SimulationConfig

        slo = SourceRegistry(target_p95=5.0, budget=0.05, window=64) if with_slo else None
        sim = GridSimulator(
            SimulationConfig(num_machines=3, seed=11),
            fault_plan=FaultPlan(),
            sources=slo,
        )
        for _ in range(30):
            sim.step()
        return sim

    def test_document_shape(self):
        sim = self.make_sim()
        doc = sim.status()
        assert doc["now"] == sim.now
        assert len(doc["sources"]) == 3
        src = doc["sources"][0]
        for key in ("id", "state", "recency", "age", "z", "quality", "retries",
                    "restarts", "breaker", "backlog", "lag", "burn", "lag_series"):
            assert key in src
        assert doc["slo"]["target_p95"] == 5.0
        json.dumps(doc)  # must be JSON-serializable (/status contract)

    def test_without_slo(self):
        doc = self.make_sim(with_slo=False).status()
        assert "slo" not in doc
        assert "burn" not in doc["sources"][0]  # a column appears with its owner

    def test_renderable(self):
        frame = render_top(self.make_sim().status())
        assert "m1" in frame and "m3" in frame


class TestFetchStatus:
    def test_fetch_from_live_server(self):
        from repro.obs import Telemetry
        from repro.obs.server import ObservatoryServer

        provider = lambda: {"now": 7.0, "sources": []}  # noqa: E731
        with ObservatoryServer(Telemetry(), status_provider=provider) as server:
            assert fetch_status(server.url) == {"now": 7.0, "sources": []}
            # Explicit /status suffix works too.
            assert fetch_status(server.url + "/status")["now"] == 7.0

    def test_unreachable_raises_trac_error(self):
        with pytest.raises(TracError, match="cannot reach"):
            fetch_status("http://127.0.0.1:9", timeout=0.5)


class TestRunTop:
    def test_renders_requested_iterations(self):
        writes = []
        sleeps = []
        frames = run_top(
            fetch=lambda: {"now": 1.0, "sources": []},
            interval=0.5,
            iterations=3,
            write=writes.append,
            clear=True,
            sleep=sleeps.append,
        )
        assert frames == 3
        assert writes.count(CLEAR) == 3
        assert sleeps == [0.5, 0.5]  # no sleep after the final frame

    def test_no_clear(self):
        writes = []
        run_top(fetch=lambda: {"sources": []}, iterations=1, write=writes.append,
                clear=False)
        assert CLEAR not in writes

    def test_fetch_failure_stops_the_loop(self):
        writes = []

        def fetch():
            raise TracError("gone")

        frames = run_top(fetch=fetch, iterations=5, write=writes.append)
        assert frames == 0
        assert any("trac top: gone" in w for w in writes)

    def test_keyboard_interrupt_is_graceful(self):
        calls = {"n": 0}

        def fetch():
            calls["n"] += 1
            if calls["n"] > 2:
                raise KeyboardInterrupt
            return {"sources": []}

        frames = run_top(fetch=fetch, write=lambda s: None, sleep=lambda s: None)
        assert frames == 2
