"""The anomaly flight recorder: triggers, cooldown, dump contents."""

import json

import pytest

from repro.core.sources import DEGRADED, SourceRegistry
from repro.obs import Telemetry
from repro.obs.events import (
    EVT_FLIGHT_DUMPED,
    EVT_SOURCE_DEGRADED,
    EVT_WATCHDOG_SILENCE,
)
from repro.obs.flight import DEFAULT_TRIGGERS, FlightRecorder


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def load_dump(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


class TestTriggering:
    def test_trigger_event_produces_a_dump(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path)).install()
        tel.emit("sniffer.retry", source="m1", severity="warning")  # not a trigger
        assert recorder.dumps == []
        tel.emit(EVT_SOURCE_DEGRADED, t=9.0, source="m1", severity="error", reason="crash")
        assert len(recorder.dumps) == 1
        doc = load_dump(recorder.dumps[0])
        assert doc["format"] == "trac-flight-v1"
        assert doc["reason"] == EVT_SOURCE_DEGRADED
        assert doc["trigger"]["source"] == "m1"
        assert doc["trigger"]["attributes"] == {"reason": "crash"}
        # Pre-anomaly context rides along.
        assert [e["name"] for e in doc["events"]] == [
            "sniffer.retry",
            EVT_SOURCE_DEGRADED,
        ]

    def test_default_triggers_match_the_spec(self):
        assert DEFAULT_TRIGGERS == {
            "source.degraded",
            "watchdog.silence",
            "report.exceptional",
            "query.slow",
        }

    def test_flight_dumped_event_does_not_retrigger(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path), cooldown=0.0).install()
        tel.emit(EVT_SOURCE_DEGRADED, source="m1", severity="error")
        assert len(recorder.dumps) == 1
        names = [e.name for e in tel.events.snapshot()]
        assert names.count(EVT_FLIGHT_DUMPED) == 1

    def test_cooldown_suppresses_bursts(self, tmp_path):
        clock = FakeClock()
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path), cooldown=30.0, clock=clock)
        recorder.install()
        tel.emit(EVT_SOURCE_DEGRADED, source="m1", severity="error")
        clock.advance(5.0)
        tel.emit(EVT_WATCHDOG_SILENCE, source="m2", severity="warning")
        assert len(recorder.dumps) == 1  # inside cooldown
        clock.advance(30.0)
        tel.emit(EVT_WATCHDOG_SILENCE, source="m2", severity="warning")
        assert len(recorder.dumps) == 2

    def test_manual_dump_ignores_cooldown(self, tmp_path):
        clock = FakeClock()
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path), cooldown=30.0, clock=clock)
        recorder.dump(reason="manual")
        recorder.dump(reason="manual")
        assert len(recorder.dumps) == 2

    def test_uninstall_stops_dumping(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path)).install()
        recorder.uninstall()
        tel.emit(EVT_SOURCE_DEGRADED, source="m1", severity="error")
        assert recorder.dumps == []

    def test_install_is_idempotent(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path), cooldown=0.0)
        recorder.install()
        recorder.install()
        tel.emit(EVT_SOURCE_DEGRADED, source="m1", severity="error")
        assert len(recorder.dumps) == 1


class TestDumpContents:
    def test_snapshot_embeds_spans_metrics_health_slo(self, tmp_path):
        tel = Telemetry()
        tel.metrics.counter("trac_probe_total").inc()
        with tel.tracer.span("work", machine="m1"):
            pass
        sources = SourceRegistry(target_p95=10.0, budget=0.05, window=8)
        sources.mark("m1", DEGRADED, reason="silent", at=50.0)
        sources.record_lag("m1", 1.0, 99.0)
        recorder = FlightRecorder(tel, str(tmp_path), sources=sources)
        doc = load_dump(recorder.dump(reason="manual"))

        assert [s["name"] for s in doc["spans"]] == ["work"]
        assert doc["open_spans"] == []
        assert any(m["name"] == "trac_probe_total" for m in doc["metrics"])
        assert doc["health"]["m1"]["status"] == "degraded"
        assert doc["slo"]["breached"] == ["m1"]
        assert doc["lag_series"] == {"m1": [[1.0, 99.0]]}

    def test_open_spans_captured_from_the_emitting_thread(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path)).install()
        with tel.tracer.span("outer"):
            tel.emit(EVT_SOURCE_DEGRADED, source="m1", severity="error")
        doc = load_dump(recorder.dumps[0])
        assert [s["name"] for s in doc["open_spans"]] == ["outer"]

    def test_max_events_caps_the_tail(self, tmp_path):
        tel = Telemetry()
        for i in range(10):
            tel.emit("filler", index=i)
        recorder = FlightRecorder(tel, str(tmp_path), max_events=3)
        doc = load_dump(recorder.dump())
        assert len(doc["events"]) == 3
        assert doc["events"][-1]["attributes"] == {"index": 9}

    def test_filename_carries_reason_slug_and_sequence(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path))
        path = recorder.dump(reason="watchdog.silence")
        name = path.rsplit("/", 1)[-1]
        assert name.startswith("flight-")
        assert name.endswith("-0001-watchdog-silence.json")

    def test_reentrant_dump_raises(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path))
        recorder._dumping = True
        with pytest.raises(RuntimeError):
            recorder.dump()


class TestAtomicDumps:
    """Dumps are written via temp-file + rename: never a torn JSON file."""

    def test_no_tmp_file_left_behind(self, tmp_path):
        import os

        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path)).install()
        recorder.dump(reason="manual")
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_dump_is_complete_json(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, str(tmp_path)).install()
        path = recorder.dump(reason="manual")
        text = open(path, encoding="utf-8").read()
        assert text.endswith("\n")
        assert json.loads(text)["reason"] == "manual"
