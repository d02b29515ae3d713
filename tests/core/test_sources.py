"""The source registry under traffic: one writer (the ingest path), many
readers (``/status``, reports, shard fragments), one lock."""

import sys
import threading

from repro.core.sources import DEGRADED, HEALTHY, SourceRegistry
from repro.obs.dashboard import source_rows

IDS = [f"m{i}" for i in range(1, 17)]


def test_readers_see_consistent_records_while_the_ingest_path_writes():
    """``ShardServer`` steps its simulator on one thread and answers
    ``_info`` / ``_fragment`` on another; ``trac simulate --serve`` builds
    ``/status`` beside the tick. A row is never torn: its ``state`` is its
    health entry's status, a degraded one carries the reason it was marked
    with, its burn is that of the lag series beside it, and burn >= 1 exactly
    for the ids the same call lists as breached."""
    registry = SourceRegistry(target_p95=10.0, budget=0.25, window=8)
    stop = threading.Event()
    failures = []

    def guarded(work):
        def run():
            try:
                work()
            except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
                failures.append(exc)
                stop.set()

        return threading.Thread(target=run, daemon=True)

    def ingest():
        t = 0
        while not stop.is_set():
            t += 1
            for k, sid in enumerate(IDS):
                if (t + k) % 3 == 0:
                    registry.mark(sid, DEGRADED, reason=f"gave up at {t}", at=float(t))
                else:
                    registry.mark(sid, HEALTHY, at=float(t))
                registry.record_lag(sid, float(t), 99.0 if (t + k) % 5 < 2 else 1.0)
                registry.update(sid, breaker="closed", retries=t)
                registry.record_poll(sid, 0.1)

    def read():
        recency = {sid: 1.0 for sid in IDS}
        for _ in range(1000):
            for row in source_rows(recency, 5.0, registry):
                health = row.get("health")
                if health is None:
                    continue  # not marked yet
                assert row["state"] == health["status"]
                if row["state"] == DEGRADED:
                    assert health["reason"] == f"gave up at {int(health['since'])}"
                else:
                    assert health["reason"] is None
                if "lag_series" in row:  # the window and its running count agree
                    series = row["lag_series"]
                    over = sum(lag > registry.target_p95 for lag in series)
                    assert row["burn"] == over / len(series) / registry.budget
            slo = registry.slo_status()
            burning = [s["source"] for s in slo["sources"] if s["burn"] >= 1.0]
            assert burning == slo["breached"]
            degraded, notice = registry.verdict()  # what a report is annotated with
            assert set(degraded) <= set(IDS) and notice["breached"] == sorted(notice["breached"])

    # One writer, two readers (2 x 1,000 row builds and annotations): more
    # threads than this machine has cores, switching as often as they can.
    writer, readers = guarded(ingest), [guarded(read), guarded(read)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in (writer, *readers):
            thread.start()
        for reader in readers:
            reader.join(timeout=120.0)
    finally:
        stop.set()
        writer.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert not writer.is_alive() and not any(r.is_alive() for r in readers)


def test_asking_for_the_degraded_ids_scans_nothing_when_none_was_marked():
    """Every federated fragment and every report asks; with no supervisor
    (the benchmark's shards) the answer must not cost a pass over the records."""

    class NoScan(dict):
        def items(self):
            raise AssertionError("scanned the records")

        __iter__ = values = items

    registry = SourceRegistry()
    for sid in IDS:
        registry.open(sid)
    registry._states = NoScan(registry._states)
    assert registry.degraded() == []
    assert registry.verdict() == ([], None)
    registry.mark("m3", DEGRADED, reason="silent")  # a keyed write, still no scan
    assert registry.degraded() == ["m3"]
