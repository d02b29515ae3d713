"""IncrementalMaintainer unit tests: eligibility, maintenance, invalidation."""

import pytest

from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
from repro.core.relevance import build_naive_plan
from repro.core.report import RecencyReporter
from repro.core.statistics import SourceRecency
from repro.errors import TracError
from repro.incremental import IncrementalMaintainer, plan_streamable
from repro.obs.instrument import (
    INCREMENTAL_HITS,
    INCREMENTAL_INVALIDATIONS,
    INCREMENTAL_MISSES,
    Telemetry,
)

MACHINES = tuple(f"m{i}" for i in range(1, 6))


def catalog():
    return Catalog(
        [
            TableSchema(
                "activity",
                [
                    Column("mach_id", "TEXT", FiniteDomain(MACHINES)),
                    Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
                ],
                source_column="mach_id",
            ),
            TableSchema(
                "routing",
                [
                    Column("mach_id", "TEXT", FiniteDomain(MACHINES)),
                    Column("neighbor", "TEXT", FiniteDomain(MACHINES)),
                ],
                source_column="mach_id",
            ),
        ]
    )


@pytest.fixture
def backend():
    b = MemoryBackend(catalog())
    b.insert_rows("activity", [("m1", "idle"), ("m2", "busy"), ("m3", "idle")])
    b.insert_rows("routing", [("m1", "m2")])
    for i, mid in enumerate(MACHINES):
        b.upsert_heartbeat(mid, 100.0 + i)
    return b


@pytest.fixture
def maintainer(backend):
    return IncrementalMaintainer(backend)


@pytest.fixture
def reporter(backend, maintainer):
    return RecencyReporter(
        backend,
        create_temp_tables=False,
        incremental=maintainer,
        incremental_verify=True,
    )


HOT = "SELECT mach_id FROM activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'"


class TestStreamability:
    def test_source_only_predicate_is_streamable(self, reporter):
        assert plan_streamable(reporter.plan_for(HOT))

    def test_no_where_is_streamable(self, reporter):
        assert plan_streamable(reporter.plan_for("SELECT mach_id FROM activity"))

    def test_join_predicate_is_not_streamable(self, reporter):
        plan = reporter.plan_for(
            "SELECT a.mach_id FROM activity a, routing r WHERE a.mach_id = r.neighbor"
        )
        assert not plan_streamable(plan)

    def test_naive_plan_is_not_streamable(self):
        assert not plan_streamable(build_naive_plan())


class TestFetchRegister:
    def test_miss_then_hit(self, reporter, maintainer):
        assert reporter.report(HOT).incremental == "miss"
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert sorted(report.relevant_source_ids) == ["m1", "m2"]
        assert maintainer.stats()["hits"] == 1

    def test_upsert_updates_materialized_value(self, backend, reporter):
        reporter.report(HOT)
        backend.upsert_heartbeat("m2", 555.0)
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        recencies = {
            s.source_id: s.recency
            for s in report.normal_sources + report.exceptional_sources
        }
        assert recencies["m2"] == 555.0

    def test_new_member_source_appears(self, backend, reporter):
        backend.delete_rows("heartbeat", ["source_id"], [("m1",)])
        reporter.report(HOT)
        backend.upsert_heartbeat("m1", 50.0)  # first sighting after register
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert "m1" in report.relevant_source_ids

    def test_non_member_source_stays_out(self, backend, reporter):
        reporter.report(HOT)
        backend.upsert_heartbeat("m4", 500.0)  # not in the IN-list
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert "m4" not in report.relevant_source_ids

    def test_bypass_for_join_plans(self, reporter):
        sql = (
            "SELECT a.mach_id FROM activity a, routing r "
            "WHERE a.mach_id = r.neighbor"
        )
        assert reporter.report(sql).incremental == "bypass"
        assert reporter.report(sql).incremental == "bypass"

    def test_bypass_for_naive_method(self, reporter):
        assert reporter.report(HOT, method="naive").incremental == "bypass"

    def test_lru_evicts_oldest_entry(self, backend):
        maintainer = IncrementalMaintainer(backend, maxsize=2)
        reporter = RecencyReporter(
            backend, create_temp_tables=False, incremental=maintainer
        )
        queries = [
            f"SELECT mach_id FROM activity WHERE mach_id = 'm{i}'" for i in (1, 2, 3)
        ]
        for sql in queries:
            assert reporter.report(sql).incremental == "miss"
        assert reporter.report(queries[0]).incremental == "miss"  # evicted
        assert reporter.report(queries[2]).incremental == "hit"


class TestInvalidation:
    def test_delete_removes_tombstoned_source(self, backend, reporter, maintainer):
        reporter.report(HOT)
        backend.delete_rows("heartbeat", ["source_id"], [("m2",)])
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert "m2" not in report.relevant_source_ids
        assert maintainer.stats()["invalidations"] == 1

    def test_clear_empties_materialized_sets(self, backend, reporter):
        reporter.report(HOT)
        backend.delete_all("heartbeat")
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert report.relevant_source_ids == set()

    def test_non_source_keyed_upsert_resyncs(self, backend, reporter, maintainer):
        reporter.report(HOT)
        backend.upsert_rows("heartbeat", ["source_id", "recency"], [("m1", 7.0)])
        assert maintainer.stats()["entries"] == 0  # entries dropped
        assert reporter.report(HOT).incremental == "miss"
        assert reporter.report(HOT).incremental == "hit"

    def test_non_string_source_id_degrades(self, backend, reporter, maintainer):
        reporter.report(HOT)
        backend.insert_rows("heartbeat", [(42, 1.0)])
        assert maintainer.degraded
        assert reporter.report(HOT).incremental == "bypass"

    def test_clear_recovers_from_degraded(self, backend, reporter, maintainer):
        backend.insert_rows("heartbeat", [(42, 1.0)])
        maintainer.resync()
        assert maintainer.degraded
        backend.delete_all("heartbeat")
        assert not maintainer.degraded
        backend.upsert_heartbeat("m1", 5.0)
        assert reporter.report(HOT).incremental == "miss"
        assert reporter.report(HOT).incremental == "hit"


class TestPlumbing:
    def test_requires_listener_capable_backend(self):
        with pytest.raises(TracError):
            IncrementalMaintainer(object())

    def test_stats_shape(self, maintainer):
        stats = maintainer.stats()
        assert set(stats) == {
            "entries",
            "maxsize",
            "hits",
            "misses",
            "bypasses",
            "updates",
            "invalidations",
            "hit_rate",
            "degraded",
        }

    def test_hit_rate(self, reporter, maintainer):
        reporter.report(HOT)
        reporter.report(HOT)
        reporter.report(HOT)
        assert maintainer.stats()["hit_rate"] == pytest.approx(2 / 3)

    def test_verdict_stamped_on_profile(self):
        tel = Telemetry()
        backend = MemoryBackend(catalog(), telemetry=tel)
        backend.insert_rows("activity", [("m1", "idle"), ("m2", "busy")])
        backend.upsert_heartbeat("m1", 100.0)
        backend.upsert_heartbeat("m2", 101.0)
        maintainer = IncrementalMaintainer(backend, telemetry=tel)
        reporter = RecencyReporter(
            backend, telemetry=tel, create_temp_tables=False, incremental=maintainer
        )
        reporter.report(HOT)
        report = reporter.report(HOT)
        assert report.profile is not None
        assert report.profile.incremental == "hit"
        assert report.profile.to_dict()["incremental"] == "hit"

    def test_telemetry_counters(self, backend):
        tel = Telemetry()
        maintainer = IncrementalMaintainer(backend, telemetry=tel)
        reporter = RecencyReporter(
            backend, telemetry=tel, create_temp_tables=False, incremental=maintainer
        )
        reporter.report(HOT)
        reporter.report(HOT)
        backend.delete_rows("heartbeat", ["source_id"], [("m1",)])
        assert tel.metrics.counter(INCREMENTAL_HITS).value == 1
        assert tel.metrics.counter(INCREMENTAL_MISSES, {"outcome": "miss"}).value == 1
        assert (
            tel.metrics.counter(INCREMENTAL_INVALIDATIONS, {"reason": "delete"}).value
            == 1
        )

    def test_materialized_equals_sorted_sources(self, backend, maintainer, reporter):
        reporter.report(HOT)
        verdict, sources = maintainer.fetch(reporter.plan_for(HOT))
        assert verdict == "hit"
        assert sources == [
            SourceRecency("m1", 100.0),
            SourceRecency("m2", 101.0),
        ]
