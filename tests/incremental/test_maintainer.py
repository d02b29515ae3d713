"""IncrementalMaintainer unit tests: eligibility, members, snapshot reads."""

import contextlib

import pytest

from repro import Catalog, Column, FiniteDomain, MemoryBackend, SQLiteBackend, TableSchema
from repro.core.relevance import build_naive_plan
from repro.core.report import RecencyReporter
from repro.errors import TracError
from repro.incremental import IncrementalMaintainer, plan_streamable
from repro.obs.instrument import INCREMENTAL_HITS, INCREMENTAL_MISSES, Telemetry

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
        """A delete rebinds the key index: the entry is dropped, so no hit
        can serve the tombstoned source."""
        reporter.report(HOT)
        backend.delete_rows("heartbeat", ["source_id"], [("m2",)])
        report = reporter.report(HOT)
        assert report.incremental == "miss"
        assert "m2" not in report.relevant_source_ids
        assert maintainer.stats()["entries"] == 1  # registered again
        assert reporter.report(HOT).incremental == "hit"

    def test_delete_drops_the_entry_before_any_lookup(self, backend, reporter, maintainer):
        """A delete rebinds the key index at once: a fetch straight after it,
        with no query or index rebuild in between, misses rather than serve
        the tombstoned source."""
        plan = reporter.plan_for(HOT)
        reporter.report(HOT)
        assert maintainer.fetch(plan)[0] == "hit"
        backend.delete_rows("heartbeat", ["source_id"], [("m2",)])
        assert maintainer.fetch(plan) == ("miss", None)
        assert maintainer.stats()["entries"] == 0

    def test_clear_empties_materialized_sets(self, backend, reporter):
        reporter.report(HOT)
        backend.delete_all("heartbeat")
        report = reporter.report(HOT)
        assert report.incremental == "miss"
        assert report.relevant_source_ids == set()
        backend.upsert_heartbeat("m1", 5.0)
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert report.relevant_source_ids == {"m1"}

    def test_non_source_keyed_upsert_resyncs(self, backend, reporter, maintainer):
        """Upserting under another key re-keys the index: the entry drops to
        a miss, and the plan registers afresh once the Heartbeat is keyed on
        ``source_id`` again."""
        reporter.report(HOT)
        # Upserting under ``recency`` replaces the row holding 101.0 (m2).
        backend.upsert_rows("heartbeat", ["recency"], [("m3", 101.0)])
        assert reporter.report(HOT).incremental == "miss"
        assert maintainer.stats()["entries"] == 0
        assert reporter.report(HOT).incremental == "miss"
        backend.upsert_heartbeat("m2", 7.0)
        assert reporter.report(HOT).incremental == "miss"
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert sorted(report.relevant_source_ids) == ["m1", "m2"]

    def test_odd_key_upsert_keeps_no_stale_member(self, backend, reporter, maintainer):
        """Upserting under ``recency`` replaces every row holding that value,
        members included: the entry goes, and once the Heartbeat is keyed on
        ``source_id`` again, appends and upserts are decided row by row."""
        backend.upsert_heartbeat("m2", 100.0)  # m1 and m2 both hold 100.0
        reporter.report(HOT)
        backend.upsert_rows("heartbeat", ["recency"], [("m3", 100.0)])
        assert maintainer.fetch(reporter.plan_for(HOT)) == ("miss", None)
        assert reporter.report(HOT).relevant_source_ids == set()
        backend.upsert_heartbeat("m2", 3.0)
        assert reporter.report(HOT).incremental == "miss"  # registers afresh
        updates = maintainer.stats()["updates"]
        backend.insert_rows("heartbeat", [("m1", 4.0)])
        backend.upsert_heartbeat("m2", 5.0)
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        recencies = {s.source_id: s.recency for s in report.split.normal + report.split.exceptional}
        assert recencies == {"m1": 4.0, "m2": 5.0}
        assert maintainer.stats()["updates"] == updates + 1  # the append; the upsert is in place

    def test_non_string_source_id_degrades(self, backend, reporter, maintainer):
        """Every lookup falls back to the from-scratch path: the engine judges
        a non-string id and ``str`` reshapes its answer, so neither a
        registration nor an extension decides one."""
        reporter.report(HOT)
        backend.insert_rows("heartbeat", [(42, 1.0)])
        assert reporter.report(HOT).incremental == "miss"  # appended: dropped
        assert reporter.report(HOT).incremental == "miss"  # held: unregistered
        assert maintainer.stats()["entries"] == 0

    def test_clear_recovers_from_degraded(self, backend, reporter):
        backend.insert_rows("heartbeat", [(42, 1.0)])
        assert reporter.report(HOT).incremental == "miss"
        backend.delete_all("heartbeat")
        backend.upsert_heartbeat("m1", 5.0)
        assert reporter.report(HOT).incremental == "miss"
        assert reporter.report(HOT).incremental == "hit"


class TestSnapshot:
    def test_hit_reads_the_report_snapshot(self, backend):
        """A heartbeat landing between the user query and the fetch (the
        deterministic stand-in for a concurrent poll) is not in the
        report's snapshot, so the hit must not report it either."""
        maintainer = IncrementalMaintainer(backend)
        reporter = RecencyReporter(backend, incremental=maintainer)
        assert reporter.report(HOT).incremental == "miss"
        opened = backend.snapshot
        pending = [("m2", 999.0)]

        @contextlib.contextmanager
        def snapshot():
            with opened() as snap:
                user_query = snap.execute

                def execute(sql, **kwargs):
                    result = user_query(sql, **kwargs)
                    if pending:
                        backend.upsert_heartbeat(*pending.pop())
                    return result

                snap.execute = execute
                yield snap

        backend.snapshot = snapshot
        report = reporter.report(HOT)
        assert not pending
        assert report.incremental == "hit"
        recencies = {s.source_id: s.recency for s in report.split.normal + report.split.exceptional}
        assert recencies == {"m1": 100.0, "m2": 101.0}
        del backend.snapshot
        assert reporter.incremental.fetch(reporter.plan_for(HOT))[1][1][1] == 999.0

    def test_entry_survives_snapshots_that_borrow_its_index(self, backend, reporter):
        reporter.report(HOT)
        with backend.snapshot() as older:
            backend.upsert_heartbeat("m1", 300.0)
            backend.insert_rows("heartbeat", [("m6", 1.0)])
            verdict, sources = reporter.incremental.fetch(reporter.plan_for(HOT), older)
        assert verdict == "hit"
        assert sources == (["m1", "m2"], [100.0, 101.0])

    def test_bag_heartbeat_keeps_the_last_row_per_source(self, backend, reporter, maintainer):
        """``insert_rows`` appends beside an existing id; the merge keeps the
        later row, and so does the entry — at registration and after."""
        backend.insert_rows("heartbeat", [("m1", 1.0)])
        assert reporter.report(HOT).incremental == "miss"
        backend.insert_rows("heartbeat", [("m2", 2.0), ("m1", 3.0)])
        report = reporter.report(HOT)
        assert report.incremental == "hit"
        assert maintainer.fetch(reporter.plan_for(HOT))[1] == (["m1", "m2"], [3.0, 2.0])
        assert maintainer.stats()["updates"] == 2  # the two appended after registration

    def test_older_snapshot_than_the_entry_misses(self, backend, reporter, maintainer):
        plan = reporter.plan_for(HOT)
        with backend.snapshot() as older:
            backend.insert_rows("heartbeat", [("m1", 1.0)])
            reporter.report(HOT)  # registered past the older snapshot's rows
            assert maintainer.fetch(plan, older)[0] == "miss"


class TestPlumbing:
    def test_requires_a_memory_backend(self, tmp_path):
        with pytest.raises(TracError):
            IncrementalMaintainer(object())
        with pytest.raises(TracError):
            IncrementalMaintainer(SQLiteBackend(catalog(), str(tmp_path / "t.sqlite")))

    def test_stats_shape(self, maintainer):
        stats = maintainer.stats()
        assert set(stats) == {
            "entries",
            "maxsize",
            "hits",
            "misses",
            "bypasses",
            "updates",
            "hit_rate",
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
        reporter.report(HOT, method="naive")
        assert tel.metrics.counter(INCREMENTAL_HITS).value == 1
        assert tel.metrics.counter(INCREMENTAL_MISSES, {"outcome": "miss"}).value == 1
        assert tel.metrics.counter(INCREMENTAL_MISSES, {"outcome": "bypass"}).value == 1

    def test_materialized_equals_sorted_sources(self, backend, maintainer, reporter):
        reporter.report(HOT)
        verdict, sources = maintainer.fetch(reporter.plan_for(HOT))
        assert verdict == "hit"
        assert sources == (["m1", "m2"], [100.0, 101.0])
