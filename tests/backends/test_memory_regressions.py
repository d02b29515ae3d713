"""MemoryBackend regression tests: heartbeat index staleness and temp-name
routing, plus the CoW snapshot contract at the backend level."""

from repro.backends.memory import MemoryBackend
from repro.catalog import HEARTBEAT_TABLE, Catalog, Column, TableSchema


def catalog():
    return Catalog(
        [
            TableSchema(
                "activity",
                [Column("mach_id", "TEXT"), Column("value", "TEXT")],
                source_column="mach_id",
            )
        ]
    )


def heartbeat_rows(backend):
    return sorted(backend.db.relation(HEARTBEAT_TABLE).rows)


class TestHeartbeatIndexInvalidation:
    def test_upsert_after_delete_rows_does_not_duplicate(self):
        # Regression: delete_rows shifted positions but left the index
        # pointing at the old ones, so a later upsert either duplicated the
        # source or overwrote the wrong row.
        backend = MemoryBackend(catalog())
        backend.upsert_heartbeat("m1", 1.0)
        backend.upsert_heartbeat("m2", 2.0)
        backend.upsert_heartbeat("m3", 3.0)
        backend.delete_rows(HEARTBEAT_TABLE, ["source_id"], [("m1",)])
        backend.upsert_heartbeat("m3", 30.0)
        assert heartbeat_rows(backend) == [("m2", 2.0), ("m3", 30.0)]

    def test_upsert_after_delete_reinserts_deleted_source(self):
        backend = MemoryBackend(catalog())
        backend.upsert_heartbeat("m1", 1.0)
        backend.upsert_heartbeat("m2", 2.0)
        backend.delete_rows(HEARTBEAT_TABLE, ["source_id"], [("m1",)])
        backend.upsert_heartbeat("m1", 10.0)
        assert heartbeat_rows(backend) == [("m1", 10.0), ("m2", 2.0)]

    def test_insert_rows_invalidates_index(self):
        backend = MemoryBackend(catalog())
        backend.upsert_heartbeat("m1", 1.0)
        backend.insert_rows(HEARTBEAT_TABLE, [("m2", 2.0)])
        backend.upsert_heartbeat("m2", 20.0)
        assert heartbeat_rows(backend) == [("m1", 1.0), ("m2", 20.0)]

    def test_insert_rows_takes_an_iterator(self):
        """An iterable of rows is consumed once, and every row lands."""
        backend = MemoryBackend(catalog())
        backend.insert_rows(HEARTBEAT_TABLE, iter([("m1", 1.0), ("m2", 2.0)]))
        assert backend.row_count(HEARTBEAT_TABLE) == 2
        assert heartbeat_rows(backend) == [("m1", 1.0), ("m2", 2.0)]

    def test_upsert_rows_takes_an_iterator(self):
        backend = MemoryBackend(catalog())
        backend.upsert_rows(HEARTBEAT_TABLE, ["source_id"], iter([("m1", 5.0)]))
        assert backend.row_count(HEARTBEAT_TABLE) == 1
        backend.upsert_rows(HEARTBEAT_TABLE, ["source_id"], iter([("m1", 6.0), ("m2", 2.0)]))
        assert heartbeat_rows(backend) == [("m1", 6.0), ("m2", 2.0)]

    def test_delete_all_keeps_index_consistent(self):
        backend = MemoryBackend(catalog())
        backend.upsert_heartbeat("m1", 1.0)
        backend.delete_all(HEARTBEAT_TABLE)
        backend.upsert_heartbeat("m1", 5.0)
        assert heartbeat_rows(backend) == [("m1", 5.0)]


class TestTempTableRouting:
    def make_backend(self):
        backend = MemoryBackend(catalog())
        backend.insert_rows("activity", [("m1", "idle"), ("m2", "busy")])
        return backend

    def test_prefix_name_does_not_misfire(self):
        # Regression: substring matching routed any SQL merely *containing*
        # a temp name to the shadow engine. "act" is a prefix of "activity".
        backend = self.make_backend()
        backend._store_temp_table("act", ["a"], [("only",)])
        result = backend.execute("SELECT mach_id FROM activity")
        assert sorted(result.rows) == [("m1",), ("m2",)]

    def test_string_literal_containing_temp_name_does_not_misfire(self):
        backend = self.make_backend()
        backend._store_temp_table("rep_norm_1", ["a"], [("only",)])
        result = backend.execute(
            "SELECT mach_id FROM activity WHERE value = 'rep_norm_1'"
        )
        assert result.rows == []

    def test_identifier_reference_routes_to_temp(self):
        backend = self.make_backend()
        backend._store_temp_table("rep_norm_1", ["src"], [("m1",), ("m2",)])
        result = backend.execute("SELECT src FROM rep_norm_1")
        assert sorted(result.rows) == [("m1",), ("m2",)]

    def test_routing_is_case_insensitive_and_follows_drops(self):
        import pytest

        from repro.errors import BackendError

        backend = self.make_backend()
        backend._store_temp_table("Rep_Norm_1", ["src"], [("m1",)])
        assert backend.execute("SELECT src FROM rep_norm_1").rows == [("m1",)]
        with pytest.raises(BackendError):  # one name, whatever its case
            backend._store_temp_table("rep_norm_1", ["src"], [])
        backend.drop_temp_table("rep_norm_1")  # not the stored name: a no-op
        assert backend.list_temp_tables() == ["Rep_Norm_1"]
        assert backend._references_temp_table("SELECT src FROM REP_NORM_1")
        backend.drop_temp_table("Rep_Norm_1")
        assert not backend._references_temp_table("SELECT src FROM rep_norm_1")

    def test_temp_query_can_still_touch_base_tables(self):
        backend = self.make_backend()
        backend._store_temp_table("picked", ["src"], [("m1",)])
        result = backend.execute(
            "SELECT activity.value FROM activity, picked "
            "WHERE activity.mach_id = picked.src"
        )
        assert result.rows == [("idle",)]

    def test_unlexable_sql_falls_through_to_normal_error(self):
        import pytest

        from repro.errors import TracError

        backend = self.make_backend()
        backend._store_temp_table("rep_norm_1", ["a"], [])
        with pytest.raises(TracError):
            backend.execute("SELECT ~~~ rep_norm_1")


class TestSnapshotCow:
    def test_snapshot_sees_frozen_rows(self):
        backend = self.make_loaded()
        with backend.snapshot() as snap:
            backend.insert_rows("activity", [("m3", "idle")])
            rows = snap.execute("SELECT mach_id FROM activity").rows
        assert sorted(rows) == [("m1",), ("m2",)]
        after = backend.execute("SELECT mach_id FROM activity").rows
        assert sorted(after) == [("m1",), ("m2",), ("m3",)]

    def test_snapshot_open_copies_nothing(self):
        backend = self.make_loaded()
        with backend.snapshot():
            pass
        rows_before = backend.db.relation("activity").rows
        backend.insert_rows("activity", [("m3", "busy")])
        # The closed snapshot released its share: the write was in place.
        assert backend.db.relation("activity").rows is rows_before

    @staticmethod
    def make_loaded():
        backend = MemoryBackend(catalog())
        backend.insert_rows("activity", [("m1", "idle"), ("m2", "busy")])
        return backend
