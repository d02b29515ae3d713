"""MemoryBackend change-listener tests: every Heartbeat mutation announces
itself through one of three events."""

import pytest

from repro import Catalog, Column, MemoryBackend, TableSchema
from repro.incremental import IncrementalMaintainer

EVENTS = {"heartbeat_rows_upserted", "heartbeat_rows_deleted", "heartbeat_cleared"}


class RecordingListener:
    def __init__(self):
        self.events = []

    def heartbeat_rows_upserted(self, key_columns, rows):
        self.events.append(("upserted", key_columns, list(rows)))

    def heartbeat_rows_deleted(self, key_columns, keys):
        self.events.append(("deleted", tuple(key_columns), list(keys)))

    def heartbeat_cleared(self):
        self.events.append(("cleared",))


@pytest.fixture
def backend():
    catalog = Catalog(
        [
            TableSchema(
                "activity",
                [Column("mach_id", "TEXT"), Column("value", "TEXT")],
                source_column="mach_id",
            )
        ]
    )
    return MemoryBackend(catalog)


@pytest.fixture
def listener(backend):
    recorder = RecordingListener()
    backend.add_change_listener(recorder)
    return recorder


class TestHeartbeatEvents:
    def test_upsert_heartbeat_notifies(self, backend, listener):
        backend.upsert_heartbeat("m1", 10.0)
        assert listener.events == [("upserted", ("source_id",), [("m1", 10.0)])]

    def test_insert_rows_notifies_with_materialized_rows(self, backend, listener):
        """A plain append announces through the same event, keyed by ``None``."""
        backend.insert_rows("heartbeat", iter([("m1", 1.0), ("m2", 2.0)]))
        assert listener.events == [("upserted", None, [("m1", 1.0), ("m2", 2.0)])]
        # The rows also actually landed (the iterable was not consumed
        # twice or lost while materializing for the notification).
        assert backend.row_count("heartbeat") == 2

    def test_upsert_rows_notifies(self, backend, listener):
        backend.upsert_rows("heartbeat", ["source_id"], iter([("m1", 5.0)]))
        assert listener.events == [("upserted", ("source_id",), [("m1", 5.0)])]
        assert backend.row_count("heartbeat") == 1

    def test_delete_emits_invalidation_event(self, backend, listener):
        """Deletes must be announced eagerly — a materialized set that only
        found out at the next lazy index rebuild could serve a tombstoned
        source in the meantime."""
        backend.upsert_heartbeat("m1", 1.0)
        backend.upsert_heartbeat("m2", 2.0)
        backend.delete_rows("heartbeat", ["source_id"], [("m2",)])
        assert listener.events[-1] == ("deleted", ("source_id",), [("m2",)])

    def test_delete_all_notifies_cleared(self, backend, listener):
        backend.upsert_heartbeat("m1", 1.0)
        backend.delete_all("heartbeat")
        assert listener.events[-1] == ("cleared",)


class TestTableEvents:
    def test_monitored_table_mutations_notify_nothing(self, backend, listener):
        """Materialized sets read only Heartbeat, so only Heartbeat announces."""
        backend.insert_rows("activity", [("m1", "idle")])
        backend.upsert_rows("activity", ["mach_id"], [("m1", "busy")])
        backend.delete_rows("activity", ["mach_id"], [("m1",)])
        backend.delete_all("activity")
        assert listener.events == []


class TestVocabulary:
    def test_backend_announces_exactly_what_the_maintainer_implements(self, backend):
        """Every write method, on Heartbeat and off it, through a listener
        that records the *names* asked for."""
        asked = set()

        class Spy:
            def __getattr__(self, name):
                asked.add(name)
                raise AttributeError(name)

        backend.add_change_listener(Spy())
        for table, key, row in (
            ("heartbeat", "source_id", ("m1", 1.0)),
            ("activity", "mach_id", ("m1", "idle")),
        ):
            backend.insert_rows(table, [row])
            backend.upsert_rows(table, [key], [row])
            backend.delete_rows(table, [key], [row[:1]])
            backend.delete_all(table)
        backend.upsert_heartbeat("m1", 2.0)
        assert asked == EVENTS
        handlers = {n for n in vars(IncrementalMaintainer) if n.startswith(("heartbeat_", "table_"))}
        assert handlers == EVENTS

    def test_odd_key_upsert_resyncs_the_maintainer(self, backend):
        """Keyed by something other than source_id, per-source last-wins
        cannot be tracked: the maintainer rebuilds its mirror from the table."""
        backend.upsert_heartbeat("m1", 1.0)
        backend.upsert_heartbeat("m2", 1.0)
        maintainer = IncrementalMaintainer(backend)
        invalidations, updates = maintainer.invalidations, maintainer.updates
        # Upserting under ``recency`` replaces *both* rows holding 1.0.
        backend.upsert_rows("heartbeat", ["recency"], [("m3", 1.0)])
        assert backend.heartbeat_rows() == [("m3", 1.0)]
        assert (maintainer.invalidations, maintainer.updates) == (invalidations + 1, updates)
        # An append and a source-keyed upsert are applied row by row again.
        backend.insert_rows("heartbeat", [("m4", 4.0)])
        backend.upsert_heartbeat("m3", 3.0)
        assert (maintainer.invalidations, maintainer.updates) == (invalidations + 1, updates + 2)


class TestRegistry:
    def test_remove_listener_stops_notifications(self, backend, listener):
        backend.remove_change_listener(listener)
        backend.upsert_heartbeat("m1", 1.0)
        assert listener.events == []

    def test_add_is_idempotent(self, backend, listener):
        backend.add_change_listener(listener)
        backend.upsert_heartbeat("m1", 1.0)
        assert listener.events == [("upserted", ("source_id",), [("m1", 1.0)])]

    def test_partial_listeners_are_fine(self, backend):
        class OnlyDeletes:
            def __init__(self):
                self.deleted = []

            def heartbeat_rows_deleted(self, key_columns, keys):
                self.deleted.append(list(keys))

        only = OnlyDeletes()
        backend.add_change_listener(only)
        backend.upsert_heartbeat("m1", 1.0)  # no handler: silently skipped
        backend.delete_rows("heartbeat", ["source_id"], [("m1",)])
        assert only.deleted == [[("m1",)]]
