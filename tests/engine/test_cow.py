"""Copy-on-write snapshot tests: sharing, divergence, release semantics."""

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database, Relation
from repro.obs import instrument as obs
from repro.obs.instrument import COW_COPIES, COW_ROWS_COPIED, Telemetry


def schema():
    return TableSchema(
        "t", [Column("a", "TEXT"), Column("b", "INTEGER")], source_column="a"
    )


class TestRelationSharing:
    def test_share_is_o1_not_a_copy(self):
        r = Relation(schema(), [("x", i) for i in range(1000)])
        view = r.share()
        assert view.rows is r.rows  # no rows copied at share time

    def test_write_diverges_writer_not_view(self):
        r = Relation(schema(), [("x", 1)])
        view = r.share()
        r.insert(("y", 2))
        assert view.rows == [("x", 1)]
        assert r.rows == [("x", 1), ("y", 2)]

    def test_replace_row_diverges(self):
        """An upsert overwrites the key's single holder in place — on a copy
        when a share is live."""
        r = Relation(schema(), [("x", 1)])
        view = r.share()
        r.upsert((0,), ("x", 99))
        assert view.rows == [("x", 1)]
        assert r.rows == [("x", 99)]

    def test_delete_keys_diverges(self):
        r = Relation(schema(), [("x", 1), ("y", 2)])
        view = r.share()
        assert r.delete_keys((0,), [("x",)]) == 1
        assert view.rows == [("x", 1), ("y", 2)]
        assert r.rows == [("y", 2)]

    def test_clear_diverges(self):
        r = Relation(schema(), [("x", 1)])
        view = r.share()
        r.clear()
        assert view.rows == [("x", 1)]
        assert r.rows == []

    def test_a_view_reads_through_the_index_it_borrows(self):
        """A delete rebinds the parent's list and index; the view keeps the
        old pair and still answers a lookup from it."""
        r = Relation(schema(), [("x", 1), ("y", 2)])
        r.index_on((0,))
        view = r.share()
        r.insert(("x", 3))  # past the view's length: a view lookup drops it
        assert r.delete_keys((0,), [("y",)]) == 1
        assert view.lookup(0, ["x", "y"]) == [("x", 1), ("y", 2)]
        assert r.lookup(0, ["x", "y"]) == [("x", 1), ("x", 3)]
        assert r.lookup(1, [1]) is None  # not keyed on that column

    def test_released_share_writes_in_place(self):
        r = Relation(schema(), [("x", 1)])
        view = r.share()
        r.release_share(view)
        rows_before = r.rows
        r.insert(("y", 2))
        assert r.rows is rows_before  # no copy once the share is gone

    def test_write_through_view_copies_first(self):
        r = Relation(schema(), [("x", 1)])
        view = r.share()
        view.insert(("z", 3))  # the phantom share protects the live relation
        assert r.rows == [("x", 1)]
        assert view.rows == [("x", 1), ("z", 3)]

    def test_stale_release_after_divergence_is_noop(self):
        # Snapshot A shares, a write diverges, snapshot B shares the new
        # list. Releasing A must NOT strip B's protection.
        r = Relation(schema(), [("x", 1)])
        view_a = r.share()
        r.insert(("y", 2))  # diverges from A
        view_b = r.share()
        r.release_share(view_a)  # stale: lists differ, must be a no-op
        r.insert(("z", 3))  # must still copy for B
        assert view_b.rows == [("x", 1), ("y", 2)]

    def test_one_copy_per_burst_of_writes(self):
        r = Relation(schema(), [("x", 1)])
        r.share()
        r.insert(("y", 2))  # copies once
        rows_after_first = r.rows
        r.insert(("z", 3))  # share already cleared: in place
        assert r.rows is rows_after_first


class TestDatabaseSnapshotView:
    def db(self, rows=((("x", 1)),)):
        db = Database(Catalog([schema()]))
        db.insert_many("t", [("x", 1), ("y", 2)])
        return db

    def test_snapshot_view_shares_every_relation(self):
        db = self.db()
        view = db.snapshot_view()
        for name in db.tables():
            assert view.relation(name).rows is db.relation(name).rows

    def test_view_isolated_from_writes(self):
        db = self.db()
        view = db.snapshot_view()
        db.insert("t", ("z", 3))
        assert len(view.relation("t")) == 2
        assert len(db.relation("t")) == 3

    def test_release_view_restores_in_place_writes(self):
        db = self.db()
        view = db.snapshot_view()
        db.release_view(view)
        rows_before = db.relation("t").rows
        db.insert("t", ("z", 3))
        assert db.relation("t").rows is rows_before

    def test_overlapping_views(self):
        db = self.db()
        a = db.snapshot_view()
        db.insert("t", ("z", 3))
        b = db.snapshot_view()
        db.release_view(a)
        db.insert("t", ("w", 4))
        assert len(a.relation("t")) == 2
        assert len(b.relation("t")) == 3
        assert len(db.relation("t")) == 4


class TestCowTelemetry:
    def test_copy_recorded_when_enabled(self):
        tel = Telemetry()
        obs.set_default(tel)
        try:
            r = Relation(schema(), [("x", 1), ("y", 2)])
            r.share()
            r.insert(("z", 3))
            labels = {"table": "t"}
            assert tel.metrics.counter(COW_COPIES, labels).value == 1
            assert tel.metrics.counter(COW_ROWS_COPIED, labels).value == 2
        finally:
            obs.disable()

    def test_no_copy_no_metric(self):
        tel = Telemetry()
        obs.set_default(tel)
        try:
            r = Relation(schema(), [("x", 1)])
            r.insert(("y", 2))  # unshared: in place, nothing recorded
            assert tel.metrics.counter(COW_COPIES, {"table": "t"}).value == 0
        finally:
            obs.disable()
