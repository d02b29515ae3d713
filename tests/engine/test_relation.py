"""Relation / Database container tests."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database, Relation
from repro.errors import EngineError


def schema():
    return TableSchema(
        "t", [Column("a", "TEXT"), Column("b", "INTEGER")], source_column="a"
    )


class TestRelation:
    def test_insert_and_len(self):
        r = Relation(schema())
        r.insert(("x", 1))
        assert len(r) == 1
        assert r.rows == [("x", 1)]

    def test_insert_converts_to_tuple(self):
        r = Relation(schema())
        r.insert(["x", 1])
        assert isinstance(r.rows[0], tuple)

    def test_arity_check(self):
        r = Relation(schema())
        with pytest.raises(EngineError):
            r.insert(("x",))

    def test_bag_semantics(self):
        r = Relation(schema())
        r.insert(("x", 1))
        r.insert(("x", 1))
        assert len(r) == 2

    def test_insert_many(self):
        r = Relation(schema())
        r.insert_many([("x", 1), ("y", 2)])
        assert len(r) == 2

    def test_constructor_rows(self):
        r = Relation(schema(), [("x", 1)])
        assert len(r) == 1

    def test_delete_keys(self):
        r = Relation(schema(), [("x", 1), ("y", 2), ("x", 3)])
        removed = r.delete_keys((0,), [("x",)])
        assert removed == 2
        assert r.rows == [("y", 2)]

    def test_update_arity_check(self):
        r = Relation(schema(), [("x", 1)])
        with pytest.raises(EngineError):
            r.upsert((0,), ("x",))
        assert r.rows == [("x", 1)]

    def test_copy_is_independent(self):
        r = Relation(schema(), [("x", 1)])
        clone = r.copy()
        clone.insert(("y", 2))
        assert len(r) == 1
        assert len(clone) == 2


class TestDatabase:
    def test_catalog_tables_materialized(self):
        db = Database(Catalog([schema()]))
        assert db.has("t")
        assert db.has("heartbeat")

    def test_insert_through_db(self):
        db = Database(Catalog([schema()]))
        db.insert("t", ("x", 1))
        assert len(db.relation("t")) == 1

    def test_missing_relation(self):
        db = Database(Catalog())
        with pytest.raises(EngineError):
            db.relation("nope")

    def test_add_table_registers_catalog(self):
        db = Database(Catalog())
        db.add_table(schema(), [("x", 1)])
        assert db.catalog.has("t")
        assert len(db.relation("t")) == 1

    def test_copy_is_deep_for_rows(self):
        db = Database(Catalog([schema()]))
        db.insert("t", ("x", 1))
        clone = db.copy()
        clone.insert("t", ("y", 2))
        assert len(db.relation("t")) == 1
        assert len(clone.relation("t")) == 2

    def test_tables_listing(self):
        db = Database(Catalog([schema()]))
        assert db.tables() == ["heartbeat", "t"]
