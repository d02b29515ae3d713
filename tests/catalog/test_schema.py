"""Schema model tests."""

import pytest

from repro.catalog import (
    Catalog,
    Column,
    FiniteDomain,
    TableSchema,
    heartbeat_schema,
    HEARTBEAT_RECENCY_COLUMN,
    HEARTBEAT_SOURCE_COLUMN,
    HEARTBEAT_TABLE,
)
from repro.catalog.domains import IntegerDomain, RealDomain, TextDomain, TimestampDomain
from repro.errors import CatalogError


class TestColumn:
    def test_basic(self):
        c = Column("mach_id", "TEXT")
        assert c.name == "mach_id"
        assert c.sql_type == "TEXT"

    def test_type_normalized_to_upper(self):
        assert Column("x", "integer").sql_type == "INTEGER"

    def test_default_domains_by_type(self):
        assert isinstance(Column("a", "TEXT").domain, TextDomain)
        assert isinstance(Column("b", "INTEGER").domain, IntegerDomain)
        assert isinstance(Column("c", "REAL").domain, RealDomain)
        assert isinstance(Column("d", "TIMESTAMP").domain, TimestampDomain)

    def test_explicit_domain_kept(self):
        d = FiniteDomain({"x"})
        assert Column("a", "TEXT", d).domain is d

    def test_invalid_name(self):
        with pytest.raises(CatalogError):
            Column("bad name", "TEXT")
        with pytest.raises(CatalogError):
            Column("", "TEXT")

    def test_invalid_type(self):
        with pytest.raises(CatalogError):
            Column("x", "BLOB")

    def test_equality(self):
        assert Column("x", "TEXT") == Column("x", "TEXT")
        assert Column("x", "TEXT") != Column("x", "INTEGER")


class TestTableSchema:
    def _schema(self):
        return TableSchema(
            "activity",
            [Column("mach_id", "TEXT"), Column("value", "TEXT")],
            source_column="mach_id",
        )

    def test_column_lookup_case_insensitive(self):
        schema = self._schema()
        assert schema.column("MACH_ID").name == "mach_id"

    def test_missing_column(self):
        with pytest.raises(CatalogError):
            self._schema().column("nope")

    def test_has_column(self):
        schema = self._schema()
        assert schema.has_column("value")
        assert not schema.has_column("nope")

    def test_source_column_validation(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", "TEXT")], source_column="nope")

    def test_is_source_column(self):
        schema = self._schema()
        assert schema.is_source_column("mach_id")
        assert schema.is_source_column("MACH_ID")
        assert not schema.is_source_column("value")

    def test_column_index(self):
        schema = self._schema()
        assert schema.column_index("mach_id") == 0
        assert schema.column_index("value") == 1
        with pytest.raises(CatalogError):
            schema.column_index("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a", "TEXT"), Column("A", "TEXT")])

    def test_empty_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [])


class TestHeartbeatSchema:
    def test_shape(self):
        schema = heartbeat_schema()
        assert schema.name == HEARTBEAT_TABLE
        assert [c.name for c in schema.columns] == [HEARTBEAT_SOURCE_COLUMN, HEARTBEAT_RECENCY_COLUMN]
        # Heartbeat rows are tagged by their own source id.
        assert schema.source_column == HEARTBEAT_SOURCE_COLUMN


class TestCatalog:
    def test_heartbeat_always_present(self):
        catalog = Catalog()
        assert catalog.has(HEARTBEAT_TABLE)
        assert catalog.heartbeat.name == HEARTBEAT_TABLE

    def test_add_and_get_case_insensitive(self):
        catalog = Catalog()
        catalog.add(TableSchema("Activity", [Column("a", "TEXT")]))
        assert catalog.get("ACTIVITY").name == "Activity"
        assert "activity" in catalog

    def test_duplicate_add_rejected(self):
        catalog = Catalog()
        catalog.add(TableSchema("t", [Column("a", "TEXT")]))
        with pytest.raises(CatalogError):
            catalog.add(TableSchema("T", [Column("a", "TEXT")]))

    def test_replace_allows_overwrite(self):
        catalog = Catalog()
        catalog.add(TableSchema("t", [Column("a", "TEXT")]))
        catalog.replace(TableSchema("t", [Column("b", "TEXT")]))
        assert catalog.get("t").has_column("b")

    def test_missing_table(self):
        with pytest.raises(CatalogError):
            Catalog().get("nope")

    def test_monitored_tables_excludes_heartbeat(self):
        catalog = Catalog([TableSchema("t", [Column("a", "TEXT")])])
        assert [t.name for t in catalog.monitored_tables()] == ["t"]

    def test_len_counts_heartbeat(self):
        assert len(Catalog()) == 1
