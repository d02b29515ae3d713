"""Shape tests for the resolved-query cache: a text that differs from a
cached one only in its literals is bound into that one's tree, and nothing
else is."""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine.cache import ResolvedQueryCache
from repro.sqlparser.parser import parse_query


def schema(name="t"):
    return TableSchema(
        name,
        [Column("a", "TEXT"), Column("b", "INTEGER"), Column("x1", "TEXT"), Column("x2", "TEXT")],
        source_column="a",
    )


def literals(resolved):
    return [(type(node.value), node.value) for node in resolved.query.literals if node is not None]


def assert_parsed_alike(resolved, sql):
    """``resolved`` is what parsing ``sql`` gives, literal types included."""
    parsed = parse_query(sql)
    assert resolved.query == parsed
    assert literals(resolved) == [(type(n.value), n.value) for n in parsed.literals if n is not None]


class TestShapeBinding:
    def test_a_text_of_a_seen_shape_is_bound(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        first = cache.resolve("SELECT t.a FROM t WHERE t.b = 3 AND t.a IN ('m1', 'm2')", catalog)
        sql = "SELECT t.a FROM t WHERE t.b = 7 AND t.a IN ('m9', 'm2')"
        second = cache.resolve(sql, catalog)
        assert second.bound_from[0] is first
        assert second.bindings is first.bindings
        assert second.generations == first.generations
        assert second.lineage_plan is first.lineage_plan
        assert_parsed_alike(second, sql)
        # Counters keep their text meaning: both texts missed.
        assert cache.stats() == {"hits": 0, "misses": 2, "size": 2, "maxsize": 4}
        assert cache.resolve(sql, catalog) is second

    def test_the_template_is_left_as_it_was(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        sql = "SELECT t.a FROM t WHERE t.b = 3"
        first = cache.resolve(sql, catalog)
        cache.resolve("SELECT t.a FROM t WHERE t.b = 4", catalog)
        assert_parsed_alike(first, sql)

    @pytest.mark.parametrize(
        "first, second",
        [
            # The equality pattern.
            ("t.a IN ('a', 'a')", "t.a IN ('a', 'b')"),
            ("t.a IN ('a', 'b')", "t.a IN ('a', 'a')"),
            ("(t.a = 'a' OR t.a = 'a')", "(t.a = 'a' OR t.a = 'b')"),
            ("t.b = 3 AND t.b = 3.0", "t.b = 3 AND t.b = 4.0"),
            # The type, and the value of a number equal to TRUE or FALSE.
            ("t.b = 1", "t.b = 2"),
            ("t.b = 0", "t.b = 2"),
            ("t.b = 1", "t.b = 1.0"),
            ("t.b = 1.0", "t.b = '1'"),
            ("t.b = '1'", "t.b = 1"),
            ("t.b = 0.0", "t.b = -0.0"),
            # A literal that is no node of the tree.
            ("t.a LIKE 'a%'", "t.a LIKE 'b%'"),
            ("t.b = 3 LIMIT 5", "t.b = 3 LIMIT 6"),
            # Quote- or digit-like text that is no literal.
            ("t.b = 3 /* 'a' 1 */", "t.b = 3 /* 'b' 2 */"),
            ("t.b = 3 -- it's 1\n", "t.b = 3 -- it's 2\n"),
            ("t.x1 = 'a'", "t.x2 = 'a'"),
            ('t."x1" = \'a\'', 't."x2" = \'a\''),
        ],
    )
    def test_texts_that_differ_in_more_than_values_share_no_binding(self, first, second):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve(f"SELECT t.a FROM t WHERE {first}", catalog)
        sql = f"SELECT t.a FROM t WHERE {second}"
        resolved = cache.resolve(sql, catalog)
        assert resolved.bound_from is None
        assert_parsed_alike(resolved, sql)

    def test_a_quoted_alias_holding_quotes_and_digits(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve("SELECT t.a AS \"it's 1\" FROM t WHERE t.b = 3", catalog)
        resolved = cache.resolve("SELECT t.a AS \"it's 2\" FROM t WHERE t.b = 3", catalog)
        assert resolved.bound_from is None
        assert resolved.query.select_items[0].alias == "it's 2"

    def test_a_schema_change_to_a_referenced_table_retires_the_shape(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve("SELECT t.a FROM t WHERE t.b = 3", catalog)
        catalog.replace(schema("t"))
        resolved = cache.resolve("SELECT t.a FROM t WHERE t.b = 4", catalog)
        assert resolved.bound_from is None
        assert resolved.is_current(catalog)
        # The new resolution is the shape's template from now on.
        third = cache.resolve("SELECT t.a FROM t WHERE t.b = 5", catalog)
        assert third.bound_from[0] is resolved

    def test_an_unrelated_table_change_keeps_the_shape(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        first = cache.resolve("SELECT t.a FROM t WHERE t.b = 3", catalog)
        catalog.add(schema("extra"))
        assert cache.resolve("SELECT t.a FROM t WHERE t.b = 4", catalog).bound_from[0] is first

    def test_two_catalogs_never_share_a_shape(self):
        cache = ResolvedQueryCache(maxsize=4)
        a = Catalog([schema()])
        b = Catalog([schema()])
        cache.resolve("SELECT t.a FROM t WHERE t.b = 3", a)
        resolved = cache.resolve("SELECT t.a FROM t WHERE t.b = 4", b)
        assert resolved.bound_from is None
        assert resolved.catalog is b

    def test_maxsize_zero_disables_shapes(self):
        cache = ResolvedQueryCache(maxsize=0)
        catalog = Catalog([schema()])
        cache.resolve("SELECT t.a FROM t WHERE t.b = 3", catalog)
        assert cache.resolve("SELECT t.a FROM t WHERE t.b = 4", catalog).bound_from is None

    def test_shapes_are_least_recently_used_out_at_maxsize(self):
        cache = ResolvedQueryCache(maxsize=2)
        catalog = Catalog([schema()])
        shapes = [f"SELECT t.a FROM t WHERE t.b = {{}}{' ' * k}" for k in range(3)]
        templates = [cache.resolve(shape.format(3), catalog) for shape in shapes]
        # The first shape was evicted by the third; the other two bind.
        assert cache.resolve(shapes[0].format(4), catalog).bound_from is None
        assert cache.resolve(shapes[2].format(4), catalog).bound_from[0] is templates[2]

    def test_clear_drops_shapes(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve("SELECT t.a FROM t WHERE t.b = 3", catalog)
        cache.clear()
        assert cache.resolve("SELECT t.a FROM t WHERE t.b = 4", catalog).bound_from is None

    def test_a_malformed_text_raises_as_it_did(self):
        from repro.errors import LexerError

        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve("SELECT t.a FROM t WHERE t.b = 3", catalog)
        with pytest.raises(LexerError) as info:
            cache.resolve("SELECT t.a FROM t WHERE t.b = 3e", catalog)
        assert info.value.position == len("SELECT t.a FROM t WHERE t.b = ")
