"""Row-level lineage: algebra laws, alignment, and the shared cache entry.

The lineage algebra has three laws the engine must uphold for every query
shape (checked here with Hypothesis, and at scale by the ``lineage``
statements of ``tools/fuzz_engine.py``):

* a join row's lineage is the union of its parents' lineages;
* projection and filtering never *invent* sources — every cited source
  exists in the base data;
* the compiled and interpreted paths produce identical lineage (both
  funnel through the same projection, so this is by construction — the
  test pins it against regressions).

Plus the cache contract: lineage-on and lineage-off executions of one SQL
share one resolved-query entry, and neither leaks into the other's result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog, Column, FiniteDomain, TableSchema
from repro.engine import Database, execute_sql
from repro.engine.cache import get_cache, resolve_cached
from repro.engine.lineage import (
    EMPTY_LINEAGE,
    build_lineage_plan,
    env_lineage,
    union_lineage,
)
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve


def catalog() -> Catalog:
    return Catalog(
        [
            TableSchema(
                "t1",
                [
                    Column("s", "TEXT", FiniteDomain({"a", "b", "c"})),
                    Column("x", "INTEGER"),
                ],
                source_column="s",
            ),
            TableSchema(
                "t2",
                [
                    Column("s", "TEXT", FiniteDomain({"a", "b", "c"})),
                    Column("y", "INTEGER"),
                ],
                source_column="s",
            ),
        ]
    )


def make_db(rows1, rows2) -> Database:
    db = Database(catalog())
    db.insert_many("t1", rows1)
    db.insert_many("t2", rows2)
    return db


_row1 = st.tuples(st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(-2, 4)))
_row2 = st.tuples(st.sampled_from(["a", "b", "c"]), st.one_of(st.none(), st.integers(-2, 4)))

_where = st.sampled_from(
    [
        "t1.s = t2.s",
        "t1.s <> t2.s",
        "t1.x = t2.y",
        "t1.x > 0 AND t1.s = t2.s",
        "t1.x IS NULL OR t2.y IS NOT NULL",
        "t1.s IN ('a', 'b')",
    ]
)


class TestLineagePlan:
    def test_probes_cover_source_bearing_bindings(self):
        resolved = resolve(
            parse_query("SELECT t1.x FROM t1, t2 WHERE t1.s = t2.s"), catalog()
        )
        plan = build_lineage_plan(resolved)
        assert plan.fanin == 2
        assert sorted(key for key, _ in plan.probes) == ["t1", "t2"]

    def test_null_source_values_are_skipped(self):
        schema = TableSchema(
            "t3", [Column("s", "TEXT"), Column("x", "INTEGER")], source_column="s"
        )
        db = Database(Catalog([schema]))
        db.insert_many("t3", [(None, 1), ("a", 2)])
        result = execute_sql(db, "SELECT t3.x FROM t3", lineage=True, cache=False)
        assert result.lineage == [EMPTY_LINEAGE, frozenset({"a"})]

    def test_union_lineage(self):
        assert union_lineage([frozenset({"a"}), frozenset({"b"})]) == frozenset(
            {"a", "b"}
        )
        assert union_lineage([]) == EMPTY_LINEAGE

    def test_env_lineage_reads_bound_rows(self):
        env = {"t1": ("a", 1), "t2": ("b", 2)}
        assert env_lineage(env, [("t1", 0), ("t2", 0)]) == frozenset({"a", "b"})


class TestLineageAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_row1, max_size=5), st.lists(_row2, max_size=4), _where)
    def test_join_lineage_is_union_of_parents(self, rows1, rows2, where):
        db = make_db(rows1, rows2)
        sql = f"SELECT t1.s, t2.s FROM t1, t2 WHERE {where}"
        result = execute_sql(db, sql, lineage=True, cache=False)
        assert result.lineage is not None
        assert len(result.lineage) == len(result.rows)
        for row, lineage in zip(result.rows, result.lineage):
            # Each parent scan contributes exactly its own source value,
            # so the join row's lineage is their union.
            assert lineage == frozenset(v for v in row if v is not None)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_row1, max_size=5), st.lists(_row2, max_size=4), _where)
    def test_projection_and_filter_never_invent_sources(self, rows1, rows2, where):
        db = make_db(rows1, rows2)
        base = {r[0] for r in rows1} | {r[0] for r in rows2}
        sql = f"SELECT t1.x FROM t1, t2 WHERE {where}"
        result = execute_sql(db, sql, lineage=True, cache=False)
        for lineage in result.lineage:
            assert lineage <= base

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_row1, max_size=5), st.lists(_row2, max_size=4), _where)
    def test_compiled_and_interpreted_lineage_identical(self, rows1, rows2, where):
        db = make_db(rows1, rows2)
        for select in ("t1.s, t2.y", "COUNT(*)", "DISTINCT t1.s"):
            sql = f"SELECT {select} FROM t1, t2 WHERE {where}"
            interpreted = execute_sql(db, sql, compiled=False, lineage=True, cache=False)
            compiled = execute_sql(db, sql, compiled=True, lineage=True, cache=False)
            assert interpreted.rows == compiled.rows, sql
            assert interpreted.lineage == compiled.lineage, sql

    def test_aggregate_unions_group_contributors(self):
        db = make_db([("a", 1), ("b", 2)], [("a", 1), ("b", 2)])
        result = execute_sql(
            db, "SELECT COUNT(*) FROM t1, t2 WHERE t1.s = t2.s", lineage=True, cache=False
        )
        assert result.lineage == [frozenset({"a", "b"})]

    def test_aggregate_over_empty_input_has_empty_lineage(self):
        db = make_db([], [])
        result = execute_sql(db, "SELECT COUNT(*) FROM t1", lineage=True, cache=False)
        assert result.rows == [(0,)]
        assert result.lineage == [EMPTY_LINEAGE]

    def test_group_by_splits_lineage_per_group(self):
        db = make_db([("a", 1), ("a", 2), ("b", 3)], [])
        result = execute_sql(
            db,
            "SELECT t1.s, COUNT(*) FROM t1 GROUP BY t1.s ORDER BY t1.s",
            lineage=True,
            cache=False,
        )
        assert result.rows == [("a", 2), ("b", 1)]
        assert result.lineage == [frozenset({"a"}), frozenset({"b"})]

    def test_distinct_merges_duplicate_rows_lineage(self):
        # 'a' and 'b' rows both project x=1; DISTINCT keeps one row whose
        # lineage is the union of the collapsed duplicates (why-provenance).
        db = make_db([("a", 1), ("b", 1)], [])
        result = execute_sql(db, "SELECT DISTINCT t1.x FROM t1", lineage=True, cache=False)
        assert result.rows == [(1,)]
        assert result.lineage == [frozenset({"a", "b"})]

    def test_order_by_and_limit_keep_lineage_aligned(self):
        db = make_db([("a", 3), ("b", 1), ("c", 2)], [])
        result = execute_sql(
            db,
            "SELECT t1.x FROM t1 ORDER BY t1.x DESC LIMIT 2",
            lineage=True,
            cache=False,
        )
        assert result.rows == [(3,), (2,)]
        assert result.lineage == [frozenset({"a"}), frozenset({"c"})]

    def test_lineage_disabled_returns_none(self):
        db = make_db([("a", 1)], [])
        assert execute_sql(db, "SELECT t1.x FROM t1", cache=False).lineage is None


class TestLineageCacheKey:
    """Lineage-on and lineage-off executions share one resolved-query entry."""

    def test_lineage_free_entry_never_serves_lineage_execution(self):
        db = make_db([("a", 1), ("b", 2)], [])
        sql = "SELECT t1.x FROM t1"
        plain = execute_sql(db, sql)  # populates the lineage-free entry
        assert plain.lineage is None
        with_lineage = execute_sql(db, sql, lineage=True)
        assert with_lineage.lineage == [frozenset({"a"}), frozenset({"b"})]
        # And back: the lineage-enabled entry must not leak into plain runs.
        plain_again = execute_sql(db, sql)
        assert plain_again.lineage is None

    def test_one_entry_serves_lineage_off_then_on(self):
        db = make_db([("a", 1), ("b", 2)], [])
        sql = "SELECT t1.x FROM t1 WHERE t1.x >= 1"
        cache = get_cache()
        cache.clear()  # a full cache evicts as it admits: its length would not move
        size, stats = len(cache), cache.stats()
        plain = execute_sql(db, sql)
        with_lineage = execute_sql(db, sql, lineage=True)
        assert len(cache) == size + 1
        assert cache.stats()["misses"] == stats["misses"] + 1
        assert cache.stats()["hits"] == stats["hits"] + 1
        assert plain.lineage is None
        assert with_lineage.lineage == [frozenset({"a"}), frozenset({"b"})]
        assert resolve_cached(sql, db.catalog).lineage_plan.fanin == 1
