"""Resolved-query cache tests: LRU behaviour and generation invalidation."""

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database, execute_sql
from repro.engine.cache import ResolvedQueryCache, get_cache
from repro.obs import instrument as obs
from repro.obs.instrument import QUERY_CACHE_HITS, QUERY_CACHE_MISSES, Telemetry


def schema(name="t"):
    return TableSchema(
        name, [Column("a", "TEXT"), Column("b", "INTEGER")], source_column="a"
    )


Q = "SELECT t.a FROM t WHERE t.b = 1"


class TestResolvedQueryCache:
    def test_miss_then_hit(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        first = cache.resolve(Q, catalog)
        second = cache.resolve(Q, catalog)
        assert second is first  # the identical resolved object
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1, "maxsize": 4}

    def test_unrelated_table_change_keeps_entry(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        first = cache.resolve(Q, catalog)
        catalog.add(schema("extra"))  # bumps catalog.generation, not t's
        second = cache.resolve(Q, catalog)
        assert second is first
        assert cache.hits == 1

    def test_referenced_table_change_invalidates(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        first = cache.resolve(Q, catalog)
        catalog.replace(schema("t"))  # t's schema generation changes
        second = cache.resolve(Q, catalog)
        assert second is not first
        assert cache.misses == 2
        assert len(cache) == 1  # the stale entry was dropped, not kept

    def test_distinct_catalogs_never_collide(self):
        cache = ResolvedQueryCache(maxsize=4)
        a = Catalog([schema()])
        b = Catalog([schema()])  # same tables, different catalog object
        ra = cache.resolve(Q, a)
        rb = cache.resolve(Q, b)
        assert ra is not rb
        assert cache.hits == 0

    def test_lru_eviction_order(self):
        cache = ResolvedQueryCache(maxsize=2)
        catalog = Catalog([schema()])
        q1, q2, q3 = (f"SELECT t.a FROM t WHERE t.b = {i}" for i in (1, 2, 3))
        cache.resolve(q1, catalog)
        cache.resolve(q2, catalog)
        cache.resolve(q1, catalog)  # refresh q1; q2 is now oldest
        cache.resolve(q3, catalog)  # evicts q2
        hits_before = cache.hits
        cache.resolve(q1, catalog)
        cache.resolve(q3, catalog)
        assert cache.hits == hits_before + 2
        misses_before = cache.misses
        cache.resolve(q2, catalog)  # was evicted
        assert cache.misses == misses_before + 1

    def test_maxsize_zero_disables(self):
        cache = ResolvedQueryCache(maxsize=0)
        catalog = Catalog([schema()])
        first = cache.resolve(Q, catalog)
        second = cache.resolve(Q, catalog)
        assert second is not first
        assert len(cache) == 0

    def test_clear_resets_counters(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve(Q, catalog)
        cache.resolve(Q, catalog)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0, "maxsize": 4}

    def test_telemetry_counters(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        tel = Telemetry()
        cache.resolve(Q, catalog, tel)
        cache.resolve(Q, catalog, tel)
        assert tel.metrics.counter(QUERY_CACHE_MISSES).value == 1
        assert tel.metrics.counter(QUERY_CACHE_HITS).value == 1

    def test_disabled_telemetry_not_recorded(self):
        cache = ResolvedQueryCache(maxsize=4)
        catalog = Catalog([schema()])
        cache.resolve(Q, catalog, obs.NULL_TELEMETRY)
        assert cache.misses == 1  # internal counter still works


class TestGlobalCache:
    def test_execute_sql_goes_through_global_cache(self):
        db = Database(Catalog([schema()]))
        db.insert("t", ("x", 1))
        cache = get_cache()
        before = cache.stats()
        execute_sql(db, Q)
        execute_sql(db, Q)
        after = cache.stats()
        assert after["hits"] >= before["hits"] + 1

    def test_profile_cache_verdict_ignores_a_foreign_hit(self, monkeypatch):
        """The verdict is this lookup's, not a diff of the process-wide
        counter: another thread's hit landing inside our miss (injected
        here through the parser the miss calls) must not flip it."""
        from repro.engine import cache as cache_mod

        db = Database(Catalog([schema()]))
        db.insert("t", ("x", 1))
        tel = Telemetry()
        execute_sql(db, Q)  # the foreign query is cached
        real_parse = cache_mod.parse_query

        def parse_beside_a_foreign_hit(sql):
            get_cache().resolve(Q, db.catalog)
            return real_parse(sql)

        monkeypatch.setattr(cache_mod, "parse_query", parse_beside_a_foreign_hit)
        first_sighting = "SELECT t.b FROM t WHERE t.a = 'first sighting'"
        execute_sql(db, first_sighting, telemetry=tel)
        assert tel.profiles.last().cache_hit is False
        monkeypatch.undo()
        execute_sql(db, first_sighting, telemetry=tel)
        assert tel.profiles.last().cache_hit is True

    def test_cached_execution_matches_uncached(self):
        db = Database(Catalog([schema()]))
        db.insert_many("t", [("x", 1), ("y", 2)])
        cached = execute_sql(db, Q)  # second call hits the cache
        again = execute_sql(db, Q)
        uncached = execute_sql(db, Q, cache=False)
        assert cached.rows == again.rows == uncached.rows == [("x",)]
