"""Compiled predicate/projection tests: the fast path vs the interpreter.

``tools/fuzz_engine.py`` (and its marked wrapper) covers the random
surface; these tests pin the deliberate design points — 3VL corners, the
IN set specialization, the row-carrier restriction, and that nothing but
``compiled=False`` ever reaches the interpreter.
"""

import pytest

from repro.catalog import Catalog, Column, TableSchema
from repro.engine import Database, execute_sql
from repro.engine import compile as compile_mod
from repro.engine.evaluate import _build_index_map, _Interpreted
from repro.errors import EngineError
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve


def catalog():
    return Catalog(
        [
            TableSchema(
                "t",
                [Column("s", "TEXT"), Column("x", "INTEGER"), Column("v", "TEXT")],
                source_column="s",
            ),
            TableSchema(
                "u",
                [Column("s", "TEXT"), Column("y", "INTEGER")],
                source_column="s",
            ),
        ]
    )


def database(rows_t=(), rows_u=()):
    db = Database(catalog())
    db.insert_many("t", rows_t)
    db.insert_many("u", rows_u)
    return db


def compiled_where(sql):
    """Resolve ``sql`` and return (where expr, index map)."""
    resolved = resolve(parse_query(sql), catalog())
    return resolved.query.where, _build_index_map(resolved)


def both(db, sql):
    compiled = sorted(execute_sql(db, sql, compiled=True).rows)
    interpreted = sorted(execute_sql(db, sql, compiled=False).rows)
    return compiled, interpreted


ROWS_T = [
    ("a", 1, "p"),
    ("b", None, "pq"),
    ("c", 3, None),
    ("a", 1.0, "q"),
]
ROWS_U = [("a", 1), ("b", None), ("c", 5)]


class TestCompiledMatchesInterpreted:
    @pytest.mark.parametrize(
        "where",
        [
            "t.x = 1",
            "t.x <> 1",
            "t.x > 0 AND t.v LIKE 'p%'",
            "t.x IS NULL OR t.v IS NOT NULL",
            "NOT (t.x BETWEEN 0 AND 2)",
            "t.s IN ('a', 'c')",
            "t.s NOT IN ('a')",
            "t.x IN (1, 3)",
            "t.x NOT IN (1)",
        ],
    )
    def test_single_table(self, where):
        db = database(ROWS_T, ROWS_U)
        compiled, interpreted = both(db, f"SELECT t.s, t.x FROM t WHERE {where}")
        assert compiled == interpreted

    def test_join_and_residual(self):
        db = database(ROWS_T, ROWS_U)
        sql = (
            "SELECT t.s, u.y FROM t, u "
            "WHERE t.s = u.s AND t.x <= u.y AND u.y IN (1, 5)"
        )
        compiled, interpreted = both(db, sql)
        assert compiled == interpreted

    def test_general_boolean_where(self):
        db = database(ROWS_T, ROWS_U)
        sql = "SELECT t.s FROM t, u WHERE t.s = u.s OR t.x = u.y"
        compiled, interpreted = both(db, sql)
        assert compiled == interpreted

    def test_aggregates_group_by_order_by(self):
        db = database(ROWS_T, ROWS_U)
        sql = (
            "SELECT t.s, COUNT(*), MAX(t.x) FROM t "
            "GROUP BY t.s ORDER BY t.s DESC"
        )
        compiled, interpreted = both(db, sql)
        assert compiled == interpreted


class TestInListSpecialization:
    def test_numeric_equality_across_int_and_float(self):
        # 1.0 IN (1) is true under SQL numeric comparison; the frozenset
        # specialization must preserve that (Python hashes 1 and 1.0 alike).
        db = database([("a", 1.0, None)])
        assert execute_sql(db, "SELECT t.s FROM t WHERE t.x IN (1)").rows == [("a",)]

    def test_mixed_type_never_matches(self):
        db = database([("a", 1, "1")])
        assert execute_sql(db, "SELECT t.s FROM t WHERE t.v IN (1)").rows == []

    def test_null_value_is_unknown(self):
        db = database([("a", None, "p")])
        assert execute_sql(db, "SELECT t.s FROM t WHERE t.x IN (1, 2)").rows == []
        assert execute_sql(db, "SELECT t.s FROM t WHERE t.x NOT IN (1, 2)").rows == []

    def test_null_literal_falls_back_to_3vl(self):
        # x NOT IN (1, NULL): no match is UNKNOWN, a match is FALSE.
        db = database([("a", 1, None), ("b", 2, None)])
        where, index_of = compiled_where("SELECT t.s FROM t WHERE t.x NOT IN (1, 2)")
        assert compile_mod.compile_truth(where, index_of) is not None
        rows = execute_sql(
            db, "SELECT t.s FROM t WHERE t.x NOT IN (1, 3)", compiled=True
        ).rows
        assert rows == [("b",)]


class TestRowCarrier:
    def test_row_predicate_skips_env_dicts(self):
        where, index_of = compiled_where("SELECT t.s FROM t WHERE t.x = 1")
        pred = compile_mod.compile_row_predicate(where, "t", index_of)
        assert pred(("a", 1, "p")) is True
        assert pred(("a", 2, "p")) is False
        assert pred(("a", None, "p")) is False

    def test_foreign_binding_rejected(self):
        where, index_of = compiled_where(
            "SELECT t.s FROM t, u WHERE t.s = u.s"
        )
        with pytest.raises(EngineError):
            compile_mod.compile_row_predicate(where, "t", index_of)


class TestTruthCorners:
    def test_non_boolean_literal_predicate_rejected(self):
        resolved = resolve(parse_query("SELECT t.s FROM t WHERE t.x = 1"), catalog())
        from repro.sqlparser import ast

        with pytest.raises(EngineError):
            compile_mod.compile_truth(ast.Literal(7), _build_index_map(resolved))

    def test_projection_compiles_literals_and_columns(self):
        db = database([("a", 1, "p")])
        result = execute_sql(db, "SELECT t.s, 42 FROM t", compiled=True)
        assert result.rows == [("a", 42)]


class TestInterpreterIsPerCallOnly:
    SQL = (
        "SELECT t.s, COUNT(*) FROM t, u WHERE t.s = u.s AND t.x >= 1 "
        "GROUP BY t.s ORDER BY t.s LIMIT 5"
    )

    def test_default_execution_never_builds_the_interpreted_lowering(self, monkeypatch):
        built = []

        def trap(name, real):
            def lowering(*args):
                built.append(name)
                return real(*args)

            return staticmethod(lowering)

        for name in (
            "compile_predicate", "compile_scalar", "compile_row_predicate", "compile_projection"
        ):
            monkeypatch.setattr(_Interpreted, name, trap(name, getattr(_Interpreted, name)))
        db = database(ROWS_T, [("a", 1), ("c", 2)])
        default = execute_sql(db, self.SQL, cache=False).rows
        assert built == []
        assert execute_sql(db, self.SQL, cache=False, compiled=False).rows == default
        assert "compile_row_predicate" in built  # the trap does see the oracle
