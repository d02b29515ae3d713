"""Parser unit tests for the SPJ subset."""

import pytest

from repro.errors import ParseError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression, parse_query


class TestSelectList:
    def test_star(self):
        q = parse_query("SELECT * FROM t")
        assert len(q.select_items) == 1
        assert q.select_items[0].is_star

    def test_single_column(self):
        q = parse_query("SELECT mach_id FROM Activity")
        item = q.select_items[0]
        assert isinstance(item.expr, ast.ColumnRef)
        assert item.expr.name == "mach_id"
        assert item.expr.qualifier is None

    def test_qualified_column(self):
        q = parse_query("SELECT A.mach_id FROM Activity A")
        assert q.select_items[0].expr.qualifier == "A"

    def test_multiple_columns(self):
        q = parse_query("SELECT a, b, c FROM t")
        assert [i.expr.name for i in q.select_items] == ["a", "b", "c"]

    def test_alias_with_as(self):
        q = parse_query("SELECT mach_id AS machine FROM t")
        assert q.select_items[0].alias == "machine"

    def test_alias_without_as(self):
        q = parse_query("SELECT mach_id machine FROM t")
        assert q.select_items[0].alias == "machine"

    def test_literal_select_item(self):
        q = parse_query("SELECT 1 FROM t")
        assert isinstance(q.select_items[0].expr, ast.Literal)
        assert q.select_items[0].expr.value == 1

    def test_distinct(self):
        assert parse_query("SELECT DISTINCT a FROM t").distinct
        assert not parse_query("SELECT a FROM t").distinct


class TestAggregates:
    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM t")
        agg = q.select_items[0].expr
        assert isinstance(agg, ast.AggregateCall)
        assert agg.func == "COUNT"
        assert agg.argument is None

    @pytest.mark.parametrize("func", ["COUNT", "SUM", "AVG", "MIN", "MAX"])
    def test_each_aggregate(self, func):
        q = parse_query(f"SELECT {func}(x) FROM t")
        agg = q.select_items[0].expr
        assert agg.func == func
        assert agg.argument.name == "x"

    def test_count_distinct(self):
        q = parse_query("SELECT COUNT(DISTINCT x) FROM t")
        assert q.select_items[0].expr.distinct

    def test_sum_star_rejected(self):
        with pytest.raises((ParseError, ValueError)):
            parse_query("SELECT SUM(*) FROM t")

    def test_has_aggregates_property(self):
        assert parse_query("SELECT COUNT(*) FROM t").has_aggregates
        assert not parse_query("SELECT x FROM t").has_aggregates


class TestFromClause:
    def test_single_table(self):
        q = parse_query("SELECT * FROM Activity")
        assert q.tables[0].name == "Activity"
        assert q.tables[0].alias is None

    def test_alias(self):
        q = parse_query("SELECT * FROM Activity A")
        assert q.tables[0].alias == "A"
        assert q.tables[0].binding_key == "a"

    def test_alias_with_as(self):
        q = parse_query("SELECT * FROM Activity AS act")
        assert q.tables[0].alias == "act"

    def test_multiple_tables(self):
        q = parse_query("SELECT * FROM Routing R, Activity A")
        assert [t.name for t in q.tables] == ["Routing", "Activity"]
        assert [t.alias for t in q.tables] == ["R", "A"]


class TestPredicates:
    def test_simple_comparison(self):
        expr = parse_expression("value = 'idle'")
        assert isinstance(expr, ast.Comparison)
        assert expr.op == "="
        assert expr.right.value == "idle"

    def test_bang_equals_normalized(self):
        expr = parse_expression("x != 3")
        assert expr.op == "<>"

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    def test_all_comparison_ops(self, op):
        expr = parse_expression(f"x {op} 1")
        assert expr.op == op

    def test_column_to_column(self):
        expr = parse_expression("R.neighbor = A.mach_id")
        assert isinstance(expr.left, ast.ColumnRef)
        assert isinstance(expr.right, ast.ColumnRef)

    def test_in_list(self):
        expr = parse_expression("mach_id IN ('m1', 'm2', 'm3')")
        assert isinstance(expr, ast.InList)
        assert not expr.negated
        assert [v.value for v in expr.values] == ["m1", "m2", "m3"]

    def test_not_in_list(self):
        expr = parse_expression("mach_id NOT IN ('m1')")
        assert expr.negated

    def test_in_list_requires_literals(self):
        with pytest.raises(ParseError):
            parse_expression("x IN (y, z)")

    def test_between(self):
        expr = parse_expression("x BETWEEN 1 AND 10")
        assert isinstance(expr, ast.Between)
        assert expr.low.value == 1
        assert expr.high.value == 10

    def test_not_between(self):
        assert parse_expression("x NOT BETWEEN 1 AND 2").negated

    def test_like(self):
        expr = parse_expression("name LIKE 'Tao%'")
        assert isinstance(expr, ast.Like)
        assert expr.pattern == "Tao%"

    def test_not_like(self):
        assert parse_expression("name NOT LIKE '%x%'").negated

    def test_is_null(self):
        expr = parse_expression("x IS NULL")
        assert isinstance(expr, ast.IsNull)
        assert not expr.negated

    def test_is_not_null(self):
        assert parse_expression("x IS NOT NULL").negated

    def test_null_literal_comparison(self):
        expr = parse_expression("x = NULL")
        assert expr.right.value is None

    def test_dangling_not_raises(self):
        with pytest.raises(ParseError):
            parse_expression("x NOT = 3")


class TestBooleanStructure:
    def test_and_flattening(self):
        expr = parse_expression("a = 1 AND b = 2 AND c = 3")
        assert isinstance(expr, ast.And)
        assert len(expr.items) == 3

    def test_or(self):
        expr = parse_expression("a = 1 OR b = 2")
        assert isinstance(expr, ast.Or)

    def test_precedence_and_binds_tighter(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, ast.Or)
        assert isinstance(expr.items[1], ast.And)

    def test_parentheses_override(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        assert isinstance(expr, ast.And)
        assert isinstance(expr.items[0], ast.Or)

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert isinstance(expr, ast.Not)

    def test_double_not(self):
        expr = parse_expression("NOT NOT a = 1")
        assert isinstance(expr, ast.Not)
        assert isinstance(expr.expr, ast.Not)

    def test_true_false_literals(self):
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False
        assert parse_expression("(TRUE) AND NOT FALSE") == ast.And(
            [ast.Literal(True), ast.Not(ast.Literal(False))]
        )

    def test_a_compared_true_or_false_is_the_integer_sqlite_stores(self):
        """In an operand position TRUE is 1 and FALSE 0, as ``typeof(TRUE)``
        is ``integer`` in SQLite; on either side of a comparison too."""
        one, zero = ast.Literal(1), ast.Literal(0)
        a = ast.ColumnRef("a")
        for text, tree in [
            ("a = TRUE", ast.Comparison("=", a, one)),
            ("FALSE <> a", ast.Comparison("<>", zero, a)),
            ("a IN (TRUE, 5)", ast.InList(a, [one, ast.Literal(5)])),
            ("a BETWEEN FALSE AND TRUE", ast.Between(a, zero, one)),
            ("TRUE NOT IN (0)", ast.InList(one, [zero], True)),
            ("TRUE IS NULL", ast.IsNull(one)),
        ]:
            parsed = parse_expression(text)
            assert parsed == tree, text
            assert all(type(v.value) is int for v in _literals(parsed)), text


def _literals(expr):
    """Every literal node under a predicate ``expr``."""
    if isinstance(expr, ast.Literal):
        return [expr]
    children = [getattr(expr, name) for name in ("left", "right", "expr", "low", "high")
                if hasattr(expr, name)] + list(getattr(expr, "values", ()))
    return [literal for child in children for literal in _literals(child)]


class TestFullQueries:
    def test_where_clause_attached(self):
        q = parse_query("SELECT a FROM t WHERE a = 1")
        assert isinstance(q.where, ast.Comparison)

    def test_no_where(self):
        assert parse_query("SELECT a FROM t").where is None

    def test_group_by(self):
        q = parse_query("SELECT a, COUNT(*) FROM t GROUP BY a")
        assert len(q.group_by) == 1
        assert q.group_by[0].name == "a"

    def test_limit(self):
        assert parse_query("SELECT a FROM t LIMIT 5").limit == 5

    def test_limit_rejects_float(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM t LIMIT 1.5")

    def test_trailing_semicolon_ok(self):
        parse_query("SELECT a FROM t;")

    def test_trailing_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM t garbage here")

    def test_missing_from_raises(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a WHERE a = 1")

    def test_paper_q2_multi_relation(self):
        q = parse_query(
            "SELECT A.mach_id FROM Routing R, Activity A "
            "WHERE R.mach_id = 'm1' AND A.value = 'idle' "
            "AND R.neighbor = A.mach_id"
        )
        assert len(q.tables) == 2
        assert isinstance(q.where, ast.And)
        assert len(q.where.items) == 3

    def test_structural_equality(self):
        a = parse_query("SELECT a FROM t WHERE a = 1")
        b = parse_query("select a from t where a = 1")
        assert a == b

    def test_structural_inequality(self):
        a = parse_query("SELECT a FROM t WHERE a = 1")
        b = parse_query("SELECT a FROM t WHERE a = 2")
        assert a != b
