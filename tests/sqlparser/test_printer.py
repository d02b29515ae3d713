"""Printer tests, including parse/print round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlparser.parser import parse_expression, parse_query
from repro.sqlparser.printer import expr_to_sql, literal_to_sql, to_sql


class TestLiterals:
    def test_string_quoting(self):
        assert literal_to_sql("idle") == "'idle'"

    def test_string_escaping(self):
        assert literal_to_sql("it's") == "'it''s'"

    def test_null(self):
        assert literal_to_sql(None) == "NULL"

    def test_booleans(self):
        assert literal_to_sql(True) == "TRUE"
        assert literal_to_sql(False) == "FALSE"

    def test_numbers(self):
        assert literal_to_sql(42) == "42"
        assert literal_to_sql(2.5) == "2.5"

    def test_infinities_print_as_literals_that_lex_back(self):
        # "inf" would lex back as an identifier.
        assert literal_to_sql(float("inf")) == "1e999"
        assert literal_to_sql(float("-inf")) == "-1e999"

    def test_nan_has_no_literal(self):
        from repro.errors import UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            literal_to_sql(float("nan"))


class TestExpressionPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "a = 1",
            "a <> 'x'",
            "a < 3 AND b >= 4",
            "mach_id IN ('m1', 'm2')",
            "mach_id NOT IN ('m1')",
            "x BETWEEN 1 AND 10",
            "x NOT BETWEEN 1 AND 10",
            "name LIKE 'Tao%'",
            "name NOT LIKE '_x%'",
            "x IS NULL",
            "x IS NOT NULL",
        ],
    )
    def test_print_parse_fixpoint(self, text):
        parsed = parse_expression(text)
        printed = expr_to_sql(parsed)
        assert parse_expression(printed) == parsed

    def test_or_inside_and_is_parenthesized(self):
        expr = parse_expression("(a = 1 OR b = 2) AND c = 3")
        printed = expr_to_sql(expr)
        assert parse_expression(printed) == expr

    def test_not_printed_with_parens(self):
        expr = parse_expression("NOT (a = 1 AND b = 2)")
        printed = expr_to_sql(expr)
        assert parse_expression(printed) == expr


class TestQueryPrinting:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t",
            "SELECT a, b FROM t",
            "SELECT DISTINCT a FROM t",
            "SELECT COUNT(*) FROM t",
            "SELECT COUNT(DISTINCT a) FROM t",
            "SELECT a AS x FROM t",
            "SELECT a FROM t WHERE a = 1",
            "SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3",
            "SELECT a, COUNT(*) FROM t GROUP BY a",
            "SELECT 1 FROM t LIMIT 1",
            "SELECT A.x FROM t1 A, t2 B WHERE A.x = B.y",
        ],
    )
    def test_round_trip(self, sql):
        first = parse_query(sql)
        printed = to_sql(first)
        assert parse_query(printed) == first

    def test_printed_sql_is_valid_sqlite(self):
        import sqlite3

        conn = sqlite3.connect(":memory:")
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.execute("INSERT INTO t VALUES (1, 'x')")
        printed = to_sql(
            parse_query("SELECT a FROM t WHERE a BETWEEN 0 AND 5 AND b LIKE 'x%'")
        )
        assert conn.execute(printed).fetchall() == [(1,)]


# ---------------------------------------------------------------------------
# Property-based round trip over generated expressions
# ---------------------------------------------------------------------------

_columns = st.sampled_from(["a", "b", "c", "t.a", "t.b"])
_values = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.sampled_from(["'x'", "'y'", "'it''s'"]),
)


def _atom(draw_col, draw_val):
    return st.builds(lambda c, op, v: f"{c} {op} {v}", draw_col, st.sampled_from(
        ["=", "<>", "<", "<=", ">", ">="]), draw_val)


_expr_text = st.recursive(
    st.one_of(
        _atom(_columns, _values),
        st.builds(lambda c, vs: f"{c} IN ({', '.join(map(str, vs))})", _columns,
                  st.lists(st.integers(0, 9), min_size=1, max_size=3)),
        st.builds(lambda c: f"{c} IS NULL", _columns),
        st.builds(lambda c, lo, hi: f"{c} BETWEEN {lo} AND {hi}", _columns,
                  st.integers(0, 5), st.integers(5, 9)),
    ),
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=8,
)


class TestPropertyRoundTrip:
    @given(_expr_text)
    @settings(max_examples=150, deadline=None)
    def test_parse_print_parse_is_identity(self, text):
        parsed = parse_expression(text)
        printed = expr_to_sql(parsed)
        assert parse_expression(printed) == parsed

    @given(_expr_text)
    @settings(max_examples=60, deadline=None)
    def test_printing_is_deterministic(self, text):
        parsed = parse_expression(text)
        assert expr_to_sql(parsed) == expr_to_sql(parse_expression(text))


def _literal_types(query):
    from repro.sqlparser import ast

    nodes = [node for node in ast.walk(query.where) if isinstance(node, ast.Literal)]
    return [(type(node.value), node.value) for node in nodes]


_round_trip_values = st.one_of(
    st.integers(min_value=-(10**20), max_value=10**20),
    st.floats(allow_nan=False),  # includes +-inf (printed 1e999) and -0.0
    st.text(alphabet="ab' %_", max_size=6),
)


class TestLiteralRoundTrip:
    """``parse_query(to_sql(q)) == q`` with every literal of the same type."""

    @given(st.lists(_round_trip_values, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_literals_survive_print_and_parse(self, values):
        from repro.sqlparser import ast

        literals = [ast.Literal(value) for value in values]
        terms = [ast.Comparison("=", ast.ColumnRef("a", "t"), literals[0])]
        if len(literals) > 1:
            terms.append(ast.InList(ast.ColumnRef("b", "t"), literals[1:]))
        where = ast.And(terms) if len(terms) > 1 else terms[0]
        query = ast.Query([ast.SelectItem(ast.ColumnRef("a", "t"))], [ast.TableRef("t")], where)
        again = parse_query(to_sql(query))
        assert again == query
        assert _literal_types(again) == _literal_types(query)
        assert [repr(value) for _type, value in _literal_types(again)] == list(map(repr, values))

    @pytest.mark.parametrize("text", ["1", "-7", "2.5", "1e999", "-1e999", "'it''s'", "''''"])
    def test_each_literal_form(self, text):
        query = parse_query(f"SELECT t.a FROM t WHERE t.a = {text}")
        again = parse_query(to_sql(query))
        assert again == query
        assert _literal_types(again) == _literal_types(query)
