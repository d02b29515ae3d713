"""Recursive-descent parser for the SPJ subset.

Grammar (informal)::

    query       := SELECT [DISTINCT] select_list FROM table_list
                   [WHERE expr] [GROUP BY column_list] [';']
    select_list := '*' | select_item (',' select_item)*
    select_item := aggregate | column_ref [[AS] alias]
    aggregate   := (COUNT|SUM|AVG|MIN|MAX) '(' ['*' | [DISTINCT] column_ref] ')'
    table_list  := table_ref (',' table_ref)*
    table_ref   := identifier [[AS] alias]
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | primary
    primary     := '(' expr ')' | predicate | TRUE | FALSE
    predicate   := operand comparison operand
                 | operand [NOT] IN '(' literal (',' literal)* ')'
                 | operand [NOT] BETWEEN operand AND operand
                 | operand [NOT] LIKE string
                 | operand IS [NOT] NULL
    operand     := column_ref | literal
    literal     := string | number | NULL | TRUE (the integer 1) | FALSE (0)
    column_ref  := identifier ['.' identifier]
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.sqlparser import ast
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.tokens import AGGREGATES, Token, TokenType

#: Keywords that are values; as in SQLite (``typeof(TRUE)`` is ``integer``),
#: only a TRUE or FALSE that no predicate compares is a truth constant.
_LITERAL_WORDS = {"NULL": None, "TRUE": 1, "FALSE": 0}
#: Keywords that go on from an operand into a predicate.
_PREDICATE_WORDS = frozenset({"NOT", "IN", "BETWEEN", "LIKE", "IS"})


def parse_query(text: str) -> ast.Query:
    """Parse a full SELECT statement into a :class:`repro.sqlparser.ast.Query`,
    recording its literal slots in ``Query.literals``."""
    parser = _Parser(tokenize(text))
    query = parser.query()
    parser.expect_end()
    query.literals = tuple(parser.literals)
    return query


def parse_expression(text: str) -> ast.Expr:
    """Parse a stand-alone boolean expression (used heavily by tests)."""
    parser = _Parser(tokenize(text))
    expr = parser.expression()
    parser.expect_end()
    return expr


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: One entry per STRING / NUMBER token, in token order: the literal
        #: node made from it, or None (LIMIT's count, LIKE's pattern).
        self.literals: List[Optional[ast.Literal]] = []

    # -- token helpers ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _match_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise ParseError(f"expected {word}, found {self.current.value!r}", self.current.position)
        return self._advance()

    def _expect(self, type_: TokenType) -> Token:
        if self.current.type is not type_:
            raise ParseError(
                f"expected {type_.name}, found {self.current.type.name} {self.current.value!r}",
                self.current.position,
            )
        return self._advance()

    def _value(self) -> ast.Literal:
        """The current STRING / NUMBER token as a literal node."""
        node = ast.Literal(self._advance().value)
        self.literals.append(node)
        return node

    def _constant(self, type_: TokenType) -> Token:
        """The current token, of ``type_``, kept as a value, not a node."""
        self.literals.append(None)
        return self._expect(type_)

    def expect_end(self) -> None:
        if self.current.type is TokenType.SEMICOLON:
            self._advance()
        if self.current.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input: {self.current.value!r}", self.current.position
            )

    # -- grammar ----------------------------------------------------------

    def query(self) -> ast.Query:
        self._expect_keyword("SELECT")
        distinct = self._match_keyword("DISTINCT")
        select_items = self._select_list()
        self._expect_keyword("FROM")
        tables = self._table_list()
        where: Optional[ast.Expr] = None
        if self._match_keyword("WHERE"):
            where = self.expression()
        group_by: List[ast.Expr] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._column_ref())
            while self.current.type is TokenType.COMMA:
                self._advance()
                group_by.append(self._column_ref())
        order_by: List[ast.OrderItem] = []
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self.current.type is TokenType.COMMA:
                self._advance()
                order_by.append(self._order_item())
        limit: Optional[int] = None
        if self._match_keyword("LIMIT"):
            token = self._constant(TokenType.NUMBER)
            if not isinstance(token.value, int) or token.value < 0:
                raise ParseError("LIMIT requires a non-negative integer", token.position)
            limit = token.value
        return ast.Query(select_items, tables, where, distinct, group_by, limit, order_by)

    def _order_item(self) -> ast.OrderItem:
        expr = self._column_ref()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return ast.OrderItem(expr, descending)

    def _select_list(self) -> List[ast.SelectItem]:
        if self.current.type is TokenType.STAR:
            self._advance()
            return [ast.SelectItem(None, is_star=True)]
        items = [self._select_item()]
        while self.current.type is TokenType.COMMA:
            self._advance()
            items.append(self._select_item())
        return items

    def _select_item(self) -> ast.SelectItem:
        if self.current.type is TokenType.KEYWORD and self.current.value in AGGREGATES:
            expr: ast.Expr = self._aggregate()
        elif self.current.type in (TokenType.STRING, TokenType.NUMBER):
            expr = self._value()
        else:
            expr = self._column_ref()
        alias = self._optional_alias()
        return ast.SelectItem(expr, alias)

    def _aggregate(self) -> ast.AggregateCall:
        func = str(self._advance().value)
        self._expect(TokenType.LPAREN)
        if self.current.type is TokenType.STAR:
            self._advance()
            self._expect(TokenType.RPAREN)
            return ast.AggregateCall(func, None)
        distinct = self._match_keyword("DISTINCT")
        argument = self._column_ref()
        self._expect(TokenType.RPAREN)
        return ast.AggregateCall(func, argument, distinct)

    def _optional_alias(self) -> Optional[str]:
        if self._match_keyword("AS"):
            return str(self._expect(TokenType.IDENTIFIER).value)
        if self.current.type is TokenType.IDENTIFIER:
            return str(self._advance().value)
        return None

    def _table_list(self) -> List[ast.TableRef]:
        tables = [self._table_ref()]
        while self.current.type is TokenType.COMMA:
            self._advance()
            tables.append(self._table_ref())
        return tables

    def _table_ref(self) -> ast.TableRef:
        name = str(self._expect(TokenType.IDENTIFIER).value)
        alias = self._optional_alias()
        return ast.TableRef(name, alias)

    # -- expressions -------------------------------------------------------

    def expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        items = [self._and_expr()]
        while self._match_keyword("OR"):
            items.append(self._and_expr())
        if len(items) == 1:
            return items[0]
        return ast.Or(items)

    def _and_expr(self) -> ast.Expr:
        items = [self._not_expr()]
        while self._match_keyword("AND"):
            items.append(self._not_expr())
        if len(items) == 1:
            return items[0]
        return ast.And(items)

    def _not_expr(self) -> ast.Expr:
        if self._match_keyword("NOT"):
            return ast.Not(self._not_expr())
        return self._primary()

    def _primary(self) -> ast.Expr:
        if self.current.type is TokenType.LPAREN:
            self._advance()
            inner = self.expression()
            self._expect(TokenType.RPAREN)
            return inner
        if self.current.is_keyword("TRUE") or self.current.is_keyword("FALSE"):
            ahead = self._tokens[self._pos + 1]  # a compared TRUE is an operand
            if ahead.type is not TokenType.OPERATOR and not (
                ahead.type is TokenType.KEYWORD and ahead.value in _PREDICATE_WORDS
            ):
                return ast.Literal(self._advance().value == "TRUE")
        return self._predicate()

    def _predicate(self) -> ast.Expr:
        left = self._operand()
        negated = self._match_keyword("NOT")
        if self.current.is_keyword("IN"):
            self._advance()
            return self._in_list(left, negated)
        if self.current.is_keyword("BETWEEN"):
            self._advance()
            low = self._operand()
            self._expect_keyword("AND")
            high = self._operand()
            return ast.Between(left, low, high, negated)
        if self.current.is_keyword("LIKE"):
            self._advance()
            pattern = self._constant(TokenType.STRING)
            return ast.Like(left, str(pattern.value), negated)
        if negated:
            raise ParseError(
                "NOT must be followed by IN, BETWEEN or LIKE here", self.current.position
            )
        if self.current.is_keyword("IS"):
            self._advance()
            is_negated = self._match_keyword("NOT")
            self._expect_keyword("NULL")
            return ast.IsNull(left, is_negated)
        if self.current.type is TokenType.OPERATOR:
            op = str(self._advance().value)
            right = self._operand()
            return ast.Comparison(op, left, right)
        raise ParseError(
            f"expected a predicate operator, found {self.current.value!r}",
            self.current.position,
        )

    def _in_list(self, expr: ast.Expr, negated: bool) -> ast.InList:
        self._expect(TokenType.LPAREN)
        values = [self._literal()]
        while self.current.type is TokenType.COMMA:
            self._advance()
            values.append(self._literal())
        self._expect(TokenType.RPAREN)
        return ast.InList(expr, values, negated)

    def _operand(self) -> ast.Expr:
        if self.current.type is TokenType.IDENTIFIER:
            return self._column_ref()
        return self._literal()

    def _literal(self) -> ast.Literal:
        token = self.current
        if token.type in (TokenType.STRING, TokenType.NUMBER):
            return self._value()
        if token.type is TokenType.KEYWORD and token.value in _LITERAL_WORDS:
            self._advance()
            return ast.Literal(_LITERAL_WORDS[token.value])
        raise ParseError(f"expected a literal, found {token.value!r}", token.position)

    def _column_ref(self) -> ast.ColumnRef:
        first = self._expect(TokenType.IDENTIFIER)
        if self.current.type is TokenType.DOT:
            self._advance()
            second = self._expect(TokenType.IDENTIFIER)
            return ast.ColumnRef(str(second.value), qualifier=str(first.value))
        return ast.ColumnRef(str(first.value))
