"""A self-contained SQL lexer/parser/printer for the paper's SPJ subset.

The paper assumes "a query contains only a single SPJ expression"
(Section 3.4). This package parses exactly that subset:

* ``SELECT [DISTINCT] <select list | * | aggregates>``
* ``FROM table [alias], table [alias], ...``
* ``WHERE`` predicates built from comparisons (``= <> != < <= > >=``),
  ``[NOT] IN (value list)``, ``[NOT] BETWEEN``, ``[NOT] LIKE``,
  ``IS [NOT] NULL``, combined with ``AND`` / ``OR`` / ``NOT`` and parentheses.

Aggregates ``COUNT/SUM/AVG/MIN/MAX`` are allowed in the select list (the
paper's test queries use ``COUNT(*)``); they do not affect relevance, which
is a property of the FROM and WHERE clauses only.
"""

from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query

__all__ = ["ast", "parse_query"]
