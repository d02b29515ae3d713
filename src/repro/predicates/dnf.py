"""Normalization of predicates to disjunctive normal form.

Corollary 1 of the paper: with predicates in DNF ``P1 OR P2 OR ... OR Pk``,
the relevant source set of the query is the union of the relevant sets of the
per-conjunct queries. Everything downstream therefore operates one conjunct
of **basic terms** at a time.

Representation
--------------
``to_dnf`` returns a list of conjuncts, each a list of basic-term
expressions:

* ``[[t1, t2], [t3]]``  means ``(t1 AND t2) OR t3``;
* ``[[]]`` (one empty conjunct) means TRUE;
* ``[]`` (no conjuncts) means FALSE.

A **basic term** is any supported predicate free of AND/OR/NOT: a comparison,
``[NOT] IN``, ``[NOT] BETWEEN``, ``[NOT] LIKE``, or ``IS [NOT] NULL``
(negations are absorbed into the term's ``negated`` flag during NNF).

Blow-up guard
-------------
DNF conversion is worst-case exponential. ``to_dnf`` raises
:class:`~repro.errors.DnfBlowupError` when the number of conjuncts would
exceed ``MAX_CONJUNCTS``; callers fall back to the always-safe "all sources
relevant" answer.
"""

from __future__ import annotations

from typing import List

from repro.errors import DnfBlowupError, UnsupportedQueryError
from repro.obs import instrument as obs
from repro.sqlparser import ast

#: Cap on the number of DNF conjuncts before giving up.
MAX_CONJUNCTS = 4096

_FLIPPED_OP = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def to_nnf(expr: ast.Expr) -> ast.Expr:
    """Push negations down to the basic terms (negation normal form)."""
    return _nnf(expr, negate=False)


def _nnf(expr: ast.Expr, negate: bool) -> ast.Expr:
    if isinstance(expr, ast.Not):
        return _nnf(expr.expr, not negate)
    if isinstance(expr, ast.And):
        items = [_nnf(item, negate) for item in expr.items]
        return ast.Or(items) if negate else ast.And(items)
    if isinstance(expr, ast.Or):
        items = [_nnf(item, negate) for item in expr.items]
        return ast.And(items) if negate else ast.Or(items)
    if not negate:
        return expr
    return _negate_term(expr)


def _negate_term(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.Literal):
        if expr.value is None:
            return expr  # NOT UNKNOWN is UNKNOWN
        if isinstance(expr.value, bool):
            return ast.Literal(not expr.value)
        raise UnsupportedQueryError(f"cannot negate literal {expr.value!r}")
    if isinstance(expr, ast.Comparison):
        return ast.Comparison(_FLIPPED_OP[expr.op], expr.left, expr.right)
    if isinstance(expr, ast.InList):
        return ast.InList(expr.expr, expr.values, not expr.negated)
    if isinstance(expr, ast.Between):
        return ast.Between(expr.expr, expr.low, expr.high, not expr.negated)
    if isinstance(expr, ast.Like):
        return ast.Like(expr.expr, expr.pattern, not expr.negated)
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(expr.expr, not expr.negated)
    raise UnsupportedQueryError(f"cannot negate expression {expr!r}")


def to_dnf(expr: ast.Expr) -> List[List[ast.Expr]]:
    """Convert ``expr`` to DNF as a list of conjuncts of basic terms.

    Raises
    ------
    DnfBlowupError
        If the conversion would produce more than ``MAX_CONJUNCTS``
        conjuncts.
    UnsupportedQueryError
        If the tree contains an unsupported node type.
    """
    nnf = to_nnf(expr)
    conjuncts = _dnf(nnf, MAX_CONJUNCTS)
    simplified = _simplify(conjuncts)
    tel = obs.get_default()
    if tel.enabled:
        tel.count(obs.DNF_CONVERSIONS)
        tel.observe(obs.DNF_CONJUNCTS, float(len(simplified)))
        input_terms = _count_leaves(expr)
        if input_terms > 0:
            tel.observe(obs.DNF_EXPANSION, len(simplified) / input_terms)
    return simplified


def _count_leaves(expr: ast.Expr) -> int:
    """Basic terms in the input tree (denominator of the expansion factor)."""
    if isinstance(expr, ast.Not):
        return _count_leaves(expr.expr)
    if isinstance(expr, (ast.And, ast.Or)):
        return sum(_count_leaves(item) for item in expr.items)
    return 1


def _dnf(expr: ast.Expr, limit: int) -> List[List[ast.Expr]]:
    if isinstance(expr, ast.Or):
        out: List[List[ast.Expr]] = []
        for item in expr.items:
            out.extend(_dnf(item, limit))
            if len(out) > limit:
                raise DnfBlowupError(
                    f"DNF conversion exceeded {limit} conjuncts", len(out), limit
                )
        return out
    if isinstance(expr, ast.And):
        # Distribute: cross product of the children's DNFs.
        product: List[List[ast.Expr]] = [[]]
        for item in expr.items:
            child = _dnf(item, limit)
            next_product: List[List[ast.Expr]] = []
            for left in product:
                for right in child:
                    next_product.append(left + right)
                    if len(next_product) > limit:
                        raise DnfBlowupError(
                            f"DNF conversion exceeded {limit} conjuncts",
                            len(next_product),
                            limit,
                        )
            product = next_product
        return product
    # A basic term (or boolean literal).
    return [[expr]]


def _simplify(conjuncts: List[List[ast.Expr]]) -> List[List[ast.Expr]]:
    """Drop TRUE terms, FALSE conjuncts and duplicate terms/conjuncts."""
    out: List[List[ast.Expr]] = []
    seen = set()
    for conjunct in conjuncts:
        simplified: List[ast.Expr] = []
        term_seen = set()
        is_false = False
        for term in conjunct:
            if isinstance(term, ast.Literal) and term.value is True:
                continue
            if isinstance(term, ast.Literal) and (term.value is False or term.value is None):
                # FALSE or UNKNOWN conjunct can never be satisfied.
                is_false = True
                break
            if term in term_seen:
                continue
            term_seen.add(term)
            simplified.append(term)
        if is_false:
            continue
        if not simplified:
            # An empty conjunct is TRUE, which absorbs the whole disjunction.
            return [[]]
        key = frozenset(simplified)
        if key in seen:
            continue
        seen.add(key)
        out.append(simplified)
    return out


def basic_terms_of(expr: ast.Expr) -> List[ast.Expr]:
    """Flatten a conjunction into its basic terms (no OR/NOT allowed).

    Useful for callers that already know the predicate is a pure conjunction.
    """
    if isinstance(expr, ast.And):
        terms: List[ast.Expr] = []
        for item in expr.items:
            terms.extend(basic_terms_of(item))
        return terms
    if isinstance(expr, (ast.Or, ast.Not)):
        raise UnsupportedQueryError("expression is not a pure conjunction")
    return [expr]
