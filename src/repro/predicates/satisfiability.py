"""Satisfiability of a conjunction of basic terms over column domains.

Theorems 3 and 4 only certify the *minimum* relevant set when the
regular-column-only predicates ``Pr`` are satisfiable in the cross product of
the column domains. Deciding that exactly is NP-hard in general (Theorem 2),
so this module implements a sound three-valued check:

* ``SAT``     — a witness tuple provably exists;
* ``UNSAT``   — provably no tuple over the domains satisfies the conjunction;
* ``UNKNOWN`` — neither could be established cheaply.

``UNSAT`` lets the caller apply Corollaries 2/6 (the conjunct contributes no
relevant sources). ``SAT`` unlocks the minimality guarantee. ``UNKNOWN``
degrades the answer to a complete upper bound — never losing completeness.

Strategy
--------
1. Terms that compare a single column against literals are folded into a
   per-column :class:`ColumnConstraint` (allowed set, interval, exclusions,
   LIKE patterns). Each constraint is checked against the column's domain;
   finite domains are enumerated, infinite ones use interval reasoning plus
   witness candidates.
2. Terms relating two or more columns are exact only when every involved
   column has a small finite domain, in which case we enumerate the cross
   product (the paper's "brute force" idea, Section 4.1) — otherwise the
   result is ``UNKNOWN``.

NULL handling follows the paper's formalism: potential tuples draw values
from the column domains, which do not contain NULL. Hence ``col IS NULL``
can never be satisfied by a potential tuple (the constraint is UNSAT), and
``col IS NOT NULL`` is vacuously true.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.catalog.domains import Domain, IntegerDomain, RealDomain, TextDomain
from repro.errors import UnsupportedQueryError
from repro.predicates.evaluate import _comparable, evaluate_predicate, like_match
from repro.sqlparser import ast

#: Maximum number of assignments the exact cross-product fallback enumerates.
EXACT_LIMIT = 20000

#: Maximum size of a bounded integer interval we enumerate exhaustively.
_INTEGER_ENUM_LIMIT = 4096

DomainLookup = Callable[[ast.ColumnRef], Domain]


class Satisfiability(enum.Enum):
    SAT = "satisfiable"
    UNSAT = "unsatisfiable"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # guard against accidental truthiness use
        raise TypeError("Satisfiability is three-valued; compare explicitly")


class ColumnConstraint:
    """Accumulated single-column constraints from a conjunction."""

    def __init__(self) -> None:
        self.allowed: Optional[Set[object]] = None
        self.excluded: Set[object] = set()
        self.low: Optional[object] = None
        self.low_inclusive = True
        self.high: Optional[object] = None
        self.high_inclusive = True
        self.likes: List[Tuple[str, bool]] = []  # (pattern, negated)
        self.impossible = False

    # -- constraint accumulation ------------------------------------------

    def require_equal(self, value: object) -> None:
        if value is None:
            self.impossible = True
            return
        if self.allowed is None:
            self.allowed = {value}
        else:
            self.allowed &= {value}
        if not self.allowed:
            self.impossible = True

    def require_in(self, values: Sequence[object]) -> None:
        non_null = {v for v in values if v is not None}
        if not non_null:
            self.impossible = True
            return
        if self.allowed is None:
            self.allowed = set(non_null)
        else:
            self.allowed &= non_null
        if not self.allowed:
            self.impossible = True

    def require_not_in(self, values: Sequence[object]) -> None:
        # SQL subtlety: ``x NOT IN (..., NULL)`` is never TRUE.
        if any(v is None for v in values):
            self.impossible = True
            return
        self.excluded.update(values)

    def require_not_equal(self, value: object) -> None:
        if value is None:
            self.impossible = True
            return
        self.excluded.add(value)

    def require_low(self, value: object, inclusive: bool) -> None:
        if value is None:
            self.impossible = True
            return
        if self.low is None or _gt(value, self.low):
            self.low = value
            self.low_inclusive = inclusive
        elif value == self.low and not inclusive:
            self.low_inclusive = False

    def require_high(self, value: object, inclusive: bool) -> None:
        if value is None:
            self.impossible = True
            return
        if self.high is None or _lt(value, self.high):
            self.high = value
            self.high_inclusive = inclusive
        elif value == self.high and not inclusive:
            self.high_inclusive = False

    def require_like(self, pattern: str, negated: bool) -> None:
        self.likes.append((pattern, negated))

    def require_null(self) -> None:
        # Potential tuples draw from the (NULL-free) domains: unsatisfiable.
        self.impossible = True

    # -- checking -----------------------------------------------------------

    def admits(self, value: object) -> bool:
        """Whether a concrete value satisfies every accumulated constraint."""
        if self.impossible:
            return False
        if self.allowed is not None and value not in self.allowed:
            return False
        if value in self.excluded:
            return False
        if self.low is not None:
            if not _comparable(value, self.low):
                return False
            if _lt(value, self.low) or (value == self.low and not self.low_inclusive):
                return False
        if self.high is not None:
            if not _comparable(value, self.high):
                return False
            if _gt(value, self.high) or (value == self.high and not self.high_inclusive):
                return False
        for pattern, negated in self.likes:
            if not isinstance(value, str):
                return False
            if like_match(pattern, value) == negated:
                return False
        return True

    def check(self, domain: Domain) -> Satisfiability:
        """Check this constraint against a column domain."""
        if self.impossible:
            return Satisfiability.UNSAT
        if self.allowed is not None:
            for value in self.allowed:
                if domain.contains(value) and self.admits(value):
                    return Satisfiability.SAT
            return Satisfiability.UNSAT
        if domain.is_finite:
            for value in domain.iter_values():
                if self.admits(value):
                    return Satisfiability.SAT
            return Satisfiability.UNSAT
        if not domain.intersects_interval(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        ):
            return Satisfiability.UNSAT
        return self._check_infinite(domain)

    def _check_infinite(self, domain: Domain) -> Satisfiability:
        for candidate in self._witness_candidates(domain):
            if domain.contains(candidate) and self.admits(candidate):
                return Satisfiability.SAT
        if isinstance(domain, IntegerDomain):
            return self._check_bounded_integers(domain)
        if self.likes:
            return Satisfiability.UNKNOWN
        if isinstance(domain, (RealDomain, TextDomain)) or domain.kind == "timestamp":
            # A non-degenerate interval over a dense domain cannot be emptied
            # by finitely many exclusions, yet our candidate list may have
            # missed a witness only when exclusions are adversarial; treat
            # the remaining uncertainty conservatively.
            return Satisfiability.UNKNOWN
        return Satisfiability.UNKNOWN

    def _check_bounded_integers(self, domain: IntegerDomain) -> Satisfiability:
        import math

        lo_int: Optional[int] = None
        if self.low is not None and isinstance(self.low, (int, float)):
            if self.low == math.floor(self.low):
                lo_int = int(self.low) if self.low_inclusive else int(self.low) + 1
            else:
                lo_int = math.ceil(self.low)
        if domain.low is not None:
            lo_int = int(domain.low) if lo_int is None else max(lo_int, int(domain.low))
        hi_int: Optional[int] = None
        if self.high is not None and isinstance(self.high, (int, float)):
            if self.high == math.floor(self.high):
                hi_int = int(self.high) if self.high_inclusive else int(self.high) - 1
            else:
                hi_int = math.floor(self.high)
        if domain.high is not None:
            hi_int = int(domain.high) if hi_int is None else min(hi_int, int(domain.high))

        if lo_int is None or hi_int is None:
            # Unbounded on one side: finitely many exclusions cannot exhaust
            # the integers, so only LIKE patterns leave residual uncertainty.
            return Satisfiability.UNKNOWN if self.likes else Satisfiability.SAT
        if hi_int - lo_int + 1 > _INTEGER_ENUM_LIMIT:
            return Satisfiability.UNKNOWN if self.likes else Satisfiability.SAT
        for value in range(lo_int, hi_int + 1):
            if domain.contains(value) and self.admits(value):
                return Satisfiability.SAT
        return Satisfiability.UNSAT

    def _witness_candidates(self, domain: Domain) -> List[object]:
        """A handful of concrete values likely to witness satisfiability."""
        candidates: List[object] = []
        if self.low is not None and self.low_inclusive:
            candidates.append(self.low)
        if self.high is not None and self.high_inclusive:
            candidates.append(self.high)
        numeric_low = self.low if isinstance(self.low, (int, float)) else None
        numeric_high = self.high if isinstance(self.high, (int, float)) else None
        if numeric_low is not None and numeric_high is not None:
            span = numeric_high - numeric_low
            steps = len(self.excluded) + 3
            for k in range(1, steps):
                candidates.append(numeric_low + span * k / steps)
        elif numeric_low is not None:
            for k in range(1, len(self.excluded) + 3):
                candidates.append(numeric_low + k)
        elif numeric_high is not None:
            for k in range(1, len(self.excluded) + 3):
                candidates.append(numeric_high - k)
        # Expand positive LIKE patterns into their simplest match.
        for pattern, negated in self.likes:
            if not negated:
                candidates.append(pattern.replace("%", "").replace("_", "a"))
        if isinstance(domain, TextDomain):
            base = self.low if isinstance(self.low, str) else ""
            for k in range(len(self.excluded) + 2):
                candidates.append(str(base) + "z" * (k + 1))
        if isinstance(domain, (RealDomain, IntegerDomain)) or domain.kind == "timestamp":
            for k in range(len(self.excluded) + 2):
                candidates.append(k)
                candidates.append(float(k))
        return candidates


def _lt(a: object, b: object) -> bool:
    return _comparable(a, b) and a < b  # type: ignore[operator]


def _gt(a: object, b: object) -> bool:
    return _comparable(a, b) and a > b  # type: ignore[operator]


# ---------------------------------------------------------------------------
# Conjunction-level check
# ---------------------------------------------------------------------------


def check_conjunction(
    terms: Sequence[ast.Expr],
    domain_of: DomainLookup,
) -> Satisfiability:
    """Check whether a conjunction of basic terms is satisfiable over the
    cross product of its columns' domains.

    Parameters
    ----------
    terms:
        Basic terms (no AND/OR/NOT nodes) with resolved column references.
    domain_of:
        Maps each resolved :class:`ColumnRef` to its :class:`Domain`.

    Terms that relate multiple columns fall back to enumerating the cross
    product, within ``EXACT_LIMIT`` assignments.
    """
    constraints: Dict[Tuple[str, str], ColumnConstraint] = {}
    refs_by_key: Dict[Tuple[str, str], ast.ColumnRef] = {}
    complex_terms: List[ast.Expr] = []
    unknown = False

    for term in terms:
        if isinstance(term, ast.Literal):
            if term.value is True:
                continue
            return Satisfiability.UNSAT  # FALSE or NULL literal term
        parsed = _single_column_parts(term)
        if parsed is None:
            complex_terms.append(term)
            continue
        ref, apply = parsed
        key = _column_key(ref)
        refs_by_key.setdefault(key, ref)
        constraint = constraints.setdefault(key, ColumnConstraint())
        apply(constraint)

    for key, constraint in constraints.items():
        result = constraint.check(domain_of(refs_by_key[key]))
        if result is Satisfiability.UNSAT:
            return Satisfiability.UNSAT
        if result is Satisfiability.UNKNOWN:
            unknown = True

    if complex_terms or unknown:
        exact = _exact_check(terms, domain_of)
        if exact is not None:
            return exact
        return Satisfiability.UNKNOWN
    return Satisfiability.SAT


def _column_key(ref: ast.ColumnRef) -> Tuple[str, str]:
    if ref.binding_key is None:
        raise UnsupportedQueryError(
            f"column {ref.display()!r} is unresolved; run the resolver first"
        )
    return (ref.binding_key, ref.name.lower())


def _single_column_parts(term: ast.Expr):
    """Decompose a term into (column, constraint-application) if it compares
    exactly one column against literals; otherwise return ``None``."""
    if isinstance(term, ast.Comparison):
        left, right = term.left, term.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            return left, _comparison_apply(term.op, right.value)
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            return right, _comparison_apply(_mirror(term.op), left.value)
        if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
            return None  # constant term; handled by evaluation elsewhere
        return None
    if isinstance(term, ast.InList):
        if isinstance(term.expr, ast.ColumnRef):
            values = [v.value for v in term.values]
            if term.negated:
                return term.expr, lambda c: c.require_not_in(values)
            return term.expr, lambda c: c.require_in(values)
        return None
    if isinstance(term, ast.Between):
        if (
            isinstance(term.expr, ast.ColumnRef)
            and isinstance(term.low, ast.Literal)
            and isinstance(term.high, ast.Literal)
            and not term.negated
        ):
            low, high = term.low.value, term.high.value

            def apply_between(c: ColumnConstraint) -> None:
                c.require_low(low, True)
                c.require_high(high, True)

            return term.expr, apply_between
        return None  # NOT BETWEEN splits into a disjunction; leave to DNF
    if isinstance(term, ast.Like):
        if isinstance(term.expr, ast.ColumnRef):
            pattern, negated = term.pattern, term.negated
            return term.expr, lambda c: c.require_like(pattern, negated)
        return None
    if isinstance(term, ast.IsNull):
        if isinstance(term.expr, ast.ColumnRef):
            if term.negated:
                return term.expr, lambda c: None  # IS NOT NULL: vacuous
            return term.expr, lambda c: c.require_null()
        return None
    return None


def _mirror(op: str) -> str:
    return {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _comparison_apply(op: str, value: object):
    if op == "=":
        return lambda c: c.require_equal(value)
    if op == "<>":
        return lambda c: c.require_not_equal(value)
    if op == "<":
        return lambda c: c.require_high(value, False)
    if op == "<=":
        return lambda c: c.require_high(value, True)
    if op == ">":
        return lambda c: c.require_low(value, False)
    if op == ">=":
        return lambda c: c.require_low(value, True)
    raise UnsupportedQueryError(f"unknown comparison operator {op!r}")


def _exact_check(terms: Sequence[ast.Expr], domain_of: DomainLookup) -> Optional[Satisfiability]:
    """Enumerate the cross product of all referenced columns' finite domains.

    Returns ``None`` when any domain is infinite or the product exceeds the
    budget.
    """
    columns: Dict[Tuple[str, str], ast.ColumnRef] = {}
    for term in terms:
        for ref in ast.column_refs(term):
            columns.setdefault(_column_key(ref), ref)
    # Multiply the cardinalities first: a product over budget is decided
    # without enumerating (and sorting) any domain.
    keys = sorted(columns)
    referenced = [domain_of(columns[key]) for key in keys]
    total = 1
    for domain in referenced:
        if not domain.is_finite:
            return None
        total *= max(domain.cardinality(), 1)
        if total > EXACT_LIMIT:
            return None
    domains = [domain.iter_values() for domain in referenced]

    conjunction = ast.And(list(terms)) if len(terms) != 1 else terms[0]
    for assignment in itertools.product(*domains):
        env = dict(zip(keys, assignment))

        def lookup(ref: ast.ColumnRef, env=env) -> object:
            return env[_column_key(ref)]

        if evaluate_predicate(conjunction, lookup):
            return Satisfiability.SAT
    return Satisfiability.UNSAT
