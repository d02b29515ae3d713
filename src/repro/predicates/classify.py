"""Per-relation classification of basic terms (Notation 4 and Notation 6).

Given one DNF conjunct and one relation binding ``R_i`` of the query, each
basic term falls into exactly one class:

===========  ==================================================================
``PS``       selection predicate referencing only ``R_i.c_s`` (data source
             only selection)
``PR``       selection predicate referencing only regular columns of ``R_i``
``PM``       selection predicate referencing ``R_i.c_s`` *and* at least one
             regular column of ``R_i`` (mixed selection)
``JS``       join predicate whose only ``R_i`` columns are ``R_i.c_s``
``JRM``      join predicate referencing at least one regular column of ``R_i``
``PO``       every term that does not reference ``R_i`` at all
===========  ==================================================================

A term with no column references at all (e.g. a constant comparison) counts
as ``PO``: it does not mention ``R_i``, and it is preserved verbatim in the
generated recency query, so constant contradictions still filter correctly.
"""

from __future__ import annotations

import enum
from typing import List, Sequence, Set

from repro.errors import UnsupportedQueryError
from repro.sqlparser import ast


class TermClass(enum.Enum):
    """The six buckets of Notation 6 (Notation 4 uses PS/PR/PM only)."""

    PS = "data-source-only selection"
    PR = "regular-column-only selection"
    PM = "mixed selection"
    JS = "data-source-only join"
    JRM = "regular-or-mixed join"
    PO = "other relations only"


class ClassifiedConjunct:
    """One conjunct's terms, classified relative to one relation binding.

    Attributes mirror the paper's notation: ``ps``, ``pr``, ``pm``, ``js``,
    ``jrm`` and ``po`` are lists of basic-term expressions.
    """

    __slots__ = ("relation_key", "ps", "pr", "pm", "js", "jrm", "po")

    def __init__(self, relation_key: str) -> None:
        self.relation_key = relation_key
        self.ps: List[ast.Expr] = []
        self.pr: List[ast.Expr] = []
        self.pm: List[ast.Expr] = []
        self.js: List[ast.Expr] = []
        self.jrm: List[ast.Expr] = []
        self.po: List[ast.Expr] = []

    @property
    def has_mixed(self) -> bool:
        """True when ``Pm`` is non-NULL (breaks the Theorem 3/4 guarantee)."""
        return bool(self.pm)

    @property
    def has_regular_join(self) -> bool:
        """True when ``Jrm`` is non-NULL (breaks the Theorem 4 guarantee)."""
        return bool(self.jrm)

    def bucket(self, term_class: TermClass) -> List[ast.Expr]:
        return {
            TermClass.PS: self.ps,
            TermClass.PR: self.pr,
            TermClass.PM: self.pm,
            TermClass.JS: self.js,
            TermClass.JRM: self.jrm,
            TermClass.PO: self.po,
        }[term_class]

    def __repr__(self) -> str:
        counts = {
            "ps": len(self.ps),
            "pr": len(self.pr),
            "pm": len(self.pm),
            "js": len(self.js),
            "jrm": len(self.jrm),
            "po": len(self.po),
        }
        return f"ClassifiedConjunct({self.relation_key!r}, {counts})"


def classify_term(term: ast.Expr, relation_key: str) -> TermClass:
    """Classify one basic term relative to the relation bound as
    ``relation_key``.

    The term's column references must already be resolved (binding keys and
    source flags assigned).
    """
    refs = ast.column_refs(term)
    keys: Set[str] = set()
    for ref in refs:
        if ref.binding_key is None:
            raise UnsupportedQueryError(
                f"column {ref.display()!r} is unresolved; run the resolver first"
            )
        keys.add(ref.binding_key)

    relation_key = relation_key.lower()
    if relation_key not in keys:
        return TermClass.PO

    own_refs = [ref for ref in refs if ref.binding_key == relation_key]
    touches_source = any(ref.is_source for ref in own_refs)
    touches_regular = any(not ref.is_source for ref in own_refs)

    if keys == {relation_key}:
        if touches_source and touches_regular:
            return TermClass.PM
        if touches_source:
            return TermClass.PS
        return TermClass.PR

    # Join predicate (references more than one relation).
    if touches_regular:
        return TermClass.JRM
    return TermClass.JS


def classify_conjunct(terms: Sequence[ast.Expr], relation_key: str) -> ClassifiedConjunct:
    """Classify every basic term of a conjunct relative to one relation."""
    out = ClassifiedConjunct(relation_key.lower())
    for term in terms:
        out.bucket(classify_term(term, relation_key)).append(term)
    return out

