"""Human-readable explanation of a relevance analysis.

The planner records each decision as it makes it (see
:mod:`repro.core.relevance`): every conjunct's satisfiability verdict, and
per relation the classified terms and the subquery it kept, folded into an
earlier identical one, or skipped. :func:`explain` renders that record —
which bucket every basic term fell into (in the paper's notation), why each
subquery is or is not guaranteed minimal, and what SQL will run — and runs
no analysis of its own. ``trac explain``, the shell's ``.plan`` and
``trac report --show-plan`` all print it.
"""

from __future__ import annotations

from typing import List

from repro.catalog import Catalog
from repro.core.relevance import RelationDecision, RelevancePlan, Satisfiability
from repro.core.relevance import build_relevance_plan
from repro.errors import DnfBlowupError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import expr_to_sql
from repro.sqlparser.resolver import ResolvedQuery, resolve

#: (``ClassifiedConjunct`` bucket, label), one per class of Notation 4/6.
_CLASS_LABELS = (
    ("ps", "Ps  (data-source-only selection)"),
    ("pr", "Pr  (regular-column selection)"),
    ("pm", "Pm  (MIXED selection - breaks minimality)"),
    ("js", "Js  (data-source-only join)"),
    ("jrm", "Jrm (regular/mixed join - breaks minimality)"),
    ("po", "Po  (other relations)"),
)


def explain_sql(sql: str, catalog: Catalog, use_constraints: bool = True) -> str:
    """Explain the relevance analysis of a SQL string against a catalog."""
    resolved = resolve(parse_query(sql), catalog)
    return explain(resolved, build_relevance_plan(resolved, use_constraints=use_constraints))


def explain(resolved: ResolvedQuery, plan: RelevancePlan) -> str:
    """Render the decisions ``plan`` recorded for ``resolved``."""
    bindings = resolved.bindings
    lines: List[str] = [
        f"Query references {len(bindings)} relation(s): "
        + ", ".join(f"{b.schema.name} (as {b.key})" for b in bindings)
    ]
    if plan.constraints:
        lines.append(
            "Schema constraints conjoined (Q -> Q'): "
            + "; ".join(expr_to_sql(c) for c in plan.constraints)
        )

    if plan.mode == "all":
        if isinstance(plan.fallback, DnfBlowupError):
            lines.append(
                f"DNF conversion exceeded the budget ({plan.fallback.term_count} > "
                f"{plan.fallback.limit}): falling back to reporting ALL sources "
                "(complete, not minimal)."
            )
        elif plan.fallback is not None:
            lines.append(f"Unsupported predicate ({plan.fallback}): reporting ALL sources.")
        for sub in plan.subqueries:
            lines.append(f"  recency subquery: {sub.sql}")
        lines.extend(f"  note: {note}" for note in plan.notes)
        return "\n".join(lines)

    if resolved.query.where is None and not plan.constraints:
        lines.append("No WHERE clause: every data source is relevant (minimal).")
    else:
        lines.append(f"WHERE normalizes to {len(plan.conjuncts)} conjunct(s) (Corollary 1).")

    theorem = "Theorem 3" if resolved.is_single_relation else "Theorem 4"
    for index, decision in enumerate(plan.conjuncts):
        lines.append("")
        lines.append(f"Conjunct {index}:")
        if not decision.terms:
            lines.append("  (TRUE - no terms)")
        if decision.verdict is Satisfiability.UNSAT:
            lines.append(
                "  unsatisfiable over the column domains (Corollary 2/6): "
                "contributes no relevant sources; pruned."
            )
            continue
        if decision.verdict is Satisfiability.UNKNOWN:
            lines.append("  satisfiability could not be decided cheaply.")
        for relation in decision.relations:
            _render_relation(lines, decision.terms, relation, theorem)

    lines.append("")
    if plan.mode == "empty":
        lines.append("Overall: S(Q) is provably empty.")
    elif plan.minimal:
        lines.append("Overall: the union of the subqueries is exactly S(Q).")
    else:
        lines.append(
            "Overall: the union of the subqueries is a complete upper bound on S(Q)."
        )
    return "\n".join(lines)


def _render_relation(
    lines: List[str], terms: List[ast.Expr], relation: RelationDecision, theorem: str
) -> None:
    binding, classified, sub, kept = relation[:4]
    lines.append(f"  via {binding.key} ({binding.schema.name}):")
    label_of = {
        id(term): label
        for bucket, label in _CLASS_LABELS
        for term in getattr(classified, bucket)
    }
    for term in terms:
        lines.append(f"    {label_of[id(term)]:<46}: {expr_to_sql(term)}")
    if sub is None:
        lines.append(
            "    -> pruned: Pr unsatisfiable over the domains "
            "(no potential tuple can qualify)"
        )
        return
    if sub.minimal:
        lines.append(f"    -> MINIMAL by {theorem}")
    else:
        lines.append(f"    -> complete UPPER BOUND ({sub.notes})")
    if kept is not sub:
        lines.append(
            f"    recency subquery: shared with conjunct {kept.conjunct_index} "
            f"via {kept.binding_key} (runs once)"
        )
        return
    lines.append(f"    recency subquery: {sub.sql}")
    for guard in sub.guards:
        lines.append(f"    existence guard : {guard}")
