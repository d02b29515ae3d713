"""Relevance planning: Section 4's algorithm end to end.

``build_relevance_plan`` turns a resolved user query into a
:class:`RelevancePlan`:

1. the WHERE clause is converted to DNF (Corollary 1); a blow-up makes the
   plan degrade to "all sources" (complete, never minimal);
2. each conjunct is checked for satisfiability over the column domains —
   a provably unsatisfiable conjunct contributes nothing (Corollaries 2/6);
3. per conjunct and per referenced relation ``R_i``, the basic terms are
   classified (Notation 4/6) and a recency subquery over
   ``Heartbeat x other relations`` is emitted carrying ``Ps' ∧ Js' ∧ Po``
   (Theorem 3/4 / Corollaries 3/5);
4. the subquery is flagged *minimal* when ``Pm`` and ``Jrm`` are NULL and
   ``Pr`` is provably satisfiable — the conditions of Theorems 3 and 4.

The plan's answer — the union of its subquery results plus the non-emptiness
gates — is always **complete** (never misses a relevant source); it is the
**minimum** exactly when every subquery is minimal and no conjunct was
dropped with an UNKNOWN satisfiability verdict.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.catalog import Domain
from repro.core.recency_query import (
    build_all_sources_query,
    build_subquery,
    heartbeat_alias_for,
)
from repro.errors import DnfBlowupError, UnsupportedQueryError
from repro.predicates.classify import classify_conjunct
from repro.predicates.dnf import DEFAULT_MAX_CONJUNCTS, to_dnf
from repro.predicates.satisfiability import Satisfiability, check_conjunction
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql
from repro.sqlparser.resolver import ResolvedQuery


class SubqueryPlan:
    """One recency subquery: sources relevant via one relation, for one
    conjunct of the user query's DNF."""

    __slots__ = (
        "conjunct_index",
        "binding_key",
        "query",
        "sql",
        "guards",
        "minimal",
        "notes",
    )

    def __init__(
        self,
        conjunct_index: int,
        binding_key: str,
        query: ast.Query,
        guards: List[str],
        minimal: bool,
        notes: str = "",
    ) -> None:
        self.conjunct_index = conjunct_index
        self.binding_key = binding_key
        self.query = query
        self.sql = to_sql(query)
        self.guards = guards
        self.minimal = minimal
        self.notes = notes

    def __repr__(self) -> str:
        flag = "minimal" if self.minimal else "upper-bound"
        return (
            f"SubqueryPlan(conjunct={self.conjunct_index}, via={self.binding_key!r}, {flag})"
        )


class RelevancePlan:
    """The full recency plan for a user query.

    Attributes
    ----------
    mode:
        ``"focused"`` — evaluate the subqueries and union their results;
        ``"all"`` — fall back to every source (DNF blow-up or unsupported
        construct; still complete);
        ``"empty"`` — the query is provably unsatisfiable, ``S(Q) = ∅``.
    subqueries:
        The per-(conjunct, relation) subqueries (``mode == "focused"``).
    minimal:
        True when the plan provably returns exactly ``S(Q)``.
    notes:
        Human-readable reasons for any downgrade from minimality.
    """

    __slots__ = ("mode", "subqueries", "minimal", "notes")

    def __init__(
        self,
        mode: str,
        subqueries: List[SubqueryPlan],
        minimal: bool,
        notes: List[str],
    ) -> None:
        self.mode = mode
        self.subqueries = subqueries
        self.minimal = minimal
        self.notes = notes

    @property
    def sql_statements(self) -> List[str]:
        return [sub.sql for sub in self.subqueries]

    def __repr__(self) -> str:
        return (
            f"RelevancePlan(mode={self.mode!r}, subqueries={len(self.subqueries)}, "
            f"minimal={self.minimal})"
        )


def domain_lookup(resolved: ResolvedQuery) -> Callable[[ast.ColumnRef], Domain]:
    """Build the ColumnRef -> Domain mapping the satisfiability checks use."""

    def lookup(ref: ast.ColumnRef) -> Domain:
        if ref.binding_key is None:
            raise UnsupportedQueryError(
                f"column {ref.display()!r} is unresolved; run the resolver first"
            )
        binding = resolved.binding(ref.binding_key)
        return binding.schema.column(ref.name).domain

    return lookup


def build_relevance_plan(
    resolved: ResolvedQuery,
    max_conjuncts: int = DEFAULT_MAX_CONJUNCTS,
    check_satisfiability: bool = True,
    exact_limit: int = 20000,
    use_constraints: bool = True,
) -> RelevancePlan:
    """Build the Focused method's plan for a resolved query.

    Parameters
    ----------
    resolved:
        The resolved user query (single SPJ expression).
    max_conjuncts:
        DNF blow-up budget; exceeded -> ``mode == "all"`` fallback.
    check_satisfiability:
        The ablation switch: when False, no conjunct is pruned and no
        minimality is claimed (results stay complete upper bounds).
    exact_limit:
        Budget forwarded to the exact finite-domain satisfiability fallback.
    use_constraints:
        Conjoin each referenced table's CHECK-style constraints onto the
        query (``Q -> Q'``, Section 3.4) before analysis. Requires the
        stored data to actually satisfy the constraints.
    """
    where = resolved.query.where
    notes: List[str] = []

    if use_constraints and any(b.schema.constraints for b in resolved.bindings):
        from repro.core.constraints import augmented_where

        where = augmented_where(resolved)
        notes.append("schema constraints conjoined (Q -> Q')")

    if where is None:
        conjuncts: List[List[ast.Expr]] = [[]]
    else:
        try:
            conjuncts = to_dnf(where, max_conjuncts)
        except DnfBlowupError as exc:
            notes.append(f"DNF blow-up ({exc.term_count} > {exc.limit}); reporting all sources")
            return RelevancePlan("all", [], minimal=False, notes=notes)
        except UnsupportedQueryError as exc:
            notes.append(f"unsupported predicate ({exc}); reporting all sources")
            return RelevancePlan("all", [], minimal=False, notes=notes)

    if not conjuncts:
        # WHERE is constant-FALSE: no source can ever influence the result.
        return RelevancePlan("empty", [], minimal=True, notes=["predicate is FALSE"])

    lookup = domain_lookup(resolved)
    h_alias = heartbeat_alias_for(resolved)
    subqueries: List[SubqueryPlan] = []
    minimal = True

    for index, conjunct in enumerate(conjuncts):
        if check_satisfiability and conjunct:
            overall = check_conjunction(conjunct, lookup, exact_limit)
            if overall is Satisfiability.UNSAT:
                # Corollaries 2/6: this conjunct contributes no sources.
                notes.append(f"conjunct {index} is unsatisfiable over the domains; pruned")
                continue
        for binding in resolved.bindings:
            classified = classify_conjunct(conjunct, binding.key)
            sub_minimal = True
            sub_notes: List[str] = []

            if classified.has_mixed:
                sub_minimal = False
                sub_notes.append("mixed predicate (Pm) present")
            if classified.has_regular_join:
                sub_minimal = False
                sub_notes.append("regular-column join predicate (Jrm) present")

            if check_satisfiability:
                if classified.pr:
                    pr_sat = check_conjunction(classified.pr, lookup, exact_limit)
                    if pr_sat is Satisfiability.UNSAT:
                        # Pr unsatisfiable over R_i's domains: no potential
                        # tuple of R_i can pass, so no source is relevant
                        # via R_i under this conjunct.
                        notes.append(
                            f"conjunct {index}: Pr unsatisfiable via "
                            f"{binding.key!r}; subquery skipped"
                        )
                        continue
                    if pr_sat is Satisfiability.UNKNOWN:
                        sub_minimal = False
                        sub_notes.append("Pr satisfiability unknown")
            else:
                sub_minimal = False
                sub_notes.append("satisfiability checking disabled")

            retained = classified.ps + classified.js + classified.po
            query, guards = build_subquery(resolved, binding, retained, h_alias)
            subqueries.append(
                SubqueryPlan(
                    conjunct_index=index,
                    binding_key=binding.key,
                    query=query,
                    guards=guards,
                    minimal=sub_minimal,
                    notes="; ".join(sub_notes),
                )
            )
            if not sub_minimal:
                minimal = False

    if not subqueries:
        return RelevancePlan("empty", [], minimal=True, notes=notes or ["all conjuncts pruned"])
    subqueries = _dedup_subqueries(subqueries)
    return RelevancePlan("focused", subqueries, minimal=minimal, notes=notes)


def memoized_relevance_plan(
    resolved: ResolvedQuery,
    max_conjuncts: int = DEFAULT_MAX_CONJUNCTS,
    check_satisfiability: bool = True,
    use_constraints: bool = True,
) -> Tuple[RelevancePlan, bool]:
    """:func:`build_relevance_plan` memoised on ``resolved`` itself; returns
    ``(plan, whether it was already there)``.

    A plan is a pure function of the resolution and these options, so it is
    exactly as valid as the resolution: hand in one from
    :func:`repro.engine.cache.resolve_cached` and a schema change to a
    referenced table — which retires the cached resolution — retires the
    plan with it. Two threads that miss together build the same plan twice;
    either assignment wins, so there is no lock.
    """
    key = (max_conjuncts, check_satisfiability, use_constraints)
    plan = resolved.relevance_plans.get(key)
    if plan is not None:
        return plan, True
    plan = resolved.relevance_plans[key] = build_relevance_plan(
        resolved,
        max_conjuncts=max_conjuncts,
        check_satisfiability=check_satisfiability,
        use_constraints=use_constraints,
    )
    return plan, False


def _dedup_subqueries(subqueries: List[SubqueryPlan]) -> List[SubqueryPlan]:
    """Drop duplicate (SQL, guards) subqueries.

    Different DNF conjuncts frequently produce identical recency subqueries
    (e.g. ``(v='a' OR v='b') AND src='s1'`` yields the same Heartbeat probe
    twice). The union result is unchanged by running one copy; plan-level
    minimality was already decided from the full set.
    """
    seen = set()
    out: List[SubqueryPlan] = []
    for sub in subqueries:
        key = (sub.sql, tuple(sub.guards))
        if key in seen:
            continue
        seen.add(key)
        out.append(sub)
    return out


def build_naive_plan() -> RelevancePlan:
    """The Naive method: one query returning every source in Heartbeat."""
    query = build_all_sources_query()
    sub = SubqueryPlan(
        conjunct_index=0,
        binding_key="*",
        query=query,
        guards=[],
        minimal=False,
        notes="naive method reports every data source",
    )
    return RelevancePlan("all", [sub], minimal=False, notes=["naive method"])
