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

Each decision is recorded as it is made (``plan.conjuncts``), and
:mod:`repro.core.explain` renders that record instead of re-running the
analysis.

Of all this only satisfiability depends on the literals' values. So a query
that differs from an earlier one only in its literals — one the
resolved-query cache bound from the earlier one's template
(``ResolvedQuery.bound_from``) — is planned once per shape:
:func:`memoized_relevance_plan` reruns every satisfiability check the
template's plan recorded (each conjunct's verdict, each relation's Pr
verdict) on the bound terms, and when all agree returns the template's plan
with this text's literals substituted into its terms, subqueries, guards and
statements (printed again). A verdict that differs builds the plan afresh.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.catalog import Domain
from repro.core.constraints import all_constraint_exprs, augmented_where
from repro.core.recency_query import ALL_SOURCES_QUERY, build_subquery, heartbeat_alias_for
from repro.engine.cache import resolve_statement
from repro.errors import DnfBlowupError, TracError, UnsupportedQueryError
from repro.predicates.classify import ClassifiedConjunct, classify_conjunct
from repro.predicates.dnf import to_dnf
from repro.predicates.satisfiability import Satisfiability, check_conjunction
from repro.sqlparser import ast
from repro.sqlparser.printer import to_sql
from repro.sqlparser.resolver import RelationBinding, ResolvedQuery


class SubqueryPlan:
    """One recency subquery: sources relevant via one relation, for one
    conjunct of the user query's DNF.

    ``query`` is the tree the planner built and ``guards`` the guards'
    text. Text — ``sql`` and ``guards`` — is what the wire format
    (:func:`~repro.core.recency_query.fragment_request`), shards, SQLite,
    explain and query profiles see; the memory backend runs the trees, as
    resolved once in :attr:`RelevancePlan.statements`, and never parses
    the text.
    """

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
        sql: Optional[str] = None,
    ) -> None:
        self.conjunct_index = conjunct_index
        self.binding_key = binding_key
        self.query = query
        self.sql = to_sql(query) if sql is None else sql
        self.guards = guards
        self.minimal = minimal
        self.notes = notes

    def __repr__(self) -> str:
        flag = "minimal" if self.minimal else "upper-bound"
        return (
            f"SubqueryPlan(conjunct={self.conjunct_index}, via={self.binding_key!r}, {flag})"
        )


class RelationDecision(NamedTuple):
    """How one relation was handled under one conjunct.

    ``subquery`` is the pair's own subquery, ``None`` when its Pr is
    unsatisfiable; ``kept`` is the ``plan.subqueries`` entry that runs it —
    ``subquery`` itself, or the earlier identical one it was folded into;
    ``pr_verdict`` is Pr's satisfiability (``None`` when not checked).
    """

    binding: RelationBinding
    classified: ClassifiedConjunct
    subquery: Optional[SubqueryPlan]
    kept: Optional[SubqueryPlan]
    pr_verdict: Optional[Satisfiability] = None


class ConjunctDecision(NamedTuple):
    """One DNF conjunct: its terms, its satisfiability verdict (``None``
    when not checked) and one :class:`RelationDecision` per relation (none
    when the verdict pruned it)."""

    terms: List[ast.Expr]
    verdict: Optional[Satisfiability]
    relations: List[RelationDecision]


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
    conjuncts:
        One :class:`ConjunctDecision` per DNF conjunct, in order (empty
        when no DNF was built).
    constraints:
        The schema constraints conjoined onto WHERE (``Q -> Q'``).
    fallback:
        The error that made the planner report all sources, if any.
    statements:
        Each kept subquery's and guard's text -> the planner's tree for
        it, resolved (annotated in place) before the plan is published, so
        plans shared between threads are read-only; run it while
        :meth:`~repro.sqlparser.resolver.ResolvedQuery.is_current`.
    """

    __slots__ = (
        "mode", "subqueries", "minimal", "notes", "conjuncts", "constraints", "fallback",
        "statements",
    )

    def __init__(
        self,
        mode: str,
        subqueries: List[SubqueryPlan],
        minimal: bool,
        notes: List[str],
        conjuncts: Optional[List[ConjunctDecision]] = None,
        constraints: Optional[List[ast.Expr]] = None,
        fallback: Optional[TracError] = None,
        statements: Optional[Dict[str, ResolvedQuery]] = None,
    ) -> None:
        self.mode = mode
        self.subqueries = subqueries
        self.minimal = minimal
        self.notes = notes
        self.conjuncts = conjuncts or []
        self.constraints = constraints or []
        self.fallback = fallback
        self.statements = statements or {}

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


def build_relevance_plan(resolved: ResolvedQuery, use_constraints: bool = True) -> RelevancePlan:
    """Build the Focused method's plan for a resolved query.

    Parameters
    ----------
    resolved:
        The resolved user query (single SPJ expression). A WHERE whose DNF
        exceeds :data:`~repro.predicates.dnf.MAX_CONJUNCTS` conjuncts falls
        back to ``mode == "all"``.
    use_constraints:
        Conjoin each referenced table's CHECK-style constraints onto the
        query (``Q -> Q'``, Section 3.4) before analysis. Requires the
        stored data to actually satisfy the constraints.
    """
    where = resolved.query.where
    notes: List[str] = []
    constraints: List[ast.Expr] = []

    if use_constraints and any(b.schema.constraints for b in resolved.bindings):
        constraints = all_constraint_exprs(resolved)
        where = augmented_where(resolved, constraints)
        notes.append("schema constraints conjoined (Q -> Q')")

    if where is None:
        conjuncts: List[List[ast.Expr]] = [[]]
    else:
        try:
            conjuncts = to_dnf(where)
        except (DnfBlowupError, UnsupportedQueryError) as exc:
            if isinstance(exc, DnfBlowupError):
                notes.append(f"DNF blow-up ({exc.term_count} > {exc.limit}); reporting all sources")
            else:
                notes.append(f"unsupported predicate ({exc}); reporting all sources")
            fallback = exc.with_traceback(None)  # no frames kept alive by the plan
            return RelevancePlan("all", [], False, notes, [], constraints, fallback)

    if not conjuncts:
        # WHERE is constant-FALSE: no source can ever influence the result.
        return RelevancePlan("empty", [], True, ["predicate is FALSE"], constraints=constraints)

    lookup = domain_lookup(resolved)
    h_alias = heartbeat_alias_for(resolved)
    subqueries: List[SubqueryPlan] = []
    # (SQL, guards) -> the first subquery with them: a later identical one
    # (``(v='a' OR v='b') AND src='s1'`` probes Heartbeat twice) is folded
    # into it. Plan-level minimality still counts every pair.
    kept_by_text: Dict[Tuple[str, Tuple[str, ...]], SubqueryPlan] = {}
    statements: Dict[str, ResolvedQuery] = {}
    decisions: List[ConjunctDecision] = []
    minimal = True

    for index, conjunct in enumerate(conjuncts):
        verdict = None
        if conjunct:
            verdict = check_conjunction(conjunct, lookup)
        relations: List[RelationDecision] = []
        decisions.append(ConjunctDecision(conjunct, verdict, relations))
        if verdict is Satisfiability.UNSAT:
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

            pr_sat = None
            if classified.pr:
                pr_sat = check_conjunction(classified.pr, lookup)
                if pr_sat is Satisfiability.UNSAT:
                    # Pr unsatisfiable over R_i's domains: no potential
                    # tuple of R_i can pass, so no source is relevant
                    # via R_i under this conjunct.
                    notes.append(
                        f"conjunct {index}: Pr unsatisfiable via "
                        f"{binding.key!r}; subquery skipped"
                    )
                    relations.append(RelationDecision(binding, classified, None, None, pr_sat))
                    continue
                if pr_sat is Satisfiability.UNKNOWN:
                    sub_minimal = False
                    sub_notes.append("Pr satisfiability unknown")

            retained = classified.ps + classified.js + classified.po
            query, guards = build_subquery(resolved, binding, retained, h_alias)
            texts = [to_sql(guard) for guard in guards]
            sub = SubqueryPlan(index, binding.key, query, texts, sub_minimal, "; ".join(sub_notes))
            kept = kept_by_text.setdefault((sub.sql, tuple(texts)), sub)
            if kept is sub:
                subqueries.append(sub)
                for text, tree in zip([sub.sql] + texts, [query] + guards):
                    if text not in statements:
                        statements[text] = resolve_statement(tree, resolved.catalog)
            relations.append(RelationDecision(binding, classified, sub, kept, pr_sat))
            if not sub_minimal:
                minimal = False

    if not subqueries:
        return RelevancePlan(
            "empty", [], True, notes or ["all conjuncts pruned"], decisions, constraints
        )
    return RelevancePlan(
        "focused", subqueries, minimal, notes, decisions, constraints, statements=statements
    )


def memoized_relevance_plan(
    resolved: ResolvedQuery, use_constraints: bool = True
) -> Tuple[RelevancePlan, bool]:
    """:func:`build_relevance_plan` memoised on ``resolved`` itself; returns
    ``(plan, whether it was already there)``.

    A plan is a pure function of the resolution and ``use_constraints``, so
    it is exactly as valid as the resolution: hand in one from
    :func:`repro.engine.cache.resolve_cached` and a schema change to a
    referenced table — which retires the cached resolution — retires the
    plan with it. Two threads that miss together build the same plan twice;
    either assignment wins, so there is no lock.

    A resolution the cache bound from a template of its shape
    (``resolved.bound_from``) is planned by re-binding the template's plan
    for the same ``use_constraints``, when there is one:
    :func:`_rebound_plan` reruns every satisfiability check the template's
    plan recorded on the bound terms and substitutes this text's literals
    into its trees. A verdict that differs, or an error, builds the plan
    afresh. Template plans are never written once published, so threads
    share them freely.
    """
    plan = resolved.relevance_plans.get(use_constraints)
    if plan is not None:
        return plan, True
    if resolved.bound_from is not None:
        template = resolved.bound_from[0].relevance_plans.get(use_constraints)
        if template is not None:
            try:
                plan = _rebound_plan(template, resolved)
            except TracError:
                plan = None
    if plan is None:
        plan = build_relevance_plan(resolved, use_constraints=use_constraints)
    resolved.relevance_plans[use_constraints] = plan
    return plan, False


def _rebound_plan(plan: RelevancePlan, resolved: ResolvedQuery) -> Optional[RelevancePlan]:
    """The template's ``plan`` for ``resolved``, a text of its shape; None
    when this text's literals could give a plan of another structure.

    The shape key keeps DNF de-duplication and the folding of identical
    subqueries; two things it cannot see are checked here: a satisfiability
    verdict (every one the template recorded is rerun on the bound terms),
    and a literal equal to one of a schema constraint's.
    """
    template, copies = resolved.bound_from
    if plan.mode == "all":
        return plan if isinstance(plan.fallback, DnfBlowupError) else None
    if plan.constraints:
        fixed = {
            node.value
            for expr in plan.constraints
            for node in ast.walk(expr)
            if isinstance(node, ast.Literal)
        }
        slots = [node for node in template.query.literals if node is not None]
        if any(n.value in fixed or copies[id(n)].value in fixed for n in slots):
            return None
    memo = dict(copies)
    texts: Dict[str, str] = {}
    statements: Dict[str, ResolvedQuery] = {}
    for text, statement in plan.statements.items():
        query = ast.substitute_query(statement.query, memo)
        texts[text] = to_sql(query)
        statements[texts[text]] = statement.rebound(query)
    if len(statements) != len(plan.statements):
        return None  # two statements now print alike

    subqueries: Dict[int, SubqueryPlan] = {}

    def bind(sub: Optional[SubqueryPlan]) -> Optional[SubqueryPlan]:
        if sub is None:
            return None
        if id(sub) not in subqueries:
            subqueries[id(sub)] = SubqueryPlan(
                sub.conjunct_index,
                sub.binding_key,
                ast.substitute_query(sub.query, memo),
                [texts[guard] for guard in sub.guards],
                sub.minimal,
                sub.notes,
                texts[sub.sql],
            )
        return subqueries[id(sub)]

    lookup = domain_lookup(resolved)
    decisions: List[ConjunctDecision] = []
    for decision in plan.conjuncts:
        terms = [ast.substitute(term, memo) for term in decision.terms]
        if decision.verdict is not None and check_conjunction(terms, lookup) is not decision.verdict:
            return None
        relations: List[RelationDecision] = []
        for relation in decision.relations:
            classified = ClassifiedConjunct(relation.classified.relation_key)
            for bucket in _BUCKETS:
                terms_of = getattr(relation.classified, bucket)
                if terms_of:
                    setattr(classified, bucket, [ast.substitute(t, memo) for t in terms_of])
            verdict = relation.pr_verdict
            if verdict is not None and check_conjunction(classified.pr, lookup) is not verdict:
                return None
            relations.append(
                RelationDecision(
                    relation.binding, classified, bind(relation.subquery), bind(relation.kept), verdict
                )
            )
        decisions.append(ConjunctDecision(terms, decision.verdict, relations))
    return RelevancePlan(
        plan.mode,
        [bind(sub) for sub in plan.subqueries],
        plan.minimal,
        plan.notes,
        decisions,
        plan.constraints,
        statements=statements,
    )


#: The :class:`ClassifiedConjunct` buckets, in its order.
_BUCKETS = ("ps", "pr", "pm", "js", "jrm", "po")


def build_naive_plan() -> RelevancePlan:
    """The Naive method: one query returning every source in Heartbeat."""
    notes = "naive method reports every data source"
    sub = SubqueryPlan(0, "*", ALL_SOURCES_QUERY, [], False, notes)
    return RelevancePlan("all", [sub], minimal=False, notes=["naive method"])
