"""Row-level lineage: which data sources produced each result row.

The executor's intermediate tuples are *environments* — maps from binding
key to the base-table row bound under that key — and they flow intact
through every join strategy (hash, nested loop, cross product) and every
filter. That gives lineage for free at projection time: for each binding
whose table schema declares a data source column (``c_s``, Section 3.3),
read the source id straight off the bound base row. The lineage of an
environment is the set of those ids, and because a join output env simply
*contains* both parents' bindings, join-output lineage is the union of the
parents' lineages by construction — no per-operator bookkeeping, and the
compiled and interpreted execution paths (which share the projection
machinery) produce byte-identical lineage.

Aggregates union the lineages of their group's member environments;
``DISTINCT`` unions the lineages of the duplicates it collapses (classic
why-provenance semantics, per Cheney et al.'s Provenance Traces).

A :class:`LineagePlan` is the per-query recipe: one ``(binding key,
source-column index)`` probe per source-bearing FROM binding. A plan is a
pure function of the bindings, so the resolved-query cache attaches one to
every entry; a lineage-enabled execution reads it once and pays one
tuple-index read per probe per output row, a lineage-free execution never
looks at it.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

#: The lineage of one result row: the ids of every data source whose
#: tuples contributed to it.
Lineage = FrozenSet[str]

#: Shared lineage of rows no monitored source produced (e.g. rows built
#: purely from literals, or aggregate rows over an empty input).
EMPTY_LINEAGE: Lineage = frozenset()


class LineagePlan:
    """Per-query recipe for reading source ids out of environments.

    ``probes`` holds one ``(binding_key, column_index)`` pair per FROM
    binding whose schema declares a data source column; ``fanin`` (the
    probe count) bounds how many distinct sources any single output row
    can cite before aggregation.
    """

    __slots__ = ("probes",)

    def __init__(self, probes: List[Tuple[str, int]]) -> None:
        self.probes = probes

    @property
    def fanin(self) -> int:
        return len(self.probes)

    def __repr__(self) -> str:
        return f"LineagePlan(probes={self.probes!r})"


def build_lineage_plan(resolved) -> LineagePlan:
    """Build the probe list for a :class:`ResolvedQuery`."""
    probes: List[Tuple[str, int]] = []
    for binding in resolved.bindings:
        schema = binding.schema
        if schema.source_column is not None:
            probes.append((binding.key, schema.column_index(schema.source_column)))
    return LineagePlan(probes)


def lineage_plan_for(resolved) -> LineagePlan:
    """The resolution's attached plan (cache-provided), built on demand."""
    plan = getattr(resolved, "lineage_plan", None)
    if plan is None:
        plan = build_lineage_plan(resolved)
    return plan


def env_lineage(env, probes: List[Tuple[str, int]]) -> Lineage:
    """Lineage of one environment: non-NULL source ids across its probes."""
    out = set()
    for key, index in probes:
        value = env[key][index]
        if value is not None:
            out.add(str(value))
    return frozenset(out)


def union_lineage(lineages: Iterable[Lineage]) -> Lineage:
    """Union of many lineages (aggregate groups, DISTINCT collapses)."""
    out: set = set()
    for lineage in lineages:
        out |= lineage
    return frozenset(out)


def max_fanin(lineages: Optional[List[Lineage]]) -> int:
    """Largest per-row source set in a result's lineage (0 when empty)."""
    if not lineages:
        return 0
    return max(len(lineage) for lineage in lineages)


def distinct_sources(lineages: Optional[List[Lineage]]) -> List[str]:
    """Sorted ids of every source cited anywhere in a result's lineage."""
    if not lineages:
        return []
    return sorted(union_lineage(lineages))


def annotate_profile(profile, plan: LineagePlan, lineages: Optional[List[Lineage]]) -> None:
    """Stamp lineage fan-in onto a finished :class:`QueryProfile`.

    Replays the operator sequence the executor recorded: scans carry 1/0
    (does that binding contribute source ids), join steps the cumulative
    count of source-bearing bindings bound so far (the greedy join's
    starting relation is the scanned key that never appears as a join
    target), the cross product every probe at once, and the output
    operators (project/aggregate/sort/limit) the max per-row source-set
    size of the final result.
    """
    from repro.engine.profile import (
        OP_AGGREGATE,
        OP_CROSS,
        OP_JOIN,
        OP_LIMIT,
        OP_PROJECT,
        OP_SCAN,
        OP_SORT,
    )

    source_keys = {key for key, _ in plan.probes}
    scan_targets = [op.target for op in profile.operators if op.op == OP_SCAN]
    join_targets = {op.target for op in profile.operators if op.op == OP_JOIN}
    bound = {t for t in scan_targets if t not in join_targets}
    output_fanin = max_fanin(lineages)
    for op in profile.operators:
        if op.op == OP_SCAN:
            op.lineage_fanin = 1 if op.target in source_keys else 0
        elif op.op == OP_JOIN:
            bound.add(op.target)
            op.lineage_fanin = len(bound & source_keys)
        elif op.op == OP_CROSS:
            op.lineage_fanin = plan.fanin
        elif op.op in (OP_PROJECT, OP_AGGREGATE, OP_SORT, OP_LIMIT):
            op.lineage_fanin = output_fanin
    profile.lineage = {
        "enabled": True,
        "sources": distinct_sources(lineages),
        "max_fanin": output_fanin,
    }


__all__ = [
    "Lineage",
    "EMPTY_LINEAGE",
    "LineagePlan",
    "build_lineage_plan",
    "lineage_plan_for",
    "env_lineage",
    "union_lineage",
    "max_fanin",
    "distinct_sources",
    "annotate_profile",
]
