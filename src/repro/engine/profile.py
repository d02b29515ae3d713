"""Structured per-operator query profiles: EXPLAIN ANALYZE as data.

A flat string trace is fine for a human and useless for a system that wants
to *query* how a result was computed; Provenance Traces' framing is that an
execution has one trace and everything else is a view of it. A
:class:`QueryProfile` is that trace: the join pipeline that ran and one
:class:`OperatorProfile` per plan operator the executor actually ran —
scans with their pushed predicates and selectivities, join steps with their
method and fan-out, residual filters, sorts, projection/aggregation, LIMIT
— each with rows in/out and wall seconds, plus query-level totals, the
resolved-query cache verdict and the ``trace_id`` that links the profile to
its spans and events.

The profile is the executor's only record of an execution:
``execute_query`` fills the one it is given and hands it back as
``QueryResult.profile``; :meth:`QueryProfile.render` (``trac explain
--analyze``, the shell's ``.profile``) is its view. Profiles are
produced two ways:

* explicitly — :func:`profile_query` runs one query with profiling on;
* implicitly — ``execute_sql`` profiles every query it runs while
  telemetry is enabled and also records the profile into
  :attr:`Telemetry.profiles <repro.obs.instrument.Telemetry.profiles>`,
  the ring the Observatory serves at ``/profile`` and ``/trace/<id>``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.relation import Database

#: Canonical operator names (the ``op`` field of :class:`OperatorProfile`).
OP_SCAN = "scan"
OP_JOIN = "join"
OP_FILTER = "filter"
OP_CROSS = "cross_product"
OP_SORT = "sort"
OP_PROJECT = "project"
OP_AGGREGATE = "aggregate"
OP_LIMIT = "limit"

#: Which join pipeline ran (the ``pipeline`` field of :class:`QueryProfile`).
PIPELINE_CONJUNCTIVE = "conjunctive (push-down + ordered joins)"
PIPELINE_GENERAL = "general boolean (filtered cross product)"


class OperatorProfile:
    """One executed plan operator: rows in/out, wall seconds, detail.

    ``lineage_fanin`` is stamped only on lineage-enabled executions (see
    :func:`repro.engine.lineage.annotate_profile`): the number of data
    sources feeding this operator — 0/1 on scans, cumulative source-bearing
    bindings on joins, the max per-row source-set size on the output
    operators. ``None`` means the query ran without lineage.

    ``rows_in`` is what the operator *read*. ``rows_available`` is set only
    on an operator a ``LIMIT`` row budget stopped early (its ``detail`` ends
    ``stopped at LIMIT n``): the rows it could have read.
    """

    __slots__ = (
        "op", "target", "rows_in", "rows_out", "seconds", "detail", "rows_available",
        "lineage_fanin",
    )

    def __init__(
        self,
        op: str,
        target: str,
        rows_in: int,
        rows_out: int,
        seconds: float,
        detail: str = "",
        rows_available: Optional[int] = None,
    ) -> None:
        self.op = op
        self.target = target
        self.rows_in = rows_in
        self.rows_out = rows_out
        self.seconds = seconds
        self.detail = detail
        self.rows_available = rows_available
        self.lineage_fanin: Optional[int] = None

    @property
    def selectivity(self) -> Optional[float]:
        """rows_out / rows_in, or ``None`` when no rows went in."""
        if self.rows_in <= 0:
            return None
        return self.rows_out / self.rows_in

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "op": self.op,
            "target": self.target,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
            "selectivity": self.selectivity,
            "detail": self.detail,
        }
        if self.rows_available is not None:
            out["rows_available"] = self.rows_available
        if self.lineage_fanin is not None:
            out["lineage_fanin"] = self.lineage_fanin
        return out

    def __repr__(self) -> str:
        return (
            f"OperatorProfile({self.op} {self.target}: "
            f"{self.rows_in}->{self.rows_out} in {self.seconds * 1000:.3f}ms)"
        )


class QueryProfile:
    """The per-operator execution profile of one query."""

    def __init__(self, sql: str) -> None:
        self.sql = sql
        self.operators: List[OperatorProfile] = []
        self.total_seconds = 0.0
        self.rows = 0
        self.columns: List[str] = []
        #: The join pipeline the executor chose (a ``PIPELINE_*`` constant).
        self.pipeline: Optional[str] = None
        #: Resolved-query cache verdict (None = cache not consulted).
        self.cache_hit: Optional[bool] = None
        #: Whether the query ran inside a backend snapshot.
        self.snapshot = False
        #: 32-hex trace id linking to spans/events; None when untraced.
        self.trace_id: Optional[str] = None
        #: Incremental-maintenance verdict for the report this query headed
        #: ("hit" / "miss" / "bypass"); None when no maintainer was wired.
        self.incremental: Optional[str] = None
        #: Lineage summary (``{"enabled", "sources", "max_fanin"}``) stamped
        #: by :func:`repro.engine.lineage.annotate_profile`; None when the
        #: query ran without lineage.
        self.lineage: Optional[Dict[str, Any]] = None

    def add(
        self,
        op: str,
        target: str,
        rows_in: int,
        rows_out: int,
        seconds: float,
        detail: str = "",
        rows_available: Optional[int] = None,
    ) -> OperatorProfile:
        operator = OperatorProfile(
            op, target, rows_in, rows_out, seconds, detail, rows_available
        )
        self.operators.append(operator)
        return operator

    def finish(self, result, total_seconds: float) -> None:
        """Stamp query-level totals from the finished result."""
        self.total_seconds = total_seconds
        self.rows = len(result.rows)
        self.columns = list(result.columns)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sql": self.sql,
            "total_seconds": self.total_seconds,
            "rows": self.rows,
            "columns": list(self.columns),
            "cache_hit": self.cache_hit,
            "snapshot": self.snapshot,
            "trace_id": self.trace_id,
            "incremental": self.incremental,
            "lineage": self.lineage,
            "operators": [op.to_dict() for op in self.operators],
        }

    def render(self) -> str:
        """Aligned plain text (what ``trac explain --analyze`` prints)."""
        from repro.obs.export import aligned

        lines = [f"profile: {self.sql}"]
        with_lineage = any(op.lineage_fanin is not None for op in self.operators)
        headers = ("operator", "target", "rows_in", "rows_out", "sel", "ms", "detail")
        if with_lineage:
            headers = headers + ("fanin",)
        rows: List[tuple] = []
        for op in self.operators:
            sel = f"{op.selectivity:.3f}" if op.selectivity is not None else "-"
            row = (
                op.op,
                op.target,
                str(op.rows_in),
                str(op.rows_out),
                sel,
                f"{op.seconds * 1000:.3f}",
                op.detail,
            )
            if with_lineage:
                fanin = op.lineage_fanin
                row = row + (str(fanin) if fanin is not None else "-",)
            rows.append(row)
        lines.extend(line.rstrip() for line in aligned(headers, rows, "  "))
        flags = []
        if self.cache_hit is not None:
            flags.append(f"cache={'hit' if self.cache_hit else 'miss'}")
        if self.snapshot:
            flags.append("snapshot=yes")
        if self.lineage is not None:
            flags.append(
                f"lineage={len(self.lineage.get('sources', []))} source(s), "
                f"fan-in<={self.lineage.get('max_fanin', 0)}"
            )
        if self.trace_id:
            flags.append(f"trace_id={self.trace_id}")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        lines.append(
            f"  total: {self.rows} row(s) in {self.total_seconds * 1000:.3f}ms, "
            f"columns {self.columns}{suffix}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QueryProfile(sql={self.sql!r}, operators={len(self.operators)}, "
            f"rows={self.rows}, total={self.total_seconds * 1000:.3f}ms)"
        )


def profile_query(
    db: Database,
    sql: str,
    compiled: bool = True,
    lineage: bool = False,
) -> QueryProfile:
    """Execute ``sql`` against ``db`` with per-operator profiling enabled.

    ``lineage=True`` additionally runs the query with row-level lineage and
    stamps per-operator fan-in plus the profile-level lineage summary."""
    from repro.engine.evaluate import execute_query
    from repro.sqlparser.parser import parse_query
    from repro.sqlparser.resolver import resolve

    resolved = resolve(parse_query(sql), db.catalog)
    return execute_query(
        db, resolved, compiled=compiled, profile=QueryProfile(sql), lineage=lineage
    ).profile
