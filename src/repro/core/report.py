"""The ``recencyReport`` table function (Section 5.1), as a library call.

:class:`RecencyReporter` runs a user query together with its system-generated
recency query inside one backend snapshot (Section 3.2's consistency
requirement), computes the relevant sources' recency timestamps, splits them
into normal/exceptional by z-score, derives the descriptive statistics and
materializes the two session temp tables.

Three methods are supported, matching the experimental setup of Section 5.2:

* ``"focused"`` — parse the user query and auto-generate the recency query
  (the paper's technique; parse/generation time is part of the overhead);
* ``"focused_hardcoded"`` — run a pre-built plan (no parse/generation cost;
  isolates execution overhead);
* ``"naive"`` — report every data source in the Heartbeat table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.backends.base import Backend, Snapshot
from repro.core.quality import ProvenanceRecord, QualityModel
from repro.core.recency_query import execute_fragment, fragment_request, merge_fragments
from repro.core.relevance import (
    RelevancePlan,
    build_naive_plan,
    build_relevance_plan,
    memoized_relevance_plan,
)
from repro.core.session import Session, TempTablePair
from repro.core.sources import SourceRegistry
from repro.core.statistics import (
    DEFAULT_Z_THRESHOLD,
    Columns,
    RecencyStatistics,
    SourceRecency,
    describe_columns,
    format_interval,
    format_timestamp,
    split_columns,
)
from repro.engine.cache import resolve_cached
from repro.engine.evaluate import QueryResult
from repro.errors import TracError, check_number
from repro.obs import instrument as obs
from repro.obs.events import EVT_QUERY_SLOW, EVT_REPORT_EXCEPTIONAL
from repro.obs.instrument import PhaseTimer, slow_query_threshold

_METHODS = ("focused", "focused_hardcoded", "naive")

#: Span names for the report phases (children of ``trac.report``).
SPAN_REPORT = "trac.report"
SPAN_PARSE = "report.parse_generate"
SPAN_USER = "report.user_query"
SPAN_RECENCY = "report.recency_query"
SPAN_STATS = "report.statistics"


class ReportTimings:
    """Wall-clock breakdown of one report, in seconds.

    Mirrors the decomposition of Section 5.2: parse + recency-query
    generation; user query execution; recency query execution; statistics
    (z-score split, min/max/range, temp-table creation).

    This is a thin view over the report's phase spans: the reporter times
    each phase with :class:`~repro.obs.instrument.PhaseTimer` and copies
    the measured durations here, so the numbers equal the span durations
    exported by :mod:`repro.obs` when telemetry is enabled.
    """

    __slots__ = ("parse_generate", "user_query", "recency_query", "statistics", "total")

    def __init__(
        self,
        parse_generate: float,
        user_query: float,
        recency_query: float,
        statistics: float,
        total: float,
    ) -> None:
        self.parse_generate = parse_generate
        self.user_query = user_query
        self.recency_query = recency_query
        self.statistics = statistics
        self.total = total

    def to_dict(self) -> Dict[str, float]:
        """Phase durations keyed by phase name (JSON exporter friendly)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"ReportTimings(parse={self.parse_generate:.6f}s, user={self.user_query:.6f}s, "
            f"recency={self.recency_query:.6f}s, stats={self.statistics:.6f}s, "
            f"total={self.total:.6f}s)"
        )


class RecencyReport:
    """Everything the recency report returns for one user query.

    Built from the relevant sources some *fetch* stage produced (snapshot
    subqueries, the incremental maintainer, a shard fan-out — the report
    cannot tell which) as two columns, ``(ids, recencies)``; the z-score
    split and statistics run over the columns here, and the producing
    pipeline then fills the annotation attributes. ``normal_sources`` /
    ``exceptional_sources`` build their objects on first read.

    ``telemetry`` is the report's root :class:`~repro.obs.trace.Span`
    (``trac.report``) when the producing reporter had telemetry enabled,
    else ``None``. Its children are the four phase spans; walk them via
    the reporter's ``telemetry.tracer`` or export them with
    :func:`repro.obs.to_jsonl`.

    ``degraded_sources`` (sources a :class:`~repro.grid.supervisor.SnifferSupervisor`
    quarantined) and ``unreported_sources`` (sources with no Heartbeat row
    yet, relevant or not) come from the producing reporter's
    :class:`~repro.core.sources.SourceRegistry`; both are empty without one.
    Unlike ``exceptional_sources``, which the z-score *infers* from the
    Heartbeat data, these are known, and may be absent from the split.
    """

    def __init__(
        self,
        sql: str,
        method: str,
        plan: RelevancePlan,
        sources: Columns,
        z_threshold: float = DEFAULT_Z_THRESHOLD,
        result: Optional[QueryResult] = None,
    ) -> None:
        self.sql = sql
        self.method = method
        self.plan = plan
        #: The user query's rows; ``None`` when only the recency side ran
        #: (a federated report never executes the user query).
        self.result = result
        split = self.split = split_columns(*sources, z_threshold)
        self.statistics: RecencyStatistics = describe_columns(
            split.normal_ids, split.normal_recencies
        )
        self.temp_tables: Optional[TempTablePair] = None
        self.timings: Optional[ReportTimings] = None
        self.telemetry: Optional[object] = None
        self.degraded_sources: List[str] = []
        self.unreported_sources: List[str] = []
        #: ``{"target_p95", "budget", "breached"}`` when the registry has a target.
        self.slo_status: Optional[Dict[str, object]] = None
        #: The user query's per-operator
        #: :class:`~repro.engine.profile.QueryProfile` when the producing
        #: reporter had telemetry enabled and the backend profiles queries
        #: (the memory backend does); ``None`` otherwise.
        self.profile: Optional[object] = None
        #: Incremental-maintenance verdict: ``"hit"`` (relevant sources
        #: read at the maintainer's Heartbeat positions), ``"miss"``
        #: (computed from scratch, now registered) or ``"bypass"`` (plan
        #: ineligible); ``None`` when the reporter has no maintainer.
        self.incremental: Optional[str] = None
        #: The ``provenance`` block (``{"row_sources", "quality"}``, see
        #: :meth:`~repro.core.quality.QualityModel.summarize`) when the
        #: producing reporter ran with ``lineage=True`` and the backend can
        #: attribute rows; ``None`` otherwise.
        self.provenance: Optional[Dict[str, object]] = None
        #: Per-row quality scores, parallel to the result rows (``None``
        #: without a ``provenance`` block).
        self.row_quality: Optional[List[Optional[float]]] = None

    @property
    def trace_id(self) -> Optional[str]:
        """The report's 32-hex trace id (from its root span), if traced."""
        span = self.telemetry
        if span is None or not getattr(span, "trace_id", 0):
            return None
        return f"{span.trace_id:032x}"

    @property
    def normal_sources(self) -> List[SourceRecency]:
        return self.split.normal

    @property
    def exceptional_sources(self) -> List[SourceRecency]:
        return self.split.exceptional

    @property
    def relevant_source_ids(self) -> Set[str]:
        """All reported relevant sources (normal plus exceptional)."""
        return set(self.split.normal_ids).union(self.split.exceptional_ids)

    @property
    def minimal(self) -> bool:
        """Whether the relevant set is provably the minimum (Theorems 3/4)."""
        return self.plan.minimal

    @property
    def suspect_sources(self) -> Set[str]:
        """Sources the report says not to trust: the z-score-exceptional,
        supervisor-degraded and unreported ones."""
        return set(self.split.exceptional_ids).union(self.degraded_sources, self.unreported_sources)

    def notices(self) -> List[str]:
        """The NOTICE lines of the prototype's interactive session."""
        lines: List[str] = []
        if self.split.exceptional_ids and self.temp_tables is not None:
            lines.append(
                "NOTICE: Exceptional relevant data sources and timestamps "
                f"are in the temporary table: {self.temp_tables.exceptional}"
            )
        if self.degraded_sources:
            lines.append(
                "NOTICE: Degraded data sources (supervisor-quarantined, not "
                f"merely stale): {', '.join(self.degraded_sources)}"
            )
        if self.unreported_sources:
            lines.append(f"NOTICE: Unreported data sources: {', '.join(self.unreported_sources)}")
        quality = self.provenance["quality"] if self.provenance is not None else None
        if quality is not None and (
            quality["rows_from_exceptional"] or quality["rows_from_degraded"]
        ):
            worst = quality["worst_row_quality"]
            worst_text = f"{worst:.3f}" if worst is not None else "unknown"
            lines.append(
                f"NOTICE: {quality['rows_from_exceptional']} result row(s) cite "
                f"exceptional sources and {quality['rows_from_degraded']} cite "
                f"degraded sources (worst row quality: {worst_text})"
            )
        slo = self.slo_status
        if slo is not None and slo["breached"]:
            lines.append(
                "NOTICE: Staleness SLO breached "
                f"(p95 lag target {slo['target_p95']:g}s, budget {slo['budget']:g}): "
                f"{', '.join(slo['breached'])}"
            )
        stats = self.statistics
        if stats.least_recent is not None and stats.most_recent is not None:
            lines.append(
                "NOTICE: The least recent data source: "
                f"{stats.least_recent.source_id}, {format_timestamp(stats.least_recent.recency)}"
            )
            lines.append(
                "NOTICE: The most recent data source: "
                f"{stats.most_recent.source_id}, {format_timestamp(stats.most_recent.recency)}"
            )
            lines.append(
                "NOTICE: Bound of inconsistency: "
                f"{format_interval(stats.inconsistency_bound or 0.0)}"
            )
        elif self.split.exceptional_ids:
            lines.append("NOTICE: Every relevant data source that reported in is exceptional")
        else:
            lines.append("NOTICE: No relevant data sources have reported in")
        if self.temp_tables is not None:
            lines.append(
                'NOTICE: All "normal" relevant data sources and timestamps '
                f"are in the temporary table: {self.temp_tables.normal}"
            )
        return lines

    def to_dict(self) -> Dict[str, object]:
        """The report as one JSON document — the only report → JSON mapping.

        Every surface (``POST /v1/query``, a federated report) serves
        exactly these keys plus its own envelope. ``normal``
        and ``exceptional`` are the paper's two temp tables as data:
        ``[source, recency]`` pairs. The document says nothing about what
        is off: ``trace_id`` and ``profile`` appear only with telemetry
        enabled, ``incremental`` only with a maintainer, ``provenance`` only
        with lineage on. Every other key is always present — a ``null``
        ``bound_of_inconsistency`` means no relevant source has reported in.
        """
        result, split = self.result, self.split
        doc: Dict[str, object] = {
            "sql": self.sql,
            "method": self.method,
            "columns": list(result.columns) if result is not None else [],
            "rows": [list(row) for row in result.rows] if result is not None else [],
            "notices": self.notices(),
            "relevant_sources": sorted(split.normal_ids + split.exceptional_ids),
            "exceptional_sources": sorted(split.exceptional_ids),
            "normal": list(map(list, zip(split.normal_ids, split.normal_recencies))),
            "exceptional": list(
                map(list, zip(split.exceptional_ids, split.exceptional_recencies))
            ),
            "degraded": list(self.degraded_sources),
            "bound_of_inconsistency": self.statistics.inconsistency_bound,
            "minimal": self.minimal,
            "timings": self.timings.to_dict(),
        }
        if self.incremental is not None:
            doc["incremental"] = self.incremental
        trace_id = self.trace_id
        if trace_id is not None:
            doc["trace_id"] = trace_id
        if self.profile is not None:
            doc["profile"] = self.profile.to_dict()
        if self.provenance is not None:
            # The trace_id above pivots to /trace/<id> and /provenance/<id>
            # on the observatory; the inline block answers "why trust this
            # row" without a second round trip.
            doc["provenance"] = self.provenance
        return doc

    def __repr__(self) -> str:
        rows = len(self.result.rows) if self.result is not None else 0
        return (
            f"RecencyReport(method={self.method!r}, rows={rows}, "
            f"relevant={len(self.relevant_source_ids)}, minimal={self.minimal})"
        )


class RecencyReporter:
    """Produces :class:`RecencyReport` objects for user queries.

    Parameters
    ----------
    backend:
        The storage backend holding the monitored tables and Heartbeat.
    z_threshold:
        |z| cutoff for exceptional sources (Section 4.3; default 3).
    create_temp_tables:
        When True, materialize each report's normal / exceptional sources
        as two session temp tables (Section 4.3) that later queries can
        read. Off by default: a long-lived reporter would otherwise pile
        up two tables per report.
    use_constraints:
        Conjoin schema CHECK constraints onto queries before relevance
        analysis (``Q -> Q'``, Section 3.4).
    plan_cache_size:
        On/off. When positive, a query's relevance plan is kept on its
        entry in the resolved-query cache (:mod:`repro.engine.cache`), so a
        repeated query pays parse/generation only once — the paper's
        "hardcoded" method, automated — and a schema change to a table it
        references retires plan and resolution together. Capacity is that
        cache's; the value only has to be positive. ``0`` (default) plans
        on every call: the paper's Focused method as measured.
    sources:
        An optional :class:`~repro.core.sources.SourceRegistry` (the one the
        ingest path writes into). When given, every report carries the
        currently degraded sources and flags them in its NOTICE lines — the
        deployment's known outages, cross-checkable against the z-score's
        inferred exceptional sources; a registry with a staleness target
        also adds a NOTICE line naming the sources whose SLO is breached,
        and its target is the half-life row quality decays by.
    telemetry:
        An explicit :class:`~repro.obs.Telemetry` for this reporter's spans
        and counters. ``None`` (default) follows the process-wide default,
        which is disabled unless enabled via ``repro.obs.enable()`` or
        ``TRAC_TELEMETRY=1``. A report slower than the
        ``TRAC_SLOW_QUERY_SECONDS`` environment variable (end-to-end wall
        seconds, read per report; unset or ``0`` disables) emits a
        ``query.slow`` event carrying its trace id — a flight recorder
        configured with that trigger then dumps the full span tree and
        query profile.
    incremental:
        An optional :class:`~repro.incremental.IncrementalMaintainer`
        attached to this reporter's backend. Eligible plans then read
        their relevant sources from the report's snapshot at the Heartbeat
        positions the maintainer remembers (verdict ``"hit"``); a first
        sighting computes from scratch and registers the entry
        (``"miss"``); ineligible plans fall through unchanged
        (``"bypass"``). The verdict lands on the report, the user query's
        profile and the telemetry counters. ``fetch`` extends the
        maintainer's entries, so one reporter thread uses it at a time.
    incremental_verify:
        When True, every incremental hit *also* runs the from-scratch path
        in the same snapshot and raises :class:`~repro.errors.TracError`
        on any divergence — the differential oracle used by the tests.
        Leave False in production use; it removes the speedup.
    lineage:
        When True, the user query runs with row-level lineage enabled and
        every report carries a ``provenance`` block (per-row source lists
        and their staleness-derived quality rollup, see
        :mod:`repro.core.quality`) and the per-row ``row_quality`` scores.
        Strictly opt-in: a report without lineage never reads them.
        Backends that cannot attribute rows (SQLite) degrade to
        ``provenance=None``.
    """

    def __init__(
        self,
        backend: Backend,
        z_threshold: float = DEFAULT_Z_THRESHOLD,
        create_temp_tables: bool = False,
        use_constraints: bool = True,
        plan_cache_size: int = 0,
        telemetry: Optional[object] = None,
        sources: Optional[SourceRegistry] = None,
        incremental: Optional[object] = None,
        incremental_verify: bool = False,
        lineage: bool = False,
    ) -> None:
        self.backend = backend
        self.z_threshold = check_number("z_threshold", z_threshold, 0, low_open=True)
        self.create_temp_tables = create_temp_tables
        self.use_constraints = use_constraints
        self.plan_cache_size = plan_cache_size
        self.telemetry = telemetry
        self.sources = sources
        self.incremental = incremental
        self.incremental_verify = incremental_verify
        self.lineage = lineage
        #: Plans served from the memo (a statistic: reports running
        #: concurrently on one shared reporter may undercount it).
        self.plan_cache_hits = 0
        self.session = Session(backend)

    # -- planning -----------------------------------------------------------

    def plan_for(self, sql: str) -> RelevancePlan:
        """Parse + resolve + plan (the plan memoised when ``plan_cache_size``
        is positive)."""
        tel = obs.resolve(self.telemetry)
        resolved = resolve_cached(sql, self.backend.catalog, tel)
        if self.plan_cache_size <= 0:
            return build_relevance_plan(resolved, use_constraints=self.use_constraints)
        plan, hit = memoized_relevance_plan(resolved, use_constraints=self.use_constraints)
        if hit:
            self.plan_cache_hits += 1
            if tel.enabled:
                tel.count(obs.PLAN_CACHE_HITS)
        return plan

    # -- reporting ------------------------------------------------------------

    def report(
        self,
        sql: str,
        method: str = "focused",
        plan: Optional[RelevancePlan] = None,
    ) -> RecencyReport:
        """Run ``sql`` and produce its recency and consistency report.

        ``method="focused_hardcoded"`` requires ``plan`` (obtain one via
        :meth:`plan_for`); the other methods ignore it.
        """
        if method not in _METHODS:
            raise TracError(f"unknown method {method!r}; expected one of {_METHODS}")

        tel = obs.resolve(self.telemetry)
        with PhaseTimer(tel, SPAN_REPORT, method=method, sql=sql) as root:
            parse_phase = PhaseTimer(tel, SPAN_PARSE)
            if method == "focused":
                with parse_phase:
                    plan = self.plan_for(sql)
            elif method == "focused_hardcoded":
                if plan is None:
                    raise TracError("focused_hardcoded requires a pre-built plan")
            else:  # naive
                plan = build_naive_plan()

            # Read before the snapshot: a source is unreported or in its Heartbeat.
            unreported = self.sources.unreported() if self.sources is not None else []
            with self.backend.snapshot() as snapshot:
                with PhaseTimer(tel, SPAN_USER) as user_phase:
                    result = snapshot.execute(sql, lineage=self.lineage)
                    user_phase.set_attribute("rows", len(result.rows))

                with PhaseTimer(tel, SPAN_RECENCY) as recency_phase:
                    sources, verdict = self._fetch(snapshot, plan)
                    if unreported:
                        heard = set(self._relevant_sources(snapshot, build_naive_plan())[0])
                        unreported = [sid for sid in unreported if sid not in heard]
                    recency_phase.set_attribute("relevant", len(sources[0]))
                    if verdict is not None:
                        recency_phase.set_attribute("incremental", verdict)

                with PhaseTimer(tel, SPAN_STATS) as stats_phase:
                    report = RecencyReport(
                        sql, method, plan, sources, self.z_threshold, result
                    )
                    if self.create_temp_tables:
                        report.temp_tables = self.session.next_table_names()
                        split = report.split
                        self.session.materialize(
                            snapshot, report.temp_tables,
                            (split.normal_ids, split.normal_recencies),
                            (split.exceptional_ids, split.exceptional_recencies),
                        )

        report.incremental, report.unreported_sources = verdict, unreported
        report.timings = ReportTimings(
            parse_phase.duration,
            user_phase.duration,
            recency_phase.duration,
            stats_phase.duration,
            root.duration,
        )
        self._annotate(report, sources)
        if tel.enabled:
            report.telemetry = root.span
            self._observe(tel, report, stats_phase.span)
        return report

    def _fetch(self, snapshot: Snapshot, plan: RelevancePlan):
        """The fetch stage: ``(relevant sources, incremental verdict)``, read
        from the snapshot through the maintainer's members when it has an
        entry, else computed from scratch in it (the verdict is ``None``
        without a maintainer)."""
        if self.incremental is None:
            return self._relevant_sources(snapshot, plan), None
        verdict, sources = self.incremental.fetch(plan, snapshot)
        if verdict == "hit":
            if self.incremental_verify:
                self._verify_incremental(snapshot, plan, sources)
            return sources, verdict
        sources = self._relevant_sources(snapshot, plan)
        if verdict == "miss":
            self.incremental.register(plan, sources[0], snapshot)
        return sources, verdict

    def _annotate(self, report: RecencyReport, sources: Columns) -> None:
        """The annotate stage: known outages, SLO standing, row quality."""
        registry = self.sources
        if registry is not None:
            report.degraded_sources, report.slo_status = registry.verdict()
        lineage = getattr(report.result, "lineage", None)
        if self.lineage and lineage is not None:
            model = QualityModel(registry.half_life) if registry is not None else QualityModel()
            scores = model.score_sources(
                *sources,
                exceptional=set(report.split.exceptional_ids),
                degraded=set(report.degraded_sources),
            )
            report.provenance, report.row_quality = model.summarize(lineage, scores)

    def _observe(self, tel, report: RecencyReport, stats_span) -> None:
        """The observe stage: everything telemetry learns from one finished
        report (only reached with telemetry enabled)."""
        sql, method, root_span = report.sql, report.method, report.telemetry
        trace_id = root_span.trace_id_hex
        seconds = report.timings.total
        # The user query's result carries the profile its execution recorded
        # (under this report's trace when the backend shares our telemetry).
        profile = report.result.profile
        if profile is not None and profile.trace_id == trace_id:
            report.profile = profile
            profile.incremental = report.incremental
        split = report.split
        for source_id, recency in zip(split.exceptional_ids, split.exceptional_recencies):
            tel.emit(
                EVT_REPORT_EXCEPTIONAL,
                source=source_id,
                severity="warning",
                span=stats_span,
                recency=recency,
                threshold=split.threshold,
            )
        tel.count(obs.REPORTS, method=method)
        tel.observe(obs.REPORT_SECONDS, seconds, trace_id=trace_id, method=method)
        provenance = report.provenance
        quality = provenance["quality"] if provenance is not None else None
        if quality is not None:
            for score in report.row_quality:
                if score is not None:
                    tel.observe(obs.ROW_QUALITY, score, method=method)
            from_exceptional = quality["rows_from_exceptional"]
            if from_exceptional > 0:
                tel.count(obs.ROWS_FROM_EXCEPTIONAL, from_exceptional, method=method)
            tel.provenance.record(ProvenanceRecord(sql, trace_id, method, provenance))
        threshold = slow_query_threshold()
        if threshold > 0 and seconds >= threshold:
            tel.count(obs.SLOW_QUERIES, method=method)
            # A slow dump should answer "was the answer trustworthy?"
            # without a second query, so attach the quality rollup.
            slow_attrs: Dict[str, object] = {}
            if quality is not None:
                slow_attrs["worst_row_quality"] = quality["worst_row_quality"]
                # The three sources most rows cite, ties by id.
                counts = quality["per_source_rows"]
                ranked = sorted(counts, key=lambda sid: (-counts[sid], sid))[:3]
                slow_attrs["top_sources"] = [[sid, counts[sid]] for sid in ranked]
            # Correlate with the (already finished) root span so the
            # flight recorder's dump carries the whole span tree.
            tel.emit(
                EVT_QUERY_SLOW,
                severity="warning",
                span=root_span,
                sql=sql,
                method=method,
                seconds=seconds,
                threshold=threshold,
                **slow_attrs,
            )

    def run_plain(self, sql: str) -> QueryResult:
        """Run a user query with no recency reporting (the baseline
        ``t1(Q)`` of the overhead metric)."""
        with self.backend.snapshot() as snapshot:
            return snapshot.execute(sql)

    # -- internals ----------------------------------------------------------------

    def _relevant_sources(self, snapshot: Snapshot, plan: RelevancePlan) -> Columns:
        """From-scratch fetch: the merge of the one local fragment (the sole
        holder of the data, so failed guards may short-circuit)."""
        request = fragment_request(plan)
        fragment = execute_fragment(snapshot, request, True, plan.statements)
        return merge_fragments(request, [fragment])

    def _verify_incremental(self, snapshot: Snapshot, plan: RelevancePlan, maintained: Columns):
        """Differential oracle: the hit's sources must equal the
        from-scratch computation in the same snapshot, byte for byte."""
        oracle = self._relevant_sources(snapshot, plan)
        if oracle != maintained:
            raise TracError(
                "incremental maintenance diverged from the from-scratch "
                f"oracle: maintained {maintained!r} != oracle {oracle!r}"
            )

    def close(self) -> None:
        """End the reporter's session (drops its temp tables)."""
        self.session.close()

    def __enter__(self) -> "RecencyReporter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
