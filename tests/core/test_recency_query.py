"""Unit tests for recency-subquery construction (rewrites, connected
components, guards) — the machinery behind Theorems 3/4's SQL."""

from repro.core.recency_query import (
    ALL_SOURCES_QUERY,
    ALL_SOURCES_SQL,
    HEARTBEAT_ALIAS,
    build_subquery,
    execute_fragment,
    fragment_request,
    heartbeat_alias_for,
    merge_fragments,
    rewrite_term,
)
from repro.predicates.dnf import basic_terms_of
from repro.sqlparser.parser import parse_query
from repro.sqlparser.printer import expr_to_sql, to_sql
from repro.sqlparser.resolver import resolve


def resolved_q2(paper_catalog):
    return resolve(
        parse_query(
            "SELECT A.mach_id FROM routing R, activity A "
            "WHERE R.mach_id = 'm1' AND A.value = 'idle' "
            "AND R.neighbor = A.mach_id"
        ),
        paper_catalog,
    )


class TestHeartbeatAlias:
    def test_default_alias(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        assert heartbeat_alias_for(resolved) == HEARTBEAT_ALIAS

    def test_alias_collision_avoided(self, paper_catalog):
        resolved = resolve(
            parse_query("SELECT trac_h.mach_id FROM activity trac_h"), paper_catalog
        )
        alias = heartbeat_alias_for(resolved)
        assert alias != "trac_h"
        assert alias.startswith("trac_h")


class TestRewriteTerm:
    def test_source_ref_redirected_to_heartbeat(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[0]  # R.mach_id = 'm1'
        rewritten = rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(rewritten) == "trac_h.source_id = 'm1'"

    def test_other_relations_requalified(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[1]  # A.value = 'idle'
        rewritten = rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(rewritten) == "a.value = 'idle'"

    def test_join_term_via_each_side(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        join_term = basic_terms_of(resolved.query.where)[2]  # R.neighbor = A.mach_id
        via_a = rewrite_term(join_term, "a", "trac_h")
        assert expr_to_sql(via_a) == "r.neighbor = trac_h.source_id"
        via_r = rewrite_term(join_term, "r", "trac_h")
        # R.neighbor is a regular column: not redirected via R.
        assert expr_to_sql(via_r) == "r.neighbor = a.mach_id"

    def test_original_tree_untouched(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        term = basic_terms_of(resolved.query.where)[0]
        before = expr_to_sql(term)
        rewrite_term(term, "r", "trac_h")
        assert expr_to_sql(term) == before

    def test_all_node_types_rewritable(self, paper_catalog):
        resolved = resolve(
            parse_query(
                "SELECT mach_id FROM activity WHERE mach_id IN ('m1') "
                "AND mach_id BETWEEN 'a' AND 'z' AND mach_id LIKE 'm%' "
                "AND mach_id IS NOT NULL AND NOT (mach_id = 'm9' OR mach_id < 'a')"
            ),
            paper_catalog,
        )
        rewritten = rewrite_term(resolved.query.where, "activity", "trac_h")
        text = expr_to_sql(rewritten)
        assert "mach_id" not in text
        assert text.count("trac_h.source_id") >= 5


class TestBuildSubquery:
    def test_single_relation_shape(self, paper_catalog):
        resolved = resolve(
            parse_query("SELECT mach_id FROM activity WHERE mach_id = 'm1'"),
            paper_catalog,
        )
        binding = resolved.bindings[0]
        terms = basic_terms_of(resolved.query.where)
        query, guards = build_subquery(resolved, binding, terms, "trac_h")
        assert to_sql(query) == (
            "SELECT trac_h.source_id, trac_h.recency FROM heartbeat trac_h "
            "WHERE trac_h.source_id = 'm1'"
        )
        assert guards == []

    def test_connected_relation_joins_in(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        binding = resolved.binding("a")
        terms = basic_terms_of(resolved.query.where)
        # Via A: keep Ps(a)=none, Js = join, Po = R.mach_id='m1'.
        retained = [terms[0], terms[2]]
        query, guards = build_subquery(resolved, binding, retained, "trac_h")
        sql = to_sql(query)
        assert "routing r" in sql
        assert "DISTINCT" in sql  # joins can duplicate
        assert guards == []

    def test_unconnected_component_becomes_guard(self, paper_catalog):
        resolved = resolved_q2(paper_catalog)
        binding = resolved.binding("r")
        terms = basic_terms_of(resolved.query.where)
        retained = [terms[0], terms[1]]  # Ps(r) + Po(a); Jrm dropped
        query, guards = build_subquery(resolved, binding, retained, "trac_h")
        sql = to_sql(query)
        assert "activity" not in sql  # factored out
        assert [to_sql(guard) for guard in guards] == ["SELECT 1 FROM activity a WHERE a.value = 'idle' LIMIT 1"]

    def test_unreferenced_relation_bare_guard(self, paper_catalog):
        resolved = resolve(
            parse_query(
                "SELECT A.mach_id FROM activity A, routing R WHERE A.mach_id = 'm1'"
            ),
            paper_catalog,
        )
        query, guards = build_subquery(
            resolved,
            resolved.binding("a"),
            basic_terms_of(resolved.query.where),
            "trac_h",
        )
        assert [to_sql(guard) for guard in guards] == ["SELECT 1 FROM routing r LIMIT 1"]

    def test_no_terms_all_sources(self, paper_catalog):
        resolved = resolve(parse_query("SELECT mach_id FROM activity"), paper_catalog)
        query, guards = build_subquery(resolved, resolved.bindings[0], [], "trac_h")
        assert to_sql(query) == (
            "SELECT trac_h.source_id, trac_h.recency FROM heartbeat trac_h"
        )
        assert guards == []

    def test_three_relation_components(self, paper_catalog):
        from repro.catalog import Column, FiniteDomain, TableSchema

        paper_catalog.add(
            TableSchema(
                "load",
                [
                    Column("mach_id", "TEXT", FiniteDomain({"m1"})),
                    Column("cpu", "REAL"),
                ],
                source_column="mach_id",
            )
        )
        resolved = resolve(
            parse_query(
                "SELECT A.mach_id FROM activity A, routing R, load L "
                "WHERE R.neighbor = A.mach_id AND L.cpu > 0.5"
            ),
            paper_catalog,
        )
        # Via A: Js links heartbeat<->routing; load's predicate is its own
        # component -> a guard.
        terms = basic_terms_of(resolved.query.where)
        query, guards = build_subquery(resolved, resolved.binding("a"), terms, "trac_h")
        sql = to_sql(query)
        assert "routing r" in sql
        assert "load" not in sql
        assert [to_sql(guard) for guard in guards] == ["SELECT 1 FROM load l WHERE l.cpu > 0.5 LIMIT 1"]


class TestAllSourcesQuery:
    def test_shape(self):
        assert to_sql(ALL_SOURCES_QUERY) == ALL_SOURCES_SQL == (
            "SELECT source_id, recency FROM heartbeat"
        )


class TestSingleFragmentLaw:
    """k = 1: the merge of one locally executed fragment is the relevant-
    source set the reporter computed before fetch became fragment + merge.
    ``reference`` below is that earlier loop, kept verbatim as the oracle."""

    QUERIES = [
        # One subquery per relation; via R carries a guard over A.
        "SELECT A.mach_id FROM routing R, activity A WHERE R.mach_id = 'm1' "
        "AND A.value = 'idle' AND R.neighbor = A.mach_id",
        # The same shape with a guard no row satisfies.
        "SELECT A.mach_id FROM routing R, activity A WHERE R.mach_id = 'm1' "
        "AND A.event_time < 0 AND R.neighbor = A.mach_id",
        # A disjunction: two conjuncts, guards true in one and false in the other.
        "SELECT R.mach_id FROM routing R, activity A WHERE "
        "(R.mach_id = 'm1' AND A.value = 'busy') OR (R.mach_id = 'm2' AND A.event_time < 0)",
        "SELECT mach_id FROM activity WHERE mach_id IN ('m2', 'm3')",
        "SELECT * FROM activity",
    ]

    @staticmethod
    def reference(snapshot, plan):
        """The relevant-source columns ``(ids, recencies)``."""
        if plan.mode == "empty":
            return [], []
        if plan.mode == "all":
            rows = snapshot.execute(ALL_SOURCES_SQL).rows
            return [str(sid) for sid, _ in rows], [float(rec) for _, rec in rows]
        found, guard_cache = {}, {}
        for sub in plan.subqueries:
            skip = False
            for guard in sub.guards:
                if guard not in guard_cache:
                    guard_cache[guard] = bool(snapshot.execute(guard).rows)
                if not guard_cache[guard]:
                    skip = True
                    break
            if skip:
                continue
            for sid, recency in snapshot.execute(sub.sql).rows:
                if sid is not None:
                    found[str(sid)] = float(recency)
        ids = sorted(found)
        return ids, [found[sid] for sid in ids]

    def test_one_local_fragment_merges_to_the_reference(self, paper_backend):
        from repro.core.relevance import build_naive_plan
        from repro.core.report import RecencyReporter

        reporter = RecencyReporter(paper_backend, create_temp_tables=False)
        plans = [reporter.plan_for(sql) for sql in self.QUERIES] + [build_naive_plan()]
        verdicts = set()
        with paper_backend.snapshot() as snapshot:
            for plan in plans:
                request = fragment_request(plan)
                fragment = execute_fragment(snapshot, request, short_circuit=True)
                verdicts.update(fragment["guards"].values())
                expected = self.reference(snapshot, plan)
                assert merge_fragments(request, [fragment]) == expected
                assert reporter._relevant_sources(snapshot, plan) == expected
                # Short-circuiting only skips work whose result the merge drops.
                full = execute_fragment(snapshot, request)
                assert merge_fragments(request, [full]) == expected
        assert verdicts == {True, False}, "the cases must exercise both guard outcomes"
        assert {plan.mode for plan in plans} >= {"focused", "all"}


class TestMergeNormalizes:
    """A fragment carries the engine's rows; ``merge_fragments`` is the one
    place a pair becomes ``(str, float)``, however the fragment arrived."""

    @staticmethod
    def plans(backend):
        from repro.core.relevance import build_naive_plan
        from repro.core.report import RecencyReporter

        reporter = RecencyReporter(backend)
        return [reporter.plan_for(sql) for sql in TestSingleFragmentLaw.QUERIES] + [
            build_naive_plan()
        ]

    def test_a_fragment_through_the_wire_merges_like_the_local_one(self, paper_backend):
        from repro.federation.rpc import FrameDecoder, encode_frame

        for plan in self.plans(paper_backend):
            request = fragment_request(plan)
            with paper_backend.snapshot() as snapshot:
                local = execute_fragment(snapshot, request)
            (wired,) = FrameDecoder().feed(encode_frame(local))
            merged = merge_fragments(request, [wired])
            assert merged == merge_fragments(request, [local])
            ids, recencies = merged
            assert all(type(sid) is str for sid in ids)
            assert all(type(recency) is float for recency in recencies)

    def test_raw_heartbeat_rows_merge_to_str_and_float(self, paper_catalog):
        """Rows loaded around ``upsert_heartbeat``: an int recency, an int id."""
        from repro import MemoryBackend

        backend = MemoryBackend(paper_catalog)
        backend.insert_rows("heartbeat", [("m1", 7), (5, 7.5)])
        for plan in self.plans(backend)[-2:]:  # a heartbeat scan, focused and naive
            request = fragment_request(plan)
            with backend.snapshot() as snapshot:
                merged = merge_fragments(request, [execute_fragment(snapshot, request)])
            pairs = set(zip(*merged))
            assert pairs == {("m1", 7.0), ("5", 7.5)}
            assert {(type(sid), type(rec)) for sid, rec in pairs} == {(str, float)}


class TestMergeColumns:
    """``merge_fragments`` answers with two columns, ``(ids, recencies)``."""

    FRAGMENTS = [
        {"results": [[("m3", 3), ("m1", 1.0)]], "guards": {}},
        {"results": [[("m2", 2.5), ("m1", 4.0)]], "guards": {}},
    ]

    def test_focused_sorts_by_id_and_a_later_row_wins(self):
        request = {"mode": "focused", "subqueries": [{"sql": "q", "guards": []}]}
        merged = merge_fragments(request, self.FRAGMENTS)
        assert merged == (["m1", "m2", "m3"], [4.0, 2.5, 3.0])

    def test_all_keeps_the_scan_order_fragment_by_fragment(self):
        merged = merge_fragments({"mode": "all"}, self.FRAGMENTS)
        assert merged == (["m3", "m1", "m2"], [3.0, 4.0, 2.5])
        assert type(merged[1][0]) is float

    def test_empty_is_two_empty_columns(self):
        assert merge_fragments({"mode": "empty"}, self.FRAGMENTS) == ([], [])
        assert merge_fragments({"mode": "all"}, []) == ([], [])


class TestGuardCost:
    """What a guard costs, as rows read (the scans of its profile), not as
    time: it stops at its first witness on the memory engine as on SQLite."""

    ROWS = 5000
    SQL = (
        "SELECT A.mach_id FROM routing R, activity A WHERE R.mach_id = 'm1' "
        "AND A.value = 'idle' AND R.neighbor = A.mach_id"
    )
    GUARD = "SELECT 1 FROM activity a WHERE a.value = 'idle' LIMIT 1"

    @staticmethod
    def backend(paper_catalog, idle_at=()):
        from repro import MemoryBackend
        from repro.obs.instrument import Telemetry

        backend = MemoryBackend(paper_catalog, telemetry=Telemetry())
        backend.insert_rows(
            "activity",
            [
                (f"m{i % 11 + 1}", "idle" if i + 1 in idle_at else "busy", float(i))
                for i in range(TestGuardCost.ROWS)
            ],
        )
        backend.insert_rows("routing", [("m1", "m3", 0.0), ("m2", "m3", 0.0)])
        for i in range(1, 12):
            backend.upsert_heartbeat(f"m{i}", 100.0 + i)
        return backend

    @staticmethod
    def fragment(backend, sql, short_circuit):
        """(request, fragment, {sql: base-table rows its scans read})."""
        from repro.core.report import RecencyReporter

        request = fragment_request(
            RecencyReporter(backend, create_temp_tables=False).plan_for(sql)
        )
        seen = len(backend.telemetry.profiles.snapshot())
        with backend.snapshot() as snapshot:
            fragment = execute_fragment(snapshot, request, short_circuit=short_circuit)
        read = {
            profile.sql: sum(op.rows_in for op in profile.operators if op.op == "scan")
            for profile in backend.telemetry.profiles.snapshot()[seen:]
        }
        return request, fragment, read

    def test_guard_reads_exactly_up_to_its_first_witness(self, paper_catalog):
        for first in (1, 2500, 5000):
            backend = self.backend(paper_catalog, idle_at=(first, 5000))
            request, fragment, read = self.fragment(backend, self.SQL, short_circuit=True)
            assert read[self.GUARD] == first
            assert fragment["guards"] == {self.GUARD: True}
            # Every subquery ran, and none of them touches Activity.
            assert set(read) == {self.GUARD} | {sub["sql"] for sub in request["subqueries"]}
            assert sum(read.values()) - first <= 2 * 11 + 2
            assert merge_fragments(request, [fragment])[0] == ["m1", "m3"]

    def test_no_witness_reads_everything_and_only_the_sole_holder_may_skip(self, paper_catalog):
        backend = self.backend(paper_catalog)
        request, local, read = self.fragment(backend, self.SQL, short_circuit=True)
        guarded = [sub["sql"] for sub in request["subqueries"] if sub["guards"]]
        assert len(guarded) == 1
        assert read[self.GUARD] == self.ROWS
        assert local["guards"] == {self.GUARD: False}
        assert guarded[0] not in read, "the sole holder skips a subquery whose guard failed"
        # One of several holders cannot decide the guard alone: it answers.
        _, shard, read = self.fragment(backend, self.SQL, short_circuit=False)
        assert shard["guards"] == {self.GUARD: False} and guarded[0] in read
        at = [sub["sql"] for sub in request["subqueries"]].index(guarded[0])
        assert shard["results"][at] and not local["results"][at]
        assert merge_fragments(request, [local]) == merge_fragments(request, [shard])

    def test_two_relation_guard_stops_at_its_first_joined_witness(self, paper_catalog):
        """The plan of ``test_three_relation_components``, seen via ``load``:
        Activity and Routing, linked by the join term, form one guard."""
        from repro.catalog import Column, FiniteDomain, TableSchema
        from repro.core.report import RecencyReporter

        paper_catalog.add(
            TableSchema(
                "load",
                [Column("mach_id", "TEXT", FiniteDomain({"m1"})), Column("cpu", "REAL")],
                source_column="mach_id",
            )
        )
        backend = self.backend(paper_catalog, idle_at=(1,))
        backend.insert_rows("load", [("m1", 0.9)])
        plan = RecencyReporter(backend, create_temp_tables=False).plan_for(
            "SELECT A.mach_id FROM activity A, routing R, load L "
            "WHERE R.neighbor = A.mach_id AND L.cpu > 0.5"
        )
        guard = "SELECT 1 FROM activity a, routing r WHERE r.neighbor = a.mach_id LIMIT 1"
        assert guard in {g for sub in plan.subqueries for g in sub.guards}
        result = backend.execute(guard)
        ops = {op.op: op for op in result.profile.operators}
        assert result.rows == [(1,)]
        # 5,000 / 11 Activity rows join each Routing row; the guard needs one.
        assert (ops["project"].rows_in, ops["limit"].rows_in) == (1, 1)
        assert ops["join"].rows_out == 1
        assert ops["join"].detail.endswith("stopped at LIMIT 1")


class TestFragmentsAgreeAcrossBackends:
    """``execute_fragment`` for the paper's Q1-Q4 answers the same on the
    memory engine (``LIMIT`` as a row budget) and on SQLite — also when a
    guard has nothing to find."""

    @staticmethod
    def fragments(activity_of):
        from repro import MemoryBackend, SQLiteBackend
        from repro.core.report import RecencyReporter
        from repro.workload import (
            WorkloadConfig,
            generate_workload,
            load_workload,
            paper_queries,
            query_machine_indexes,
            workload_catalog,
        )

        sources = 40
        data = generate_workload(WorkloadConfig(sources, 5), query_machine_indexes(sources))
        data.activity = activity_of(data.activity)
        answers = []
        for factory in (MemoryBackend, SQLiteBackend):
            backend = factory(workload_catalog(sources))
            try:
                load_workload(backend, data)
                reporter = RecencyReporter(backend, create_temp_tables=False)
                for name, sql in sorted(paper_queries(sources).items()):
                    request = fragment_request(reporter.plan_for(sql))
                    for short_circuit in (True, False):
                        with backend.snapshot() as snapshot:
                            fragment = execute_fragment(snapshot, request, short_circuit)
                        fragment["results"] = [sorted(rows) for rows in fragment["results"]]
                        answers.append((factory.__name__, name, short_circuit, fragment))
            finally:
                backend.close()
        half = len(answers) // 2
        return answers[:half], answers[half:]

    def check(self, activity_of, verdicts):
        memory, sqlite = self.fragments(activity_of)
        assert [a[1:] for a in memory] == [a[1:] for a in sqlite]
        seen = {v for _, _, _, fragment in memory for v in fragment["guards"].values()}
        assert seen == verdicts

    def test_paper_data(self):
        self.check(lambda rows: rows, {True})

    def test_empty_activity(self):
        self.check(lambda rows: [], {False})

    def test_no_idle_row(self):
        self.check(lambda rows: [(m, "busy", t) for m, _v, t in rows], {False})
