"""Workload generator / queries / sweep tests."""

import sys
from collections import Counter

import pytest

from repro import MemoryBackend, SQLiteBackend
from repro.catalog import domains
from repro.core.relevance import build_relevance_plan
from repro.sqlparser import parse_query
from repro.sqlparser.resolver import resolve
from repro.core.report import RecencyReporter
from repro.errors import TracError
from repro.workload import loaded_backend
from repro.workload.generator import (
    WorkloadConfig,
    generate_workload,
    load_workload,
    source_name,
    workload_catalog,
)
from repro.workload.queries import (
    PAPER_MACHINE_INDEXES,
    paper_queries,
    q1_selective_single,
    q2_nonselective_single,
    q3_selective_join,
    q4_nonselective_join,
    query_machine_indexes,
    query_machines,
)
from repro.workload.sweep import SweepConfig, sweep_points


class TestSourceNames:
    def test_names(self):
        assert source_name(1) == "Tao1"
        assert source_name(100000) == "Tao100000"

    def test_one_based(self):
        with pytest.raises(TracError):
            source_name(0)


class TestWorkloadConfig:
    def test_total_rows(self):
        assert WorkloadConfig(num_sources=100, data_ratio=10).total_rows == 1000

    def test_validation(self):
        with pytest.raises(TracError):
            WorkloadConfig(num_sources=0, data_ratio=10)


class TestGeneration:
    def test_activity_row_count(self):
        data = generate_workload(WorkloadConfig(num_sources=20, data_ratio=5))
        assert len(data.activity) == 100

    def test_rows_per_source_exact(self):
        data = generate_workload(WorkloadConfig(num_sources=10, data_ratio=7))
        from collections import Counter

        counts = Counter(row[0] for row in data.activity)
        assert all(count == 7 for count in counts.values())
        assert len(counts) == 10

    def test_idle_fraction(self):
        data = generate_workload(
            WorkloadConfig(num_sources=10, data_ratio=10, idle_fraction=0.3)
        )
        idle = sum(1 for row in data.activity if row[1] == "idle")
        assert idle == 30

    def test_heartbeat_per_source(self):
        data = generate_workload(WorkloadConfig(num_sources=15, data_ratio=2))
        assert len(data.heartbeat) == 15
        assert len({sid for sid, _ in data.heartbeat}) == 15

    def test_exceptional_sources_far_behind(self):
        config = WorkloadConfig(num_sources=10, data_ratio=2, exceptional_sources=(1, 2))
        data = generate_workload(config)
        by_source = dict(data.heartbeat)
        assert by_source["Tao1"] < config.base_time
        assert by_source["Tao3"] > config.base_time

    def test_routing_one_row_per_source(self):
        data = generate_workload(WorkloadConfig(num_sources=12, data_ratio=2))
        assert len(data.routing) == 12

    def test_routing_maps_query_set_onto_itself(self):
        """The paper's fpr assumption: Routing maps the queried machines
        onto themselves."""
        config = WorkloadConfig(num_sources=200, data_ratio=2)
        indexes = query_machine_indexes(200)
        data = generate_workload(config, indexes)
        query_set = {source_name(i) for i in indexes}
        neighbor_of = {m: n for m, n, _ in data.routing}
        for machine in query_set:
            assert neighbor_of[machine] in query_set

    def test_deterministic_by_seed(self):
        a = generate_workload(WorkloadConfig(num_sources=10, data_ratio=5, seed=4))
        b = generate_workload(WorkloadConfig(num_sources=10, data_ratio=5, seed=4))
        assert a.activity == b.activity

    def test_seed_changes_shuffle(self):
        a = generate_workload(WorkloadConfig(num_sources=10, data_ratio=5, seed=1))
        b = generate_workload(WorkloadConfig(num_sources=10, data_ratio=5, seed=2))
        assert a.activity != b.activity
        assert sorted(a.activity) == sorted(b.activity)


class TestLoading:
    @pytest.mark.parametrize("backend_cls", [MemoryBackend, SQLiteBackend])
    def test_load_into_backend(self, backend_cls):
        config = WorkloadConfig(num_sources=10, data_ratio=3)
        data = generate_workload(config)
        backend = backend_cls(workload_catalog(10))
        load_workload(backend, data)
        assert backend.row_count("activity") == 30
        assert backend.row_count("routing") == 10
        assert backend.row_count("heartbeat") == 10

    def test_load_clears_previous_contents(self):
        config = WorkloadConfig(num_sources=5, data_ratio=2)
        data = generate_workload(config)
        backend = MemoryBackend(workload_catalog(5))
        load_workload(backend, data)
        load_workload(backend, data)
        assert backend.row_count("activity") == 10


class TestQueries:
    def test_paper_indexes_at_full_scale(self):
        assert query_machine_indexes(100000) == list(PAPER_MACHINE_INDEXES)

    def test_clamped_and_topped_up_at_small_scale(self):
        indexes = query_machine_indexes(50)
        assert len(indexes) == 6
        assert all(i <= 50 for i in indexes)
        assert len(set(indexes)) == 6

    def test_tiny_scale(self):
        indexes = query_machine_indexes(4)
        assert indexes == [1, 2, 3, 4]

    def test_query_text_shapes(self):
        machines = query_machines(1000)
        q1 = q1_selective_single(machines)
        q2 = q2_nonselective_single(machines)
        q3 = q3_selective_join(machines)
        q4 = q4_nonselective_join(machines)
        assert "IN (" in q1 and "NOT IN" not in q1
        assert "NOT IN (" in q2
        assert "routing" in q3 and "IN (" in q3
        assert "routing" in q4 and "NOT IN (" in q4

    def test_paper_queries_dictionary(self):
        queries = paper_queries(100)
        assert set(queries) == {"Q1", "Q2", "Q3", "Q4"}

    def test_queries_are_parseable_and_runnable(self):
        config = WorkloadConfig(num_sources=30, data_ratio=4)
        data = generate_workload(config, query_machine_indexes(30))
        backend = MemoryBackend(workload_catalog(30))
        load_workload(backend, data)
        for name, sql in paper_queries(30).items():
            result = backend.execute(sql)
            assert result.scalar() >= 0, name

    def test_q1_counts_idle_rows_of_named_machines(self):
        config = WorkloadConfig(num_sources=30, data_ratio=10, idle_fraction=0.5)
        data = generate_workload(config, query_machine_indexes(30))
        backend = MemoryBackend(workload_catalog(30))
        load_workload(backend, data)
        q1 = paper_queries(30)["Q1"]
        # 6 machines x 5 idle rows each.
        assert backend.execute(q1).scalar() == 30


class TestLoadedBackend:
    def test_backends_agree_on_the_paper_queries(self):
        """The same workload behind SQLite and the pure-Python engine: same
        rows, same relevant sources, six of them for the selective queries."""
        config = WorkloadConfig(num_sources=200, data_ratio=10)
        memory = RecencyReporter(loaded_backend(config, MemoryBackend))
        sqlite = RecencyReporter(loaded_backend(config, SQLiteBackend))
        try:
            for name, sql in paper_queries(200).items():
                mem, sq = memory.report(sql), sqlite.report(sql)
                assert mem.relevant_source_ids == sq.relevant_source_ids, name
                assert mem.result.rows == sq.result.rows, name
                if name in ("Q1", "Q3"):
                    assert len(mem.relevant_source_ids) == 6, name
        finally:
            sqlite.backend.close()

    def test_routing_maps_the_query_machines_onto_themselves(self):
        backend = loaded_backend(WorkloadConfig(num_sources=30, data_ratio=2), MemoryBackend)
        machines = set(query_machines(30))
        routed = {
            neighbor
            for mach_id, neighbor, _ in backend.execute("SELECT * FROM routing").rows
            if mach_id in machines
        }
        assert routed == machines


class TestSweep:
    def test_product_invariant(self):
        for config in sweep_points(SweepConfig(total_rows=100_000)):
            assert config.num_sources * config.data_ratio == 100_000

    def test_ratios_grow_by_factor(self):
        ratios = [c.data_ratio for c in sweep_points(SweepConfig(total_rows=100_000))]
        assert ratios == [10, 100, 1000, 10000]

    def test_min_sources_respected(self):
        points = sweep_points(SweepConfig(total_rows=100_000, min_sources=50))
        assert all(c.num_sources >= 50 for c in points)

    def test_too_small_total_rejected(self):
        with pytest.raises(TracError):
            SweepConfig(total_rows=50)

    def test_exceptional_fraction(self):
        points = sweep_points(
            SweepConfig(total_rows=10_000, exceptional_fraction=0.1)
        )
        first = points[0]
        assert len(first.exceptional_sources) == first.num_sources // 10


class TestSkew:
    def test_zero_skew_is_uniform(self):
        config = WorkloadConfig(num_sources=10, data_ratio=7)
        assert config.rows_per_source() == [7] * 10

    def test_skew_preserves_total(self):
        config = WorkloadConfig(num_sources=50, data_ratio=20, skew=1.0)
        counts = config.rows_per_source()
        assert sum(counts) == config.total_rows
        assert len(counts) == 50

    def test_skew_concentrates_on_low_indexes(self):
        config = WorkloadConfig(num_sources=50, data_ratio=20, skew=1.0)
        counts = config.rows_per_source()
        assert counts[0] > counts[-1]
        assert counts == sorted(counts, reverse=True) or counts[0] >= max(counts[1:])

    def test_every_source_keeps_a_row(self):
        config = WorkloadConfig(num_sources=100, data_ratio=2, skew=2.0)
        assert min(config.rows_per_source()) >= 1

    def test_negative_skew_rejected(self):
        with pytest.raises(TracError):
            WorkloadConfig(num_sources=5, data_ratio=2, skew=-0.5)

    def test_skewed_workload_generates(self):
        config = WorkloadConfig(num_sources=20, data_ratio=10, skew=1.5)
        data = generate_workload(config)
        assert len(data.activity) == config.total_rows
        from collections import Counter

        counts = Counter(row[0] for row in data.activity)
        assert counts["Tao1"] > counts[f"Tao20"]

    def test_skewed_workload_loads_and_queries(self):
        config = WorkloadConfig(num_sources=30, data_ratio=10, skew=1.0)
        data = generate_workload(config, query_machine_indexes(30))
        backend = MemoryBackend(workload_catalog(30))
        load_workload(backend, data)
        reporter = RecencyReporter(backend, create_temp_tables=False)
        # Insensitive to skew: the recency query touches Heartbeat, not Activity.
        assert len(reporter.report(paper_queries(30)["Q1"]).relevant_source_ids) == 6
        assert len(reporter.report(paper_queries(30)["Q2"]).relevant_source_ids) == 30 - 6


class TestPlanningCost:
    def test_planning_is_not_linear_in_the_source_domain(self, monkeypatch):
        """By counts, not time: at 20,000 sources no plan enumerates a domain
        whose cross product is over ``EXACT_LIMIT``, and repeated plans sort
        a given ``FiniteDomain`` at most once."""
        enumerated_from = Counter()
        sorts = Counter()
        iter_values = domains.FiniteDomain.iter_values

        def spying_iter_values(self):
            enumerated_from[sys._getframe(1).f_code.co_name] += 1
            return iter_values(self)

        def counting_sorted(values, **kwargs):
            sorts[id(values)] += 1
            return sorted(values, **kwargs)

        monkeypatch.setattr(domains.FiniteDomain, "iter_values", spying_iter_values)
        monkeypatch.setattr(domains, "sorted", counting_sorted, raising=False)

        catalog = workload_catalog(20_000)
        for _ in range(3):
            for sql in paper_queries(20_000).values():
                plan = build_relevance_plan(resolve(parse_query(sql), catalog))
                assert plan.mode == "focused"
        # Q3 / Q4 relate two columns (R.neighbor = A.mach_id), which sends the
        # conjunct to the exact check: 20,000^3 x 2 assignments, never tried.
        assert enumerated_from["_exact_check"] == 0
        # Q2 / Q4's NOT IN does walk the machine domain for a witness.
        assert enumerated_from["check"] > 0
        assert max(sorts.values()) == 1
