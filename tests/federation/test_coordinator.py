"""The coordinator: fan-out discipline, completeness honesty, merge rules."""

import time

import pytest

from repro.core.breaker import CircuitBreaker
from repro.core.recency_query import merge_fragments
from repro.errors import TracError
from repro.federation import (
    FederationCoordinator,
    ShardInfo,
    ShardRegistry,
    ShardServer,
)
from repro.federation import coordinator as coordinator_mod
from repro.federation.rpc import RPCServer
from repro.grid.simulator import SimulationConfig, monitoring_catalog

SQL = "SELECT * FROM activity WHERE value = 'busy'"


@pytest.fixture
def pair():
    """Two live shards over disjoint id ranges, registered and settled."""
    shards = []
    for k in range(2):
        config = SimulationConfig(num_machines=2, seed=5, machine_id_start=k * 2 + 1)
        shard = ShardServer(f"s{k}", config)
        shard.server.start()
        with shard._lock:
            for _ in range(60):
                shard.sim.step()
        shards.append(shard)
    registry = ShardRegistry()
    for shard in shards:
        registry.register(shard.host, shard.port)
    try:
        yield shards, registry
    finally:
        for shard in shards:
            shard.close()


def make_coordinator(registry, **kwargs):
    defaults = dict(
        deadline=2.0, attempt_timeout=0.5, retries=1, hedge_delay=None,
        breaker_reset=0.5,
    )
    defaults.update(kwargs)
    return FederationCoordinator(registry, **defaults)


class TestHealthy:
    def test_complete_report_over_all_shards(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(registry)
        report = coordinator.report(SQL)
        assert report.shards_total == 2
        assert report.shards_ok == 2
        assert report.missing_shards == []
        assert report.stale_shards == {}
        assert report.complete
        assert report.relevant_source_ids == {"m1", "m2", "m3", "m4"}
        assert not any("Degraded federated" in n for n in report.notices())

    def test_naive_method_matches_focused_sources(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(registry)
        focused = coordinator.report(SQL)
        naive = coordinator.report(SQL, method="naive")
        assert focused.relevant_source_ids == naive.relevant_source_ids

    def test_replans_when_the_union_catalog_is_replaced(self, pair, monkeypatch):
        # Machine set unchanged, schema changed: the plan must follow the
        # catalog, not the SQL text (it used to be memoised per SQL).
        _, registry = pair
        union = monitoring_catalog(("m1", "m2"))  # m3 outside every domain
        monkeypatch.setattr(coordinator_mod, "monitoring_catalog", lambda machines: union)
        sql = "SELECT * FROM activity WHERE mach_id = 'm3'"
        coordinator = make_coordinator(registry)
        try:
            assert coordinator.report(sql).relevant_source_ids == set()
            union.replace(monitoring_catalog(registry.machines()).get("activity"))
            assert coordinator.report(sql).relevant_source_ids == {"m3"}
        finally:
            coordinator.close()

    def test_unknown_method_rejected(self, pair):
        _, registry = pair
        with pytest.raises(TracError, match="unknown method"):
            make_coordinator(registry).report(SQL, method="psychic")

    def test_to_dict_shape(self, pair):
        _, registry = pair
        doc = make_coordinator(registry).report(SQL).to_dict()
        for key in (
            "shards_total", "shards_ok", "missing_shards", "stale_shards",
            "complete", "relevant_sources", "normal", "exceptional", "notices",
            "bound_of_inconsistency",
        ):
            assert key in doc


class TestDeadShard:
    def test_dead_shard_is_named_within_deadline(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(registry, deadline=1.5, retries=1)
        shards[1].close()
        started = time.monotonic()
        report = coordinator.report(SQL)
        elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert report.missing_shards == ["s1"]
        assert report.shards_ok == 1
        assert not report.complete
        assert any("Degraded federated report" in n for n in report.notices())
        assert any("missing: s1" in n for n in report.notices())
        # The healthy shard's sources still report.
        assert report.relevant_source_ids == {"m1", "m2"}

    def test_breaker_opens_after_repeated_failures_then_recovers(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(
            registry, breaker_threshold=2, breaker_reset=0.2, retries=0,
        )
        victim = shards[1]
        victim.close()
        for _ in range(3):
            coordinator.report(SQL)
        breaker = coordinator._breaker("s1")
        assert breaker.state == CircuitBreaker.OPEN

        # Bring the shard back on the same port's replacement and re-register.
        config = SimulationConfig(num_machines=2, seed=5, machine_id_start=3)
        replacement = ShardServer("s1", config)
        replacement.server.start()
        with replacement._lock:
            for _ in range(60):
                replacement.sim.step()
        try:
            registry.register(replacement.host, replacement.port)
            time.sleep(0.25)  # past breaker_reset: the half-open probe fires
            report = coordinator.report(SQL)
            assert report.shards_ok == 2
            assert report.complete
            assert coordinator._breaker("s1").state == CircuitBreaker.CLOSED
        finally:
            replacement.close()

    def test_stale_fallback_serves_the_last_good_fragment(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(registry, stale_fallback=True, stale_max_age=60.0)
        warm = coordinator.report(SQL)
        assert warm.complete
        shards[1].close()
        report = coordinator.report(SQL)
        assert report.missing_shards == []
        assert list(report.stale_shards) == ["s1"]
        assert report.stale_shards["s1"] >= 0.0
        assert not report.complete  # stale is still not complete
        # The cached fragment keeps s1's sources in the union.
        assert report.relevant_source_ids == {"m1", "m2", "m3", "m4"}
        assert any("Stale cached fragment" in n for n in report.notices())

    @pytest.mark.parametrize(
        "warm_sql, then_sql, then_relevant",
        [
            # A wide cached fragment must not answer a narrower question
            # (its results are index-aligned to the wide request) ...
            ("SELECT * FROM activity", "SELECT * FROM activity WHERE mach_id = 'm1'", {"m1"}),
            # ... nor a narrow one silently drop sources under a "stale" label.
            ("SELECT * FROM activity WHERE mach_id = 'm1'", "SELECT * FROM activity", {"m1", "m2"}),
        ],
    )
    def test_stale_fallback_never_serves_another_querys_fragment(
        self, pair, warm_sql, then_sql, then_relevant
    ):
        shards, registry = pair
        coordinator = make_coordinator(registry, stale_fallback=True, stale_max_age=60.0)
        assert coordinator.report(warm_sql).complete
        shards[1].close()
        report = coordinator.report(then_sql)
        # s1 never answered *this* request, so it is missing, not stale.
        assert report.stale_shards == {}
        assert report.missing_shards == ["s1"]
        assert report.relevant_source_ids == then_relevant
        # The same question again is what the cache may stand in for.
        again = coordinator.report(warm_sql)
        assert list(again.stale_shards) == ["s1"]
        assert again.missing_shards == []

    def test_stale_fallback_respects_max_age(self, pair):
        shards, registry = pair
        coordinator = make_coordinator(
            registry, stale_fallback=True, stale_max_age=0.0
        )
        coordinator.report(SQL)
        shards[1].close()
        time.sleep(0.05)
        report = coordinator.report(SQL)
        assert report.missing_shards == ["s1"]
        assert report.stale_shards == {}


class TestEmptyAndEdge:
    def test_empty_registry_reports_trivially(self):
        coordinator = make_coordinator(ShardRegistry())
        with pytest.raises(TracError, match="no shards registered"):
            coordinator.report(SQL)

    def test_parameter_validation(self):
        registry = ShardRegistry()
        with pytest.raises(TracError):
            FederationCoordinator(registry, deadline=0.0)
        with pytest.raises(TracError):
            FederationCoordinator(registry, attempt_timeout=-1.0)
        with pytest.raises(TracError):
            FederationCoordinator(registry, retries=-1)

    @pytest.mark.parametrize(
        "setting",
        [{"breaker_threshold": 0}, {"breaker_reset": 0.0}, {"breaker_reset": -1.0}],
    )
    def test_breaker_settings_are_checked(self, setting):
        with pytest.raises(TracError, match=next(iter(setting))):
            FederationCoordinator(ShardRegistry(), **setting)

    def test_retry_settings_at_the_boundaries_are_accepted(self):
        coordinator = FederationCoordinator(
            ShardRegistry(), breaker_threshold=1, breaker_reset=1e-9,
        )
        assert (coordinator.breaker_threshold, coordinator.breaker_reset) == (1, 1e-9)

    GUARD_OR_REQUEST = {
        "mode": "focused",
        "subqueries": [
            {"sql": "q0", "guards": ["g0"]},
            {"sql": "q1", "guards": ["g1"]},
        ],
    }
    GUARD_OR_REPLIES = [
        {"results": [[["m1", 10.0]], [["m1", 10.0]]], "guards": {"g0": False, "g1": True}, "degraded": []},
        {"results": [[["m2", 20.0]], [["m2", 20.0]]], "guards": {"g0": False, "g1": False}, "degraded": ["m9"]},
    ]

    def test_guard_or_across_shards(self):
        """A guard false on every answering shard kills its subquery; true on
        any one shard keeps it — the union semantics of 'rows exist'."""
        sources = merge_fragments(self.GUARD_OR_REQUEST, self.GUARD_OR_REPLIES)
        # g0 false everywhere -> q0 dropped; g1 true somewhere -> q1 kept.
        assert sources == (["m1", "m2"], [10.0, 20.0])

    def test_guard_or_and_degraded_union_through_the_coordinator(self):
        """The same two fragments served by canned shards: the coordinator's
        fetch stage is the shared merge plus the union of ``degraded``."""
        from types import SimpleNamespace

        servers = [
            RPCServer(lambda request, k=k: dict(self.GUARD_OR_REPLIES[k], ok=True)).start()
            for k in range(2)
        ]
        registry = ShardRegistry()
        for k, server in enumerate(servers):
            registry.add(ShardInfo(f"s{k}", server.host, server.port, [f"m{k + 1}"]))
        plan = SimpleNamespace(
            mode="focused",
            minimal=False,
            subqueries=[
                SimpleNamespace(**sub) for sub in self.GUARD_OR_REQUEST["subqueries"]
            ],
        )
        coordinator = make_coordinator(registry)
        try:
            report = coordinator.report("q", plan=plan)
        finally:
            coordinator.close()
            for server in servers:
                server.stop()
        assert report.complete
        assert report.relevant_source_ids == {"m1", "m2"}
        assert report.degraded_sources == ["m9"]

    def test_short_fragment_does_not_crash_the_merge(self):
        request = {
            "mode": "focused",
            "subqueries": [{"sql": "q0", "guards": []}, {"sql": "q1", "guards": []}],
        }
        replies = [{"results": [[["m1", 1.0]]], "guards": {}, "degraded": []}]
        assert merge_fragments(request, replies) == (["m1"], [1.0])


class TestRegistry:
    def test_refresh_marks_dead_and_rejoined(self, pair):
        shards, registry = pair
        verdicts = registry.refresh(timeout=1.0)
        assert verdicts == {"s0": True, "s1": True}
        shards[0].close()
        verdicts = registry.refresh(timeout=0.5)
        assert verdicts["s0"] is False
        assert verdicts["s1"] is True
        info = next(i for i in registry.shards() if i.shard_id == "s0")
        assert not info.alive
        assert info.last_error

    def test_union_machines_is_sorted_and_disjoint(self, pair):
        _, registry = pair
        assert registry.machines() == ["m1", "m2", "m3", "m4"]

    def test_reregister_replaces_by_shard_id(self, pair):
        shards, registry = pair
        assert len(registry) == 2
        registry.register(shards[0].host, shards[0].port)
        assert len(registry) == 2

    def test_register_refuses_a_dead_address(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        registry = ShardRegistry()
        from repro.federation.rpc import RPCError

        with pytest.raises(RPCError):
            registry.register("127.0.0.1", port, timeout=0.5)


class TestHedging:
    def test_hedge_fires_for_a_straggler_and_wins(self):
        """First request stalls past hedge_delay; the hedge answers."""
        slow_first = {"count": 0}

        def handler(request):
            slow_first["count"] += 1
            if slow_first["count"] == 1:
                time.sleep(1.2)
            return {"ok": True, "shard_id": "s0", "mode": "all",
                    "results": [], "guards": {}, "degraded": []}

        server = RPCServer(handler).start()
        registry = ShardRegistry()
        registry.add(ShardInfo("s0", server.host, server.port, ["m1"]))
        coordinator = make_coordinator(
            registry, hedge_delay=0.15, attempt_timeout=2.0, deadline=3.0
        )
        try:
            started = time.monotonic()
            info = registry.shards()[0]
            fan_out = coordinator_mod._FanOut(
                coordinator,
                {"op": "fragment", "mode": "all", "subqueries": []},
                time.monotonic() + 3.0,
            )
            reply = fan_out.run([info])[info.shard_id]
            elapsed = time.monotonic() - started
        finally:
            server.stop()
        assert reply is not None and reply["ok"]
        assert elapsed < 1.0  # the hedge answered long before the straggler
        assert slow_first["count"] >= 2
