"""Supervisor tests: policy validation, the circuit breaker, and the full
retry -> restart -> degrade ladder driven by injected faults."""

import pytest

from repro import MemoryBackend, obs
from repro.core.breaker import CircuitBreaker
from repro.core.sources import BACKING_OFF, HEALTHY, SourceRegistry
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.grid.machine import Machine
from repro.grid.simulator import monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig
from repro.grid.supervisor import SnifferSupervisor, SupervisorPolicy
from repro.obs import instrument


def make_sniffer(machine_id="m1", **config):
    backend = MemoryBackend(monitoring_catalog([machine_id]))
    machine = Machine(machine_id)
    config.setdefault("poll_interval", 5.0)
    config.setdefault("lag", 0.0)
    return Sniffer(machine, backend, SnifferConfig(**config))


def drive(supervisor, start, end, tick=1.0):
    """Tick the supervisor over [start, end] and return total applied."""
    total = 0
    t = start
    while t <= end:
        total += supervisor.tick(t)
        t += tick
    return total


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_backoff": 0.0},
            {"base_backoff": float("nan")},
            {"backoff_multiplier": 0.5},
            {"max_backoff": 0.5},  # below default base_backoff=1.0
            {"jitter": 1.0},
            {"jitter": -0.1},
            {"max_restarts": -1},
            {"breaker_threshold": 0},
            {"breaker_reset": 0.0},
            {"silence_timeout": 0.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SupervisorPolicy(**kwargs)

    def test_defaults_are_valid(self):
        policy = SupervisorPolicy()
        assert policy.max_retries == 3
        assert policy.silence_timeout is None


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(threshold=3, reset_timeout=10.0)
        for t in (1.0, 2.0):
            breaker.record_failure(t)
            assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(5.0)

    def test_half_open_probe_after_reset(self):
        breaker = CircuitBreaker(threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        assert not breaker.allow(9.9)
        assert breaker.allow(10.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(threshold=1, reset_timeout=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=5, reset_timeout=10.0)
        breaker.record_failure(0.0)
        breaker.state = CircuitBreaker.OPEN
        breaker.opened_at = 0.0
        breaker.allow(10.0)
        breaker.record_failure(10.0)  # the probe fails: straight back to open
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(15.0)


class TestHappyPath:
    def test_unsupervised_equivalence(self):
        """With no plan and no faults, the supervisor just polls on schedule."""
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(sniffer)
        sniffer.machine.set_activity(1.0, "busy")
        applied = drive(supervisor, 0.0, 20.0)
        assert applied >= 1
        assert supervisor.state == HEALTHY
        assert supervisor.record.retries == 0
        assert supervisor.record.restarts == 0

    def test_respects_poll_interval(self):
        sniffer = make_sniffer(poll_interval=10.0)
        supervisor = SnifferSupervisor(sniffer)
        supervisor.tick(1.0)
        first_poll = sniffer.last_poll
        supervisor.tick(2.0)  # too soon: no new poll
        assert sniffer.last_poll == first_poll
        supervisor.tick(first_poll + 10.0)
        assert sniffer.last_poll == first_poll + 10.0


class TestRetryPath:
    def test_transient_fault_retried_with_backoff(self):
        plan = FaultPlan(seed=0).poll_error("m1", at=[5.0])
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(
            sniffer, plan=plan, policy=SupervisorPolicy(base_backoff=3.0, jitter=0.0)
        )
        sniffer.machine.set_activity(1.0, "busy")
        supervisor.tick(5.0)  # injected failure
        assert supervisor.state == BACKING_OFF
        assert supervisor.record.retries == 1
        assert supervisor.consecutive_failures == 1
        # The retry is gated on the backoff deadline, not the poll interval.
        assert supervisor.tick(6.0) == 0
        applied = supervisor.tick(8.0)  # base_backoff elapsed: retry succeeds
        assert applied >= 1
        assert supervisor.state == HEALTHY
        assert supervisor.consecutive_failures == 0

    def test_backoff_grows_and_caps(self):
        policy = SupervisorPolicy(
            base_backoff=2.0, backoff_multiplier=2.0, max_backoff=5.0, jitter=0.0
        )
        supervisor = SnifferSupervisor(make_sniffer(), policy=policy)
        assert supervisor._backoff(1) == 2.0
        assert supervisor._backoff(2) == 4.0
        assert supervisor._backoff(3) == 5.0  # capped
        assert supervisor._backoff(10) == 5.0

    def test_jitter_is_seeded_and_bounded(self):
        policy = SupervisorPolicy(base_backoff=10.0, jitter=0.5)
        a = SnifferSupervisor(make_sniffer(), policy=policy, seed=3)
        b = SnifferSupervisor(make_sniffer(), policy=policy, seed=3)
        delays_a = [a._backoff(1) for _ in range(20)]
        delays_b = [b._backoff(1) for _ in range(20)]
        assert delays_a == delays_b  # same seed, same jitter stream
        assert all(5.0 <= d <= 15.0 for d in delays_a)
        assert len(set(delays_a)) > 1  # actually jittered


class TestDegradePaths:
    def test_permanent_fault_degrades_immediately(self):
        plan = FaultPlan(seed=0).poll_error("m1", at=[5.0], transient=False)
        health = SourceRegistry()
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, sources=health)
        supervisor.tick(5.0)
        assert supervisor.degraded
        assert health.degraded() == ["m1"]
        assert "permanent" in supervisor.record.reason
        assert supervisor.record.retries == 0  # no retry for a permanent fault
        # Degraded is terminal: further ticks are no-ops.
        assert supervisor.tick(100.0) == 0
        assert supervisor.sniffer.failed

    def test_restart_budget_exhaustion_degrades(self):
        # Every poll fails: retries burn out, then restarts, then degrade.
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        policy = SupervisorPolicy(
            max_retries=2, max_restarts=1, base_backoff=1.0, jitter=0.0,
            breaker_threshold=100,  # keep the breaker out of this test
        )
        health = SourceRegistry()
        supervisor = SnifferSupervisor(
            make_sniffer(), plan=plan, policy=policy, sources=health
        )
        drive(supervisor, 0.0, 200.0)
        assert supervisor.degraded
        assert supervisor.record.restarts == 1
        assert supervisor.record.retries >= 2
        assert "restart budget exhausted" in supervisor.record.reason
        assert health.degraded() == ["m1"]

    def test_silence_watchdog_degrades_quiet_source(self):
        sniffer = make_sniffer()
        policy = SupervisorPolicy(silence_timeout=50.0)
        health = SourceRegistry()
        supervisor = SnifferSupervisor(make_sniffer(), policy=policy, sources=health)
        sniffer = supervisor.sniffer
        # The machine logs once, then goes silent forever.
        sniffer.machine.set_activity(1.0, "busy")
        drive(supervisor, 0.0, 100.0)
        assert supervisor.degraded
        assert "silent source" in supervisor.record.reason
        assert health.degraded() == ["m1"]

    def test_heartbeats_keep_watchdog_quiet(self):
        policy = SupervisorPolicy(silence_timeout=50.0)
        supervisor = SnifferSupervisor(make_sniffer(), policy=policy)
        machine = supervisor.sniffer.machine
        t = 0.0
        while t <= 300.0:
            if t % 20 == 0:
                machine.heartbeat(t)
            supervisor.tick(t)
            t += 1.0
        assert not supervisor.degraded
        assert supervisor.state == HEALTHY


class TestBreakerIntegration:
    def test_breaker_opens_and_blocks_polls(self):
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        policy = SupervisorPolicy(
            max_retries=100, max_restarts=100, base_backoff=1.0, jitter=0.0,
            breaker_threshold=3, breaker_reset=50.0,
        )
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, policy=policy)
        drive(supervisor, 0.0, 10.0)
        assert supervisor.breaker.state == CircuitBreaker.OPEN
        failures_at_open = supervisor.record.retries
        # While open, nothing is attempted, so the counter is frozen.
        drive(supervisor, 11.0, 30.0)
        assert supervisor.record.retries == failures_at_open


class TestTelemetry:
    def test_retry_restart_and_degrade_counters(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        policy = SupervisorPolicy(
            max_retries=1, max_restarts=1, base_backoff=1.0, jitter=0.0,
            breaker_threshold=100,
        )
        health = SourceRegistry()
        supervisor = SnifferSupervisor(
            make_sniffer(), plan=plan, policy=policy, sources=health, telemetry=tel
        )
        drive(supervisor, 0.0, 50.0)
        assert supervisor.degraded
        retries = tel.metrics.counter(instrument.SNIFFER_RETRIES, {"machine": "m1"})
        restarts = tel.metrics.counter(instrument.SNIFFER_RESTARTS, {"machine": "m1"})
        degraded = tel.metrics.gauge(instrument.SOURCES_DEGRADED)
        assert retries.value == supervisor.record.retries >= 1
        assert restarts.value == supervisor.record.restarts == 1
        assert degraded.value == 1

    def test_fault_injection_counter(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0, telemetry=tel).poll_error("m1", at=[5.0])
        supervisor = SnifferSupervisor(
            make_sniffer(), plan=plan, policy=SupervisorPolicy(jitter=0.0), telemetry=tel
        )
        drive(supervisor, 0.0, 20.0)
        injected = tel.metrics.counter(
            instrument.FAULTS_INJECTED, {"kind": "poll_error", "machine": "m1"}
        )
        assert injected.value == 1
        assert plan.injected == {"poll_error": 1}

    def test_breaker_transition_counter(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        policy = SupervisorPolicy(
            max_retries=100, max_restarts=100, base_backoff=1.0, jitter=0.0,
            breaker_threshold=2, breaker_reset=10.0,
        )
        supervisor = SnifferSupervisor(
            make_sniffer(), plan=plan, policy=policy, telemetry=tel
        )
        drive(supervisor, 0.0, 40.0)
        opened = tel.metrics.counter(
            instrument.BREAKER_TRANSITIONS, {"machine": "m1", "state": "open"}
        )
        assert opened.value >= 1


class TestFaultyWrappers:
    def test_plan_wraps_backend_and_log(self):
        plan = FaultPlan(seed=0).poll_error("m1", probability=0.01)
        sniffer = make_sniffer()
        original_backend = sniffer.backend
        SnifferSupervisor(sniffer, plan=plan)
        assert sniffer.backend is not original_backend
        assert sniffer.backend.inner is original_backend
        assert sniffer.machine.log.inner is not None

    def test_dropped_records_rereads_do_not_duplicate_rows(self):
        """A backend apply fault aborts the poll before the offset advances,
        so the next successful poll re-reads the same batch (at-least-once);
        upserts make that idempotent."""
        plan = FaultPlan(seed=0).backend_error("m1", op="apply", at=[5.0])
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(
            sniffer, plan=plan, policy=SupervisorPolicy(base_backoff=1.0, jitter=0.0)
        )
        sniffer.machine.set_activity(1.0, "busy")
        drive(supervisor, 0.0, 20.0)
        assert supervisor.state == HEALTHY
        rows = sniffer.backend.execute("SELECT mach_id, value FROM activity").rows
        assert rows == [("m1", "busy")]

    def test_heartbeat_fault_freezes_recency_until_retry(self):
        plan = FaultPlan(seed=0).backend_error("m1", op="heartbeat", at=[10.0])
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(
            sniffer, plan=plan, policy=SupervisorPolicy(base_backoff=1.0, jitter=0.0)
        )
        sniffer.machine.heartbeat(8.0)
        drive(supervisor, 0.0, 30.0)
        assert supervisor.state == HEALTHY
        assert sniffer.backend.heartbeat_of("m1") == 8.0
