"""Supervisor tests: the ladder's constants and its one setting, the circuit
breaker, and the full retry -> restart -> degrade ladder driven by injected
faults."""

import random

import pytest

from repro import MemoryBackend, obs
from repro.core.breaker import CircuitBreaker, stable_seed
from repro.core.sources import BACKING_OFF, HEALTHY, SourceRegistry
from repro.errors import SimulationError
from repro.faults import FaultPlan
from repro.grid.machine import Machine
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog
from repro.grid.sniffer import Sniffer, SnifferConfig
from repro.grid.supervisor import (
    BACKOFF_MULTIPLIER,
    BASE_BACKOFF,
    BREAKER_RESET,
    BREAKER_THRESHOLD,
    JITTER,
    MAX_BACKOFF,
    MAX_RESTARTS,
    MAX_RETRIES,
    SnifferSupervisor,
)
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


def drive_until(supervisor, done, start=0.0, limit=10_000.0):
    """Tick once a second from ``start`` until ``done()``; returns the time."""
    t = start
    while not done():
        assert t <= limit, "the ladder never got there"
        supervisor.tick(t)
        t += 1.0
    return t - 1.0


def expected_delays(seed, attempts, machine_id="m1"):
    """The delays a supervisor seeded ``seed`` draws for ``attempts``, in order."""
    rng = random.Random(stable_seed(seed, machine_id, "supervisor"))
    return [
        min(MAX_BACKOFF, BASE_BACKOFF * BACKOFF_MULTIPLIER ** (attempt - 1))
        * (1.0 + JITTER * (2.0 * rng.random() - 1.0))
        for attempt in attempts
    ]


class TestPolicyValidation:
    """The ladder is constants; its one setting, ``silence_timeout``, enters
    through the simulator, which rejects a non-positive one."""

    # The ids are the ones these cases have run under since the table also
    # held the ladder's values; kwargs10 has always been silence_timeout=0.
    @pytest.mark.parametrize(
        "kwargs",
        [{"silence_timeout": -1.0}, {"silence_timeout": float("-inf")}, {"silence_timeout": 0.0}],
        ids=["kwargs0", "kwargs1", "kwargs10"],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(SimulationError, match="silence_timeout must be positive"):
            GridSimulator(SimulationConfig(num_machines=2), **kwargs)

    def test_defaults_are_valid(self):
        assert (MAX_RETRIES, MAX_RESTARTS) == (3, 2)
        assert (BASE_BACKOFF, BACKOFF_MULTIPLIER, MAX_BACKOFF, JITTER) == (1.0, 2.0, 60.0, 0.25)
        assert (BREAKER_THRESHOLD, BREAKER_RESET) == (5, 30.0)
        assert SnifferSupervisor(make_sniffer()).silence_timeout is None


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
        supervisor = SnifferSupervisor(sniffer, plan=plan)
        sniffer.machine.set_activity(1.0, "busy")
        supervisor.tick(5.0)  # injected failure
        assert supervisor.state == BACKING_OFF
        assert supervisor.record.retries == 1
        assert supervisor.consecutive_failures == 1
        (delay,) = expected_delays(0, [1])
        assert supervisor._next_attempt == 5.0 + delay
        # The retry is gated on the backoff deadline, not the poll interval
        # (no poll has succeeded yet, so the interval alone would allow one).
        assert supervisor.tick(5.0 + BASE_BACKOFF * (1.0 - JITTER) / 2) == 0
        applied = supervisor.tick(5.0 + delay)  # the backoff elapsed: the retry succeeds
        assert applied >= 1
        assert supervisor.state == HEALTHY
        assert supervisor.consecutive_failures == 0

    def test_backoff_grows_and_caps(self):
        supervisor = SnifferSupervisor(make_sniffer(), seed=3)
        attempts = [1, 2, 3, 6, 7, 10]
        delays = [supervisor._backoff(attempt) for attempt in attempts]
        assert delays == expected_delays(3, attempts)
        # 2^6 = 64 > 60: from the seventh retry on, every wait is the cap, jittered.
        assert BASE_BACKOFF * BACKOFF_MULTIPLIER ** 6 > MAX_BACKOFF
        for delay in delays[-2:]:
            assert MAX_BACKOFF * (1.0 - JITTER) <= delay <= MAX_BACKOFF * (1.0 + JITTER)

    def test_jitter_is_seeded_and_bounded(self):
        a = SnifferSupervisor(make_sniffer(), seed=3)
        b = SnifferSupervisor(make_sniffer(), seed=3)
        delays_a = [a._backoff(1) for _ in range(20)]
        delays_b = [b._backoff(1) for _ in range(20)]
        assert delays_a == delays_b  # same seed, same jitter stream
        low, high = BASE_BACKOFF * (1.0 - JITTER), BASE_BACKOFF * (1.0 + JITTER)
        assert all(low <= d <= high for d in delays_a)
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
        # Every poll fails: retries burn out, then restarts, then degrade
        # (the breaker only spaces the attempts out).
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        health = SourceRegistry()
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, sources=health)
        drive_until(supervisor, lambda: supervisor.degraded)
        assert supervisor.record.restarts == MAX_RESTARTS
        # Each life retries MAX_RETRIES times before it is restarted.
        assert supervisor.record.retries == (MAX_RESTARTS + 1) * MAX_RETRIES
        assert f"restart budget exhausted ({MAX_RESTARTS})" in supervisor.record.reason
        assert health.degraded() == ["m1"]

    def test_silence_watchdog_degrades_quiet_source(self):
        health = SourceRegistry()
        supervisor = SnifferSupervisor(make_sniffer(), silence_timeout=50.0, sources=health)
        sniffer = supervisor.sniffer
        # The machine logs once, then goes silent forever.
        sniffer.machine.set_activity(1.0, "busy")
        drive(supervisor, 0.0, 100.0)
        assert supervisor.degraded
        assert "silent source" in supervisor.record.reason
        assert "(limit 50s)" in supervisor.record.reason
        assert health.degraded() == ["m1"]

    def test_heartbeats_keep_watchdog_quiet(self):
        supervisor = SnifferSupervisor(make_sniffer(), silence_timeout=50.0)
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
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan)
        breaker = supervisor.breaker
        drive_until(supervisor, lambda: breaker.state == CircuitBreaker.OPEN)
        assert breaker.consecutive_failures == BREAKER_THRESHOLD
        opened_at = breaker.opened_at
        attempts_at_open = plan.injected["poll_error"]
        # While open, nothing is attempted, so the fault counter is frozen.
        drive(supervisor, opened_at + 1.0, opened_at + BREAKER_RESET - 1.0)
        assert plan.injected["poll_error"] == attempts_at_open
        assert breaker.state == CircuitBreaker.OPEN
        # The half-open probe fails too: straight back to open, clock restarted.
        supervisor.tick(opened_at + BREAKER_RESET)
        assert plan.injected["poll_error"] == attempts_at_open + 1
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_at == opened_at + BREAKER_RESET

    def test_a_successful_half_open_probe_closes_the_breaker(self):
        # Exactly BREAKER_THRESHOLD scripted failures, then the source works.
        plan = FaultPlan(seed=0).poll_error("m1", at=[float(t) for t in range(BREAKER_THRESHOLD)])
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(sniffer, plan=plan)
        breaker = supervisor.breaker
        drive_until(supervisor, lambda: breaker.state == CircuitBreaker.OPEN)
        assert supervisor.record.breaker == CircuitBreaker.OPEN
        # BREAKER_THRESHOLD > MAX_RETRIES: the sniffer was restarted on the way.
        assert supervisor.record.restarts == 1
        sniffer.machine.set_activity(breaker.opened_at, "busy")
        assert supervisor.tick(breaker.opened_at + BREAKER_RESET - 1.0) == 0
        assert supervisor.tick(breaker.opened_at + BREAKER_RESET) >= 1
        assert breaker.state == CircuitBreaker.CLOSED
        assert supervisor.record.breaker == CircuitBreaker.CLOSED
        assert supervisor.state == HEALTHY


class TestTelemetry:
    def test_retry_restart_and_degrade_counters(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        health = SourceRegistry()
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, sources=health, telemetry=tel)
        drive_until(supervisor, lambda: supervisor.degraded)
        retries = tel.metrics.counter(instrument.SNIFFER_RETRIES, {"machine": "m1"})
        restarts = tel.metrics.counter(instrument.SNIFFER_RESTARTS, {"machine": "m1"})
        degraded = tel.metrics.gauge(instrument.SOURCES_DEGRADED)
        assert retries.value == supervisor.record.retries >= 1
        assert restarts.value == supervisor.record.restarts == MAX_RESTARTS
        assert degraded.value == 1

    def test_fault_injection_counter(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0, telemetry=tel).poll_error("m1", at=[5.0])
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, telemetry=tel)
        drive(supervisor, 0.0, 20.0)
        injected = tel.metrics.counter(
            instrument.FAULTS_INJECTED, {"kind": "poll_error", "machine": "m1"}
        )
        assert injected.value == 1
        assert plan.injected == {"poll_error": 1}

    def test_breaker_transition_counter(self):
        tel = obs.Telemetry()
        plan = FaultPlan(seed=0).poll_error("m1", probability=1.0)
        supervisor = SnifferSupervisor(make_sniffer(), plan=plan, telemetry=tel)
        drive_until(supervisor, lambda: supervisor.breaker.state == CircuitBreaker.OPEN)
        opened = tel.metrics.counter(
            instrument.BREAKER_TRANSITIONS, {"machine": "m1", "state": "open"}
        )
        assert opened.value == 1
        drive(supervisor, supervisor.breaker.opened_at + 1.0, supervisor.breaker.opened_at + 40.0)
        half_open = tel.metrics.counter(
            instrument.BREAKER_TRANSITIONS, {"machine": "m1", "state": "half_open"}
        )
        assert half_open.value == 1
        assert opened.value == 2


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
        supervisor = SnifferSupervisor(sniffer, plan=plan)
        sniffer.machine.set_activity(1.0, "busy")
        drive(supervisor, 0.0, 20.0)
        assert supervisor.state == HEALTHY
        rows = sniffer.backend.execute("SELECT mach_id, value FROM activity").rows
        assert rows == [("m1", "busy")]

    def test_heartbeat_fault_freezes_recency_until_retry(self):
        plan = FaultPlan(seed=0).backend_error("m1", op="heartbeat", at=[10.0])
        sniffer = make_sniffer()
        supervisor = SnifferSupervisor(sniffer, plan=plan)
        sniffer.machine.heartbeat(8.0)
        drive(supervisor, 0.0, 30.0)
        assert supervisor.state == HEALTHY
        assert dict(sniffer.backend.heartbeat_rows()).get("m1") == 8.0
