"""Direct unit tests for the shared circuit breaker.

The breaker was extracted from the sniffer supervisor into
``repro.core.breaker`` so the federation coordinator can share it; these
tests pin the transition semantics under an injectable clock (the breaker
never reads a wall clock itself — ``allow(now)`` and ``record_failure(now)``
take the time as an argument, which is what makes it testable and what
lets the supervisor drive it on simulated time).
"""

from repro.core.breaker import CircuitBreaker


def make(threshold=3, reset=10.0):
    return CircuitBreaker(threshold, reset)


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker = make()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow(0.0)

    def test_failures_below_threshold_stay_closed(self):
        breaker = make(threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 2
        assert breaker.allow(2.0)

    def test_success_resets_the_failure_count(self):
        breaker = make(threshold=3)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        # Two more failures still don't reach the threshold of three.
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == CircuitBreaker.CLOSED


class TestOpen:
    def test_threshold_failures_open_the_breaker(self):
        breaker = make(threshold=3)
        for t in (1.0, 2.0, 3.0):
            breaker.record_failure(t)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_at == 3.0

    def test_open_rejects_until_the_reset_timeout(self):
        breaker = make(threshold=1, reset=10.0)
        breaker.record_failure(100.0)
        assert not breaker.allow(100.0)
        assert not breaker.allow(109.9)
        assert breaker.state == CircuitBreaker.OPEN

    def test_reset_timeout_moves_to_half_open(self):
        breaker = make(threshold=1, reset=10.0)
        breaker.record_failure(100.0)
        assert breaker.allow(110.0)  # the probe is allowed through
        assert breaker.state == CircuitBreaker.HALF_OPEN


class TestHalfOpen:
    def half_open(self, reset=10.0):
        breaker = make(threshold=1, reset=reset)
        breaker.record_failure(100.0)
        assert breaker.allow(100.0 + reset)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        return breaker

    def test_probe_success_closes(self):
        breaker = self.half_open()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.allow(200.0)

    def test_probe_failure_reopens_immediately(self):
        # The half-open probe failing must NOT need `threshold` more
        # failures — one strike and the breaker snaps open again.
        breaker = make(threshold=5, reset=10.0)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            breaker.record_failure(t)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow(15.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure(16.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_at == 16.0
        # ...and the reset clock restarts from the probe failure.
        assert not breaker.allow(25.9)
        assert breaker.allow(26.0)

    def test_half_open_allows_repeatedly_until_verdict(self):
        breaker = self.half_open()
        assert breaker.allow(111.0)
        assert breaker.allow(112.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN


class TestFullCycle:
    def test_open_half_open_closed_open_again(self):
        breaker = make(threshold=2, reset=5.0)
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow(7.0)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure(8.0)
        breaker.record_failure(9.0)
        assert breaker.state == CircuitBreaker.OPEN


class TestReexport:
    def test_supervisor_still_exports_the_breaker(self):
        # Extraction must be invisible to existing importers.
        from repro.grid.supervisor import CircuitBreaker as FromSupervisor

        assert FromSupervisor is CircuitBreaker

    def test_core_package_exports_it(self):
        from repro.core import CircuitBreaker as FromCore

        assert FromCore is CircuitBreaker


class TestBackoffDelay:
    """The one retry ladder the supervisors and the coordinator share."""

    def test_matches_the_formula_both_callers_used_to_carry(self):
        import random

        from repro.core.breaker import backoff_delay

        for attempt in range(1, 7):
            ours, theirs = random.Random(42), random.Random(42)
            expected = min(60.0, 1.5 * 2.0 ** (attempt - 1))
            expected *= 1.0 + 0.25 * (2.0 * theirs.random() - 1.0)
            assert backoff_delay(1.5, 2.0, attempt, 0.25, ours, cap=60.0) == expected

    def test_coordinator_delays_are_bit_identical_to_its_old_private_formula(self):
        import random

        from repro.core.breaker import stable_seed
        from repro.federation import FederationCoordinator, ShardRegistry

        coordinator = FederationCoordinator(ShardRegistry(), seed=9)
        rng = random.Random(stable_seed(9, "s0", "federation"))
        for attempt in (1, 2, 3):
            delay = 0.05 * 2.0 ** (attempt - 1)
            delay *= 1.0 + 0.5 * (2.0 * rng.random() - 1.0)
            assert coordinator._backoff("s0", attempt) == delay


class TestStableSeed:
    """One seed derivation: every seeded jitter and fault stream replays."""

    def test_pins_the_supervisor_federation_and_fault_plan_seeds(self):
        from repro.core.breaker import stable_seed

        # The values each caller's private copy derived before they merged.
        assert stable_seed(7, "m3", "supervisor") == 16091729587701259977
        assert stable_seed(9, "s0", "federation") == 7284848284509243318
        assert stable_seed(11, "m2", "poll_error") == 9775660371085392912

    def test_every_stream_is_seeded_from_it(self):
        import random

        from repro.core.breaker import stable_seed
        from repro.faults import FaultPlan
        from repro.federation import FederationCoordinator, ShardRegistry
        from repro.grid.simulator import GridSimulator, SimulationConfig

        sim = GridSimulator(SimulationConfig(num_machines=2, seed=7), fault_plan=FaultPlan())
        expected = random.Random(stable_seed(7, "m1", "supervisor")).random()
        assert sim.supervisors["m1"].rng.random() == expected
        plan = FaultPlan(seed=11)
        expected = random.Random(stable_seed(11, "m2", "poll_error")).random()
        assert plan._rng("m2", "poll_error").random() == expected
        coordinator = FederationCoordinator(ShardRegistry(), seed=9)
        coordinator._backoff("s0", 1)  # draws the stream's first number
        stream = random.Random(stable_seed(9, "s0", "federation"))
        stream.random()
        assert coordinator._rngs["s0"].random() == stream.random()
