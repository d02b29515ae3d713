"""Token buckets and per-tenant admission quotas."""

import pytest

from repro.errors import TracError
from repro.serve.quota import QuotaExceeded, TenantQuotas, TokenBucket


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_is_available_immediately(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=FakeClock())
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is not None

    def test_refills_at_the_configured_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire(2.0) is None
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.5)  # 1 token deficit at 2/s
        clock.advance(0.5)
        assert bucket.try_acquire() is None

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=5.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.tokens == pytest.approx(5.0)

    def test_zero_rate_never_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() is None
        assert bucket.try_acquire() is None
        clock.advance(1_000_000.0)
        assert bucket.try_acquire() == float("inf")

    def test_validation(self):
        with pytest.raises(TracError):
            TokenBucket(rate=1.0, burst=0.0)
        with pytest.raises(TracError):
            TokenBucket(rate=-1.0, burst=1.0)


class TestTenantQuotas:
    def test_admit_and_release_track_inflight(self):
        quotas = TenantQuotas(rate=100.0, burst=10.0, max_inflight=2)
        quotas.admit("a")
        quotas.admit("a")
        assert quotas.inflight("a") == 2
        quotas.release("a")
        assert quotas.inflight("a") == 1
        assert quotas.total_inflight() == 1

    def test_inflight_ceiling_rejects_without_spending_tokens(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=0.0, burst=5.0, max_inflight=1, clock=clock)
        quotas.admit("a")
        with pytest.raises(QuotaExceeded) as exc_info:
            quotas.admit("a")
        assert exc_info.value.kind == "inflight"
        # The rejected request consumed no tokens: after release, the
        # remaining burst (5 - 1 spent) still admits 4 more.
        quotas.release("a")
        for _ in range(4):
            quotas.admit("a")
            quotas.release("a")

    def test_rate_rejections_are_exact_with_frozen_clock(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=0.0, burst=3.0, max_inflight=100, clock=clock)
        admitted = rejected = 0
        for _ in range(10):
            try:
                quotas.admit("a")
                admitted += 1
            except QuotaExceeded as exc:
                assert exc.kind == "quota"
                rejected += 1
        assert admitted == 3
        assert rejected == 7

    def test_tenants_are_isolated(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=0.0, burst=1.0, max_inflight=10, clock=clock)
        quotas.admit("a")
        quotas.admit("b")  # b has its own bucket
        with pytest.raises(QuotaExceeded):
            quotas.admit("a")

    def test_release_never_goes_negative(self):
        quotas = TenantQuotas()
        quotas.release("ghost")
        assert quotas.inflight("ghost") == 0

    def test_snapshot_shape(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=10.0, burst=4.0, max_inflight=8, clock=clock)
        quotas.admit("t1")
        snap = quotas.snapshot()
        assert snap == {"t1": {"inflight": 1, "tokens": 3.0}}

    def test_retry_after_is_a_positive_hint(self):
        clock = FakeClock()
        quotas = TenantQuotas(rate=2.0, burst=1.0, max_inflight=8, clock=clock)
        quotas.admit("a")
        with pytest.raises(QuotaExceeded) as exc_info:
            quotas.admit("a")
        assert exc_info.value.retry_after == pytest.approx(0.5)
