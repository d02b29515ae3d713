"""Per-tenant admission state: token buckets and inflight ceilings.

A serving front end shared by many tenants needs two independent brakes
per tenant (the R-GMA deployments that motivated ``trac serve`` learned
this the hard way — one chatty consumer can starve every producer):

* a **token bucket** bounding the sustained request *rate* (``rate``
  tokens/second, bursts up to ``burst``), and
* an **inflight ceiling** bounding how many of a tenant's requests may be
  admitted-but-unfinished at once (waiting or running), so a tenant
  cannot fill the whole wait line within its rate budget.

Both checks happen atomically in :meth:`TenantQuotas.admit` under one
lock, which makes rejections *exact* under contention: with a burst of
``B`` tokens and ``N > B`` concurrent arrivals, exactly ``N - B`` are
rejected — never more, never fewer (the concurrency tests pin this).

Rejections raise :class:`QuotaExceeded` carrying a machine-readable
``kind`` (``"quota"`` or ``"inflight"``) and a ``retry_after`` hint in
seconds, which the HTTP layer surfaces as ``429`` + ``Retry-After``.

The clock is injectable (``clock=time.monotonic`` by default) so tests
drive refill deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import TracError, check_number


class QuotaExceeded(TracError):
    """A tenant exceeded its rate or inflight quota (HTTP 429).

    ``kind`` is ``"quota"`` (token bucket empty) or ``"inflight"`` (too
    many admitted-but-unfinished requests); ``retry_after`` is a hint in
    seconds until a retry could plausibly succeed.
    """

    def __init__(self, message: str, kind: str, retry_after: float) -> None:
        super().__init__(message)
        self.kind = kind
        self.retry_after = max(0.0, float(retry_after))


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second up to ``burst``.

    ``try_acquire`` returns ``None`` on success or the number of seconds
    until the requested tokens would be available. ``rate=0`` means no
    refill (the bucket only ever holds its initial burst) — useful for
    exactness tests and hard per-session caps.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock", "_lock")

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_number("token bucket burst", burst, 0, low_open=True)
        check_number("token bucket rate", rate, 0)
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        if self.rate > 0 and now > self._updated:
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> Optional[float]:
        """Take ``tokens`` if available; else return seconds until they are."""
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return None
            deficit = tokens - self._tokens
            if self.rate <= 0:
                return float("inf")
            return deficit / self.rate

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens

    def __repr__(self) -> str:
        return f"TokenBucket(rate={self.rate}, burst={self.burst}, tokens={self.tokens:.2f})"


class TenantQuotas:
    """Admission state for every tenant: one bucket + inflight count each.

    Tenants are created lazily on first sight with the shared defaults.
    :meth:`admit` and :meth:`release` bracket one request's admitted
    lifetime; the service calls ``release`` in a ``finally`` so every
    admitted request — completed, failed, shed or expired — releases
    exactly once.
    """

    def __init__(
        self,
        rate: float = 100.0,
        burst: float = 200.0,
        max_inflight: int = 64,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # Checked here too: a bucket is only built when its tenant first asks.
        self.rate = float(check_number("token bucket rate", rate, 0))
        self.burst = float(check_number("token bucket burst", burst, 0, low_open=True))
        self.max_inflight = int(max_inflight)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight: Dict[str, int] = {}

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str) -> None:
        """Admit one request for ``tenant`` or raise :class:`QuotaExceeded`.

        The inflight ceiling is checked first (it consumes no tokens), then
        the token bucket; both under one lock so the decision is atomic.
        """
        with self._lock:
            inflight = self._inflight.get(tenant, 0)
            if inflight >= self.max_inflight:
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {inflight} requests inflight "
                    f"(limit {self.max_inflight})",
                    kind="inflight",
                    retry_after=1.0,
                )
            wait = self._bucket(tenant).try_acquire()
            if wait is not None:
                hint = 1.0 if wait == float("inf") else wait
                raise QuotaExceeded(
                    f"tenant {tenant!r} exceeded its request rate "
                    f"({self.rate}/s, burst {self.burst:g})",
                    kind="quota",
                    retry_after=hint,
                )
            self._inflight[tenant] = inflight + 1

    def release(self, tenant: str) -> None:
        """Release one previously admitted request for ``tenant``."""
        with self._lock:
            current = self._inflight.get(tenant, 0)
            if current > 0:
                self._inflight[tenant] = current - 1

    def inflight(self, tenant: str) -> int:
        with self._lock:
            return self._inflight.get(tenant, 0)

    def total_inflight(self) -> int:
        with self._lock:
            return sum(self._inflight.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant admission state (the /status serving block)."""
        with self._lock:
            out: Dict[str, Dict[str, float]] = {}
            for tenant, bucket in sorted(self._buckets.items()):
                out[tenant] = {
                    "inflight": self._inflight.get(tenant, 0),
                    "tokens": round(bucket.tokens, 3),
                }
            return out

    def __repr__(self) -> str:
        return (
            f"TenantQuotas(rate={self.rate}/s, burst={self.burst:g}, "
            f"max_inflight={self.max_inflight}, tenants={len(self._buckets)})"
        )
