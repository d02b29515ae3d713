"""Per-tenant admission state: token buckets and inflight ceilings.

Two brakes per tenant, so one chatty consumer cannot starve the rest: a
**token bucket** bounds the sustained rate, an **inflight ceiling** how
many admitted-but-unfinished requests it may hold. :meth:`TenantQuotas.admit`
checks both under one lock, so rejections are exact under contention
(``docs/SERVING.md``, "Admission control, precisely"), and raises
:class:`QuotaExceeded` — ``429`` + ``Retry-After`` at the HTTP layer.
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
    exactness tests and hard per-session caps. A bucket takes no lock of
    its own: :class:`TenantQuotas` reads and spends it under its lock.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated", "_clock")

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

    def _refill(self) -> None:
        now = self._clock()
        if self.rate > 0 and now > self._updated:
            self._tokens = min(self.burst, self._tokens + (now - self._updated) * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> Optional[float]:
        """Take ``tokens`` if available; else return seconds until they are."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return None
        return float("inf") if self.rate <= 0 else (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        """Tokens available right now (refilled to the current clock)."""
        self._refill()
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
        self.max_inflight = int(check_number("max_inflight", max_inflight, 1))
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
