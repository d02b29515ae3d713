"""The shared three-state circuit breaker.

Extracted from ``repro.grid.supervisor`` so the sniffer supervision ladder
and the shard-federation coordinator (``repro.federation``) trip the same
breaker: ``threshold`` consecutive failures open it, calls are refused
until ``reset_timeout`` elapses, then a single half-open probe decides
between closing it again and re-opening. The breaker is driven entirely by
an external clock passed to :meth:`CircuitBreaker.allow` — simulation time
for supervisors, wall time for federation RPCs — which keeps it trivially
testable and free of hidden ``time.time()`` calls.

Beside it: the retry ladder both callers climb (:func:`backoff_delay`) and
the one seed derivation their jitter streams — and the fault plan's
decision streams — start from (:func:`stable_seed`).
"""

from __future__ import annotations

import hashlib
import random

class CircuitBreaker:
    """The classic three-state breaker, driven by an external clock."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    __slots__ = ("threshold", "reset_timeout", "state", "consecutive_failures", "opened_at")

    def __init__(self, threshold: int, reset_timeout: float) -> None:
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = float("-inf")

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at ``now`` (may move open→half-open)."""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.reset_timeout:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = self.CLOSED

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or self.consecutive_failures >= self.threshold:
            self.state = self.OPEN
            self.opened_at = now

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.state}, failures={self.consecutive_failures})"


def backoff_delay(
    base: float,
    multiplier: float,
    attempt: int,
    jitter: float,
    rng: random.Random,
    cap: float = float("inf"),
) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    ``base * multiplier^(attempt-1)``, capped, then spread by ``±jitter``
    (below 1, so a delay stays positive) drawn from the caller's seeded
    ``rng`` so a fleet of retriers decorrelates reproducibly; every call
    draws once. The retry ladder the sniffer supervisors and the federation
    coordinator both climb beside their breaker.
    """
    delay = min(cap, base * multiplier ** (attempt - 1))
    return delay * (1.0 + jitter * (2.0 * rng.random() - 1.0))


def stable_seed(*parts: object) -> int:
    """A hash-seed-independent RNG seed for one stream: the first 8 bytes of
    sha256 over ``":".join(parts)``. The supervisors (``seed, source,
    "supervisor"``), the federation coordinator (``seed, shard, "federation"``)
    and the fault plan (``seed, source, kind``) each seed their streams here."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")
