"""Sniffer supervision: retry, restart, circuit-break, degrade — don't die.

A bare :class:`~repro.grid.sniffer.Sniffer` assumes every poll succeeds;
under an active :class:`~repro.faults.FaultPlan` (or any other
:class:`~repro.errors.SimulationError`) and the paper's deployment reality
(R-GMA registry outages, producer restarts, partial republishing) it does
not. :class:`SnifferSupervisor` wraps one sniffer with the supervision ladder:

1. **Retry with exponential backoff + jitter** — a transient poll failure
   is retried after ``BASE_BACKOFF * BACKOFF_MULTIPLIER^(k-1)`` seconds
   (capped at ``MAX_BACKOFF``), spread by ``±JITTER`` from a seeded RNG so a
   fleet of supervisors never retries in lockstep.
2. **Crash/restart with a bounded budget** — past ``MAX_RETRIES``
   consecutive failures the sniffer is restarted from its durable offset
   (no record is lost), at most ``MAX_RESTARTS`` times.
3. **Per-source circuit breaker** — ``BREAKER_THRESHOLD`` consecutive
   failures stop the polls for ``BREAKER_RESET`` seconds; then one
   half-open probe closes the breaker or re-opens it.
4. **Degradation, not death** — a permanent fault, a spent restart budget
   or a silent source (no progress for the caller's ``silence_timeout``,
   the ladder's one setting) marks the source *degraded* in the shared
   :class:`~repro.core.sources.SourceRegistry` and stops its sniffer. The
   run goes on; the report gains a known-outage annotation, not a mystery gap.

Silence detection is only sound under the default ``last_event`` recency
protocol: under ``"horizon"`` a dead machine's recency keeps advancing —
precisely the risk Section 3.1's heartbeat discussion warns about — so the
watchdog sees "progress" and cannot fire.

What the ladder *knows* about its source — status, reason, retry and
restart counts, last error, breaker state — it writes to and reads from the
source's record in the registry, so a resumed supervisor continues from
the checkpointed record (a spent restart budget stays spent, silence
counts from its recency). Only mechanism state is its own: breaker, backoff.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.breaker import CircuitBreaker, backoff_delay, stable_seed
from repro.core.sources import BACKING_OFF, DEGRADED, HEALTHY, RESTARTING, SourceRegistry
from repro.errors import SimulationError
from repro.faults.backend import FaultyBackend
from repro.faults.log import FaultyLog
from repro.faults.plan import FaultPlan, InjectedFault
from repro.grid.sniffer import Sniffer
from repro.obs import instrument as obs
from repro.obs.events import (
    EVT_BREAKER_TRANSITION,
    EVT_SNIFFER_RESTART,
    EVT_SNIFFER_RETRY,
    EVT_SOURCE_DEGRADED,
    EVT_WATCHDOG_SILENCE,
)


#: The ladder's rungs (times in simulation seconds); the module docstring
#: says how each is climbed.
MAX_RETRIES = 3
BASE_BACKOFF = 1.0
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF = 60.0
JITTER = 0.25
MAX_RESTARTS = 2
BREAKER_THRESHOLD = 5
BREAKER_RESET = 30.0


class SnifferSupervisor:
    """Supervises one sniffer; see the module docstring for the ladder.

    Parameters
    ----------
    sniffer:
        The sniffer to supervise. When ``plan`` is given, the sniffer's
        backend and machine log are wrapped in their fault-injecting
        proxies (:class:`~repro.faults.FaultyBackend` /
        :class:`~repro.faults.FaultyLog`).
    plan:
        The active :class:`~repro.faults.FaultPlan`, or ``None`` to
        supervise without injection (the supervisor still guards against
        any :class:`SimulationError` a poll raises).
    silence_timeout:
        Simulation seconds without progress after which the source is
        degraded as silent; ``None`` turns the watchdog off.
    sources:
        Shared :class:`~repro.core.sources.SourceRegistry`; a private one is
        created when omitted. The sniffer is pointed at its record there.
    seed:
        Jitter RNG seed; combined with the machine id so supervisor fleets
        are deterministic yet decorrelated.
    telemetry:
        Explicit telemetry override; defaults to the process-wide one.
    """

    def __init__(
        self,
        sniffer: Sniffer,
        plan: Optional["FaultPlan"] = None,
        silence_timeout: Optional[float] = None,
        sources: Optional[SourceRegistry] = None,
        seed: int = 0,
        telemetry: Optional[object] = None,
    ) -> None:
        self.sniffer = sniffer
        self.machine_id = sniffer.machine.machine_id
        self.plan = plan
        self.silence_timeout = silence_timeout
        self.sources = sources if sources is not None else SourceRegistry()
        #: The source's live record: written through ``self.sources``.
        self.record = sniffer.record = self.sources.open(self.machine_id)
        self.telemetry = telemetry
        self.rng = random.Random(stable_seed(seed, self.machine_id, "supervisor"))
        self.breaker = CircuitBreaker(BREAKER_THRESHOLD, BREAKER_RESET)

        self.consecutive_failures = 0
        self._pending_attempt = False
        self._next_attempt = float("-inf")
        self._last_progress: Optional[float] = None
        #: The fault-injecting proxies, told each poll's time; none without a plan.
        self._proxies: tuple = ()
        if plan is not None:
            sniffer.backend = FaultyBackend(sniffer.backend, plan, self.machine_id)
            sniffer.machine.log = FaultyLog(sniffer.machine.log, plan, self.machine_id)
            self._proxies = (sniffer.backend, sniffer.machine.log)
        # The breaker column is the rebuilt breaker's real state, never a
        # remembered one; a status restored from a checkpoint is kept.
        self.sources.update(self.machine_id, breaker=self.breaker.state)
        if self.record.status is None:
            self.sources.mark(self.machine_id, HEALTHY)

    @property
    def degraded(self) -> bool:
        return self.state == DEGRADED

    @property
    def state(self) -> str:
        return self.sources.status_of(self.machine_id)

    # -- the tick -----------------------------------------------------------

    def tick(self, now: float) -> int:
        """Drive the supervised sniffer at time ``now``; returns records
        applied (0 while backing off, degraded, or between polls)."""
        if self.degraded:
            return 0
        if self._last_progress is None:  # a resumed source fell silent at its last record
            recency = self.record.recency
            self._last_progress = now if recency == float("-inf") else recency
        limit = self.silence_timeout
        if limit is not None and now - self._last_progress >= limit:
            tel = obs.resolve(self.telemetry)
            if tel.enabled:
                tel.emit(
                    EVT_WATCHDOG_SILENCE,
                    t=now,
                    source=self.machine_id,
                    severity="warning",
                    silent_for=now - self._last_progress,
                    limit=limit,
                )
            self._degrade(
                now,
                f"silent source: no progress for {now - self._last_progress:g}s "
                f"(limit {limit:g}s)",
            )
            return 0

        if self._pending_attempt:
            due = now >= self._next_attempt
        else:
            due = now - self.sniffer.last_poll >= self.sniffer.config.poll_interval
        if not due:
            return 0
        was_open = self.breaker.state == CircuitBreaker.OPEN
        if not self.breaker.allow(now):
            return 0
        if was_open and self.breaker.state == CircuitBreaker.HALF_OPEN:
            self._record_breaker(CircuitBreaker.HALF_OPEN, now)

        for proxy in self._proxies:
            proxy.now = now

        previous_recency = self.record.recency
        # The span covers the poll *and* its outcome handling, so retry /
        # restart / breaker events emitted there correlate to this span.
        with obs.PhaseTimer(obs.resolve(self.telemetry), "sniffer.poll", machine=self.machine_id):
            try:
                if self.plan is not None:
                    self.plan.check("poll_error", self.machine_id, now)
                applied = self.sniffer.poll(now)
            except SimulationError as exc:
                self._on_failure(now, exc)
                return 0
            self._on_success(now, applied, previous_recency)
        return applied

    # -- outcome handling ----------------------------------------------------

    def _on_success(self, now: float, applied: int, previous_recency: float) -> None:
        prior_state = self.breaker.state
        self.breaker.record_success()
        if prior_state != CircuitBreaker.CLOSED:
            self._record_breaker(CircuitBreaker.CLOSED, now)
        self.consecutive_failures = 0
        self._pending_attempt = False
        if applied > 0 or self.record.recency > previous_recency:
            self._last_progress = now
        if self.state != HEALTHY:
            self.sources.mark(self.machine_id, HEALTHY, at=now)

    def _on_failure(self, now: float, error: SimulationError) -> None:
        last_error = str(error)
        self.sources.update(self.machine_id, last_error=last_error)
        prior_state = self.breaker.state
        self.breaker.record_failure(now)
        if self.breaker.state == CircuitBreaker.OPEN and prior_state != CircuitBreaker.OPEN:
            self._record_breaker(CircuitBreaker.OPEN, now)
        if isinstance(error, InjectedFault) and not error.transient:
            self._degrade(now, f"permanent fault: {error}")
            return

        self.consecutive_failures += 1
        if self.consecutive_failures > MAX_RETRIES:
            self._restart(now)
            return

        self.sources.update(self.machine_id, retries=self.record.retries + 1)
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.SNIFFER_RETRIES, machine=self.machine_id)
            tel.emit(
                EVT_SNIFFER_RETRY,
                t=now,
                source=self.machine_id,
                severity="warning",
                error=last_error,
                attempt=self.consecutive_failures,
            )
        self._pending_attempt = True
        self._next_attempt = now + self._backoff(self.consecutive_failures)
        self.sources.mark(self.machine_id, BACKING_OFF, reason=last_error, at=now)

    def _restart(self, now: float) -> None:
        """Treat the sniffer as crashed; restart it if budget remains."""
        record = self.record
        if record.restarts >= MAX_RESTARTS:
            self._degrade(
                now,
                f"restart budget exhausted ({MAX_RESTARTS}) "
                f"after: {record.last_error}",
            )
            return
        self.sources.update(self.machine_id, restarts=record.restarts + 1)
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.SNIFFER_RESTARTS, machine=self.machine_id)
            tel.emit(
                EVT_SNIFFER_RESTART,
                t=now,
                source=self.machine_id,
                severity="warning",
                restart=record.restarts,
                error=record.last_error,
            )
        # The restart resumes from the durable offset: no records are lost.
        self.sniffer.recover()
        self.consecutive_failures = 0
        self._pending_attempt = True
        self._next_attempt = now + self._backoff(record.restarts + 1)
        self.sources.mark(
            self.machine_id, RESTARTING, reason=f"restart #{record.restarts}", at=now
        )

    def _degrade(self, now: float, reason: str) -> None:
        self.sniffer.fail()
        self.sources.mark(self.machine_id, DEGRADED, reason=reason, at=now)
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.set(obs.SOURCES_DEGRADED, len(self.sources.degraded()))
            tel.emit(
                EVT_SOURCE_DEGRADED,
                t=now,
                source=self.machine_id,
                severity="error",
                reason=reason,
            )

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(
            BASE_BACKOFF, BACKOFF_MULTIPLIER, attempt, JITTER, self.rng, cap=MAX_BACKOFF
        )

    def _record_breaker(self, state: str, now: Optional[float] = None) -> None:
        self.sources.update(self.machine_id, breaker=state)
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.BREAKER_TRANSITIONS, machine=self.machine_id, state=state)
            tel.emit(
                EVT_BREAKER_TRANSITION,
                t=now,
                source=self.machine_id,
                severity="warning" if state != CircuitBreaker.CLOSED else "info",
                state=state,
            )

    def __repr__(self) -> str:
        return (
            f"SnifferSupervisor({self.machine_id!r}, {self.state}, "
            f"retries={self.record.retries}, restarts={self.record.restarts})"
        )
