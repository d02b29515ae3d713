"""A slot gate: bounded concurrency, a bounded wait line and deadlines.

``concurrent.futures.ThreadPoolExecutor`` queues unboundedly — exactly
wrong for a serving front end, where an overloaded server must shed load
*immediately* (fail fast with a retry hint) instead of building a queue
whose latency grows without bound. Nor does a served report need a thread
of its own: the connection's thread already holds the request, its span
and its socket. This gate runs the work **on the caller's thread** and:

* lets at most ``workers`` runs in at once;
* keeps a **bounded wait line** (``queue_depth``): a caller arriving while
  every slot is busy and the line is full raises :class:`QueueFull` with a
  ``retry_after`` estimated from the recent mean service time (how long
  until a slot frees up);
* enforces **deadlines**: a caller still waiting when its deadline passes
  raises :class:`DeadlineExceeded` and its work never runs; work that got a
  slot runs to completion;
* hands every run **per-slot state** from a free list, built lazily by
  ``worker_state_factory`` — at most ``workers`` of them, each used by one
  thread at a time (the query service builds one
  :class:`~repro.core.report.RecencyReporter` per slot, so reporters never
  need cross-thread locking).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, List, Optional

from repro.errors import TracError, check_number


class QueueFull(TracError):
    """The gate's wait line is full (HTTP 429)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.kind = "queue"
        self.retry_after = max(0.0, float(retry_after))


class DeadlineExceeded(TracError):
    """The request's deadline passed before a slot freed up (HTTP 504)."""


class WorkerPool:
    """At most ``workers`` concurrent runs on their callers' threads.

    Parameters
    ----------
    workers:
        Number of slots: runs allowed in at once.
    queue_depth:
        Maximum callers waiting for a slot; the next one raises
        :class:`QueueFull`.
    worker_state_factory:
        Zero-argument callable building one slot's state, lazily, at most
        ``workers`` times; a state is passed as the single argument to
        every function run in its slot and ``close()``d (when it has that
        method) once by :meth:`stop`. ``None`` passes ``None``.
    """

    def __init__(
        self,
        workers: int = 8,
        queue_depth: int = 64,
        worker_state_factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        check_number("workers", workers, 1)
        check_number("queue_depth", queue_depth, 1)
        self.workers = workers
        self.queue_depth = queue_depth
        self._factory = worker_state_factory
        self._cond = threading.Condition()
        self._free: List[Any] = []  # built states no run holds
        self._running = 0
        self._waiting = 0
        self._stopped = False
        # EWMA of run time, feeding the QueueFull retry hint.
        self._mean_service = 0.01
        self._expired = 0
        self._executed = 0

    # -- lifecycle -----------------------------------------------------------

    def stop(self, timeout: float = 5.0) -> None:
        """Refuse new work and waiting callers, wait up to ``timeout`` for the
        runs in flight, then close every state once (a run still in flight
        closes its own when it leaves)."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
            self._cond.wait_for(lambda: self._running == 0, timeout)
            idle, self._free = self._free, []
        for state in idle:
            _close(state)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- running -------------------------------------------------------------

    def run(self, fn: Callable[[Any], Any], deadline: Optional[float] = None) -> Any:
        """Call ``fn(state)`` on this thread once a slot is free; returns its
        result or raises what it raised. Raises :class:`QueueFull` when every
        slot is busy and ``queue_depth`` callers already wait, and
        :class:`DeadlineExceeded` when ``deadline`` (an absolute
        ``time.monotonic()`` instant) passes while waiting."""
        with self._cond:
            if self._stopped:
                raise TracError("worker pool is stopped")
            if self._running >= self.workers:
                self._wait(deadline)
            self._running += 1
            state = self._free.pop() if self._free else _UNBUILT
        started = time.monotonic()
        try:
            if state is _UNBUILT:
                state = self._factory() if self._factory is not None else None
            return fn(state)
        finally:
            self._leave(state, time.monotonic() - started)

    def _wait(self, deadline: Optional[float]) -> None:
        """Wait (holding ``_cond``) until a slot frees, or raise."""
        if self._waiting >= self.queue_depth:
            raise QueueFull(
                f"admission queue full ({self.queue_depth} queued)",
                retry_after=max(0.05, self.queue_depth * self._mean_service / self.workers),
            )
        self._waiting += 1
        arrived = time.monotonic()
        try:
            while self._running >= self.workers and not self._stopped:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._expired += 1
                    raise DeadlineExceeded(
                        f"deadline passed after {time.monotonic() - arrived:.3f}s in queue"
                    )
                self._cond.wait(remaining)
        finally:
            self._waiting -= 1
        if self._stopped:
            raise TracError("worker pool is stopped")

    def _leave(self, state: Any, elapsed: float) -> None:
        with self._cond:
            self._running -= 1
            self._executed += 1
            self._mean_service += 0.1 * (elapsed - self._mean_service)
            stopped = self._stopped
            if stopped:
                self._cond.notify_all()  # stop() waits for the last run
            else:
                if state is not _UNBUILT:  # the factory raised: no state to keep
                    self._free.append(state)
                self._cond.notify()
        if stopped:
            _close(state)

    def submit(self, fn: Callable[[Any], Any], deadline: Optional[float] = None) -> Future:
        """:meth:`run` as an already-resolved :class:`Future` carrying its
        result or whatever it raised, admission errors included."""
        future: Future = Future()
        try:
            future.set_result(self.run(fn, deadline))
        except Exception as exc:  # noqa: BLE001 — the future carries it
            future.set_exception(exc)
        return future

    # -- introspection -------------------------------------------------------

    def queued(self) -> int:
        """Callers waiting for a slot right now."""
        return self._waiting

    def stats(self) -> dict:
        with self._cond:
            return {
                "workers": self.workers,
                "queue_depth": self._waiting,
                "queue_capacity": self.queue_depth,
                "running": self._running,
                "executed": self._executed,
                "expired": self._expired,
                "mean_service_seconds": self._mean_service,
            }

    def __repr__(self) -> str:
        return (
            f"WorkerPool(workers={self.workers}, running={self._running}, "
            f"queued={self._waiting}/{self.queue_depth}, executed={self._executed})"
        )


#: Marks a slot whose state has not been built yet.
_UNBUILT = object()


def _close(state: Any) -> None:
    close = getattr(state, "close", None)
    if callable(close):
        close()
