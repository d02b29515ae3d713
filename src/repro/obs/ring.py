"""The one bounded ring behind the span, event, profile and provenance logs.

:class:`BoundedRing` owns what every in-process log needs — the lock, the
``maxlen`` deque that drops the *oldest* item, the running total
and the read side (``snapshot``/``tail``/``for_trace``/``total``/
``dropped``/``clear``/``len``). :class:`~repro.obs.events.EventLog` adds
``emit`` + listeners and :class:`~repro.obs.instrument.ProfileLog` adds
``record`` + ``last``; the :class:`~repro.obs.trace.Tracer` pushes its
finished spans onto one. A disabled :class:`~repro.obs.instrument.Telemetry`
owns the same rings; they stay empty because nothing is ever pushed.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Deque, List

from repro.errors import check_number


class BoundedRing:
    """Thread-safe ring buffer; items are duck-typed on ``trace_id``."""

    def __init__(self, capacity: int) -> None:
        self.capacity = check_number(f"{type(self).__name__} capacity", capacity, 1)
        self._lock = threading.Lock()
        self._items: Deque[Any] = deque(maxlen=capacity)
        self._total = 0

    def _push(self, item: Any) -> None:
        """Append ``item``; the caller holds ``self._lock``."""
        self._items.append(item)
        self._total += 1

    def push(self, item: Any) -> None:
        """Append ``item``, dropping the oldest one when full."""
        with self._lock:
            self._push(item)

    def snapshot(self) -> List[Any]:
        """Every retained item, oldest first."""
        with self._lock:
            return list(self._items)

    def tail(self, n: int) -> List[Any]:
        """The most recent ``n`` retained items, oldest first (copies only those)."""
        if n <= 0:
            return []
        with self._lock:
            newest = list(itertools.islice(reversed(self._items), n))
        newest.reverse()
        return newest

    def for_trace(self, trace_id: str) -> List[Any]:
        """Retained items stamped with ``trace_id`` (32-hex), oldest first."""
        return [i for i in self.snapshot() if getattr(i, "trace_id", None) == trace_id]

    @property
    def total(self) -> int:
        """Items ever pushed (including ones the ring has dropped)."""
        with self._lock:
            return self._total

    @property
    def dropped(self) -> int:
        """Items no longer retained: pushed out by newer ones, or cleared."""
        with self._lock:
            return self._total - len(self._items)

    def clear(self) -> None:
        """Discard retained items (the total keeps counting)."""
        with self._lock:
            self._items.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)}/{self.capacity} retained, total={self.total})"

