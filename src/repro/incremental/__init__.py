"""Incremental recency maintenance: materialized relevant-source sets.

See :mod:`repro.incremental.maintainer` for the design discussion. The
public surface is :class:`IncrementalMaintainer` (attach one to a
:class:`~repro.backends.memory.MemoryBackend`, hand it to
:class:`~repro.core.report.RecencyReporter`) plus the
:func:`plan_streamable` predicate that decides fast-path eligibility.
"""

from repro.incremental.maintainer import IncrementalMaintainer, plan_streamable

__all__ = ["IncrementalMaintainer", "plan_streamable"]
