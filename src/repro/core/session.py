"""User sessions and their temporary tables (Section 4.3).

The recency timestamps of a query's relevant sources are stored in
automatically created temporary tables — one for the "normal" sources and,
when outliers exist, one for the "exceptional" sources. They persist until
the session ends (``Session.close``) unless dropped earlier, mirroring the
prototype's ``sys_temp_a<ts>`` / ``sys_temp_e<ts>`` tables.
"""

from __future__ import annotations

import itertools
from typing import List

from repro.backends.base import Backend, Snapshot
from repro.core.statistics import Columns


class Session:
    """Tracks the temp tables created for one user session."""

    _ids = itertools.count(1)

    def __init__(self, backend: Backend) -> None:
        self.backend = backend
        self._created: List[str] = []

    def next_table_names(self) -> "TempTablePair":
        """Reserve a fresh (normal, exceptional) temp-table name pair."""
        report_id = next(self._ids)
        return TempTablePair(f"sys_temp_a{report_id}", f"sys_temp_e{report_id}")

    def materialize(
        self,
        snapshot: Snapshot,
        names: "TempTablePair",
        normal: Columns,
        exceptional: Columns,
    ) -> None:
        """Create the temp tables holding the report's recency rows, given
        as ``(ids, recencies)`` columns."""
        for name, (ids, recencies) in ((names.normal, normal), (names.exceptional, exceptional)):
            snapshot.create_temp_table(name, ("sid", "recency"), list(zip(ids, recencies)))
            self._created.append(name)

    def save_as(self, temp_name: str, permanent_name: str) -> None:
        """Copy a report's temp table into a permanent table (Section 4.3:
        the user may keep the recency snapshot beyond the session)."""
        self.backend.persist_temp_table(temp_name, permanent_name)

    @property
    def temp_tables(self) -> List[str]:
        return list(self._created)

    def close(self) -> None:
        """End the session: discard every remaining temp table."""
        for name in self._created:
            self.backend.drop_temp_table(name)
        self._created.clear()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TempTablePair:
    """Names of the normal/exceptional temp tables for one report."""

    __slots__ = ("normal", "exceptional")

    def __init__(self, normal: str, exceptional: str) -> None:
        self.normal = normal
        self.exceptional = exceptional

    def __repr__(self) -> str:
        return f"TempTablePair({self.normal!r}, {self.exceptional!r})"
