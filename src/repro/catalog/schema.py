"""Table schemas with data-source tagging (paper Section 3.3).

Each monitored relation designates one column as its **data source column**
(``c_s`` in the paper's notation); all other columns are **regular columns**.
The data source column is a foreign key into the system ``Heartbeat`` table,
which has exactly two columns: the data source id (primary key) and the
recency timestamp of that source.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.catalog.domains import Domain, TextDomain, TimestampDomain
from repro.errors import CatalogError

#: Canonical name of the system Heartbeat table (``H`` in the paper).
HEARTBEAT_TABLE = "heartbeat"
#: Heartbeat's data source id column (``H.c_s``).
HEARTBEAT_SOURCE_COLUMN = "source_id"
#: Heartbeat's recency timestamp column (``H.c_t``).
HEARTBEAT_RECENCY_COLUMN = "recency"

#: SQL type names accepted for column declarations.
_SQL_TYPES = ("TEXT", "INTEGER", "REAL", "TIMESTAMP")


class Column:
    """A named, typed column with an attached value domain.

    Parameters
    ----------
    name:
        Column name; matched case-insensitively during resolution but
        stored (and printed) in the declared case.
    sql_type:
        One of ``TEXT``, ``INTEGER``, ``REAL``, ``TIMESTAMP``. Used when
        creating the table on a SQL backend.
    domain:
        The value domain (:class:`~repro.catalog.domains.Domain`). Defaults
        to an unconstrained domain appropriate for ``sql_type``.
    """

    def __init__(self, name: str, sql_type: str = "TEXT", domain: Optional[Domain] = None) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise CatalogError(f"invalid column name: {name!r}")
        sql_type = sql_type.upper()
        if sql_type not in _SQL_TYPES:
            raise CatalogError(f"unsupported SQL type {sql_type!r} for column {name!r}")
        self.name = name
        self.sql_type = sql_type
        if domain is None:
            domain = _default_domain(sql_type)
        self.domain = domain

    def __repr__(self) -> str:
        return f"Column({self.name!r}, {self.sql_type!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Column)
            and self.name == other.name
            and self.sql_type == other.sql_type
            and self.domain == other.domain
        )

    def __hash__(self) -> int:
        return hash((self.name, self.sql_type))


def _default_domain(sql_type: str) -> Domain:
    from repro.catalog.domains import IntegerDomain, RealDomain

    if sql_type == "INTEGER":
        return IntegerDomain()
    if sql_type == "REAL":
        return RealDomain()
    if sql_type == "TIMESTAMP":
        return TimestampDomain()
    return TextDomain()


class TableSchema:
    """Schema of one monitored relation.

    Parameters
    ----------
    name:
        Table name.
    columns:
        Ordered sequence of :class:`Column`.
    source_column:
        Name of the data source column (``c_s``). ``None`` is allowed only
        for system tables such as Heartbeat itself.
    constraints:
        CHECK-style constraints, each a SQL predicate over this table's
        columns (unqualified), e.g. ``"mach_id <> neighbor"``. Section 3.4:
        constraints in the form of predicates are conjoined onto a query
        (``Q -> Q'``) before relevance analysis, restricting the potential
        tuples and thereby sharpening the relevant set. They are validated
        lazily (the schema does not parse SQL); the planner and the
        brute-force oracle reject malformed constraint text.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        source_column: Optional[str] = None,
        constraints: Sequence[str] = (),
    ) -> None:
        if not name or not name.replace("_", "").isalnum():
            raise CatalogError(f"invalid table name: {name!r}")
        if not columns:
            raise CatalogError(f"table {name!r} must have at least one column")
        seen = set()
        for column in columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise CatalogError(f"duplicate column {column.name!r} in table {name!r}")
            seen.add(lowered)
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, Column] = {c.name.lower(): c for c in self.columns}
        if source_column is not None and source_column.lower() not in self._by_name:
            raise CatalogError(
                f"source column {source_column!r} is not a column of table {name!r}"
            )
        self.source_column = source_column
        self.constraints: Tuple[str, ...] = tuple(constraints)

    def column(self, name: str) -> Column:
        """Look up a column by (case-insensitive) name.

        Raises
        ------
        CatalogError
            If the column does not exist.
        """
        try:
            return self._by_name[name.lower()]
        except KeyError as exc:
            raise CatalogError(f"no column {name!r} in table {self.name!r}") from exc

    def has_column(self, name: str) -> bool:
        return name.lower() in self._by_name

    def is_source_column(self, name: str) -> bool:
        """Whether ``name`` is this table's data source column."""
        return self.source_column is not None and name.lower() == self.source_column.lower()

    def column_index(self, name: str) -> int:
        """Zero-based position of a column in the declaration order."""
        lowered = name.lower()
        for i, column in enumerate(self.columns):
            if column.name.lower() == lowered:
                return i
        raise CatalogError(f"no column {name!r} in table {self.name!r}")

    def __repr__(self) -> str:
        return f"TableSchema({self.name!r}, source_column={self.source_column!r})"


def heartbeat_schema() -> TableSchema:
    """Schema of the system Heartbeat table (Section 3.3).

    Two columns: the data source id (primary key, text) and the recency
    timestamp (epoch seconds). Each Heartbeat row is maintained by — and
    therefore tagged with — its own source, so ``source_id`` doubles as the
    table's data source column. This lets user queries that reference
    Heartbeat directly (inspecting recency is a legitimate query!) go
    through the same relevance machinery as any monitored table.
    """
    return TableSchema(
        HEARTBEAT_TABLE,
        [
            Column(HEARTBEAT_SOURCE_COLUMN, "TEXT"),
            Column(HEARTBEAT_RECENCY_COLUMN, "TIMESTAMP", TimestampDomain()),
        ],
        source_column=HEARTBEAT_SOURCE_COLUMN,
    )
