"""In-memory relations and databases.

Relations support copy-on-write sharing: a snapshot *shares* a relation's
row list instead of copying it (``share()``), and writers lazily copy the
list only when a live share still references it. Opening a
:class:`~repro.backends.memory.MemoryBackend` snapshot is therefore
O(#tables) instead of O(#rows); an unmodified database pays nothing at
all. CoW copies are recorded via :mod:`repro.obs` when telemetry is on.

Rows enter only through :meth:`Relation.insert` and :meth:`Relation.upsert`,
as SQLite stores them: outside a TEXT column a bool is its integer and a NaN
is NULL, so the engine's ``=`` on a stored value is Python's ``==``.

Keyed writes (:meth:`Relation.upsert`, :meth:`Relation.delete_keys` — the
whole ingest path) go through one ``key values -> row positions`` index
per relation, so an upsert does not scan its table and ``key = c`` /
``key IN (...)`` is a :meth:`Relation.lookup`. ``key <> c`` / ``key NOT IN
(...)``, the scan's only pushed term with no NULL literal, is a
:meth:`Relation.complement`: every row but those the index holds under a
literal or NULL, none evaluated. The first keyed write under a key builds
it (a different key rebuilds it), :meth:`Relation.insert` keeps it, a
delete rebuilds it and ``clear`` empties it. A snapshot view borrows its
parent's index for reading only, and four rules keep that safe: an upsert
overwrites in place and never moves a position; ``insert`` appends, and a
lookup drops any position at or past the view's own length; a delete or
``clear`` rebinds both list and index, so the view keeps the old pair,
which nothing mutates again; the first write through a view drops the
borrowed index first.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.catalog import Catalog, TableSchema
from repro.errors import EngineError

Row = Tuple[object, ...]


def _key_of(row: Sequence[object], key_indexes: Sequence[int]) -> Row:
    # A function of its own: inlined in ``Relation.insert``, a comprehension
    # would tax every unkeyed bulk load. A list builds faster than a generator.
    return tuple([row[i] for i in key_indexes])


class Relation:
    """A bag of rows conforming to a :class:`TableSchema`.

    Rows are tuples aligned with ``schema.columns``. The relation is a bag
    (duplicates allowed), matching SQL semantics without DISTINCT.

    The row list may be *shared* with snapshot views (see :meth:`share`).
    All mutation goes through the methods below, which copy the list first
    when shares are live; never mutate the :attr:`rows` list directly.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence[object]] = ()) -> None:
        self.schema = schema
        self._rows: List[Row] = []
        self._width = len(schema.columns)
        #: The positions where a bool or NaN is stored as SQLite stores it.
        self._numeric = tuple(i for i, c in enumerate(schema.columns) if c.sql_type != "TEXT")
        self._share_count = 0
        #: ``(key column positions, key values -> positions of the rows
        #: holding them)``, or ``None`` until a keyed write asks for it.
        #: Read-only outside this class; ``_borrowed`` when a parent's.
        self.keyed: Optional[Tuple[Tuple[int, ...], Dict[Row, List[int]]]] = None
        self._borrowed = False
        self.insert_many(rows)

    @property
    def rows(self) -> List[Row]:
        """The backing row list. Treat as read-only; mutate via methods."""
        return self._rows

    # -- copy-on-write sharing ------------------------------------------------

    def share(self) -> "Relation":
        """A snapshot view sharing this relation's row list (O(1)).

        The view observes the rows as of this instant: any later write to
        this relation copies the list first (:meth:`_materialize`), leaving
        the view's list untouched. Call :meth:`release_share` with the view
        when it is no longer needed so writers stop paying the copy.
        """
        view = Relation.__new__(Relation)
        view.schema = self.schema
        view._rows = self._rows
        view._width, view._numeric = self._width, self._numeric
        view.keyed, view._borrowed = self.keyed, self.keyed is not None
        # The view also counts one (phantom) share so that an accidental
        # write through it copies instead of corrupting the live relation.
        view._share_count = 1
        self._share_count += 1
        return view

    def release_share(self, view: "Relation") -> None:
        """Drop one share previously handed out to ``view``.

        A no-op when a write already diverged this relation from the view
        (the lists differ), so releases stay correct with overlapping
        snapshots interleaved with writes.
        """
        if view._rows is self._rows and self._share_count > 0:
            self._share_count -= 1

    def _materialize(self) -> None:
        """Copy the shared row list so in-place mutation is safe (CoW)."""
        if self._borrowed:  # a view's first write: the index is the parent's
            self.keyed, self._borrowed = None, False
        copied = list(self._rows)
        from repro.obs import instrument as obs

        tel = obs.get_default()
        if tel.enabled:
            tel.count(obs.COW_COPIES, table=self.schema.name)
            tel.count(obs.COW_ROWS_COPIED, len(copied), table=self.schema.name)
        self._rows = copied
        self._share_count = 0

    # -- mutation -------------------------------------------------------------

    def _arity_error(self, row: Sequence[object]) -> EngineError:
        return EngineError(
            f"row arity {len(row)} does not match table "
            f"{self.schema.name!r} with {self._width} columns"
        )

    def _stored(self, row: Sequence[object]) -> Row:
        """``row`` as SQLite stores it (validated for arity)."""
        if len(row) != self._width:
            raise self._arity_error(row)
        row = tuple(row)
        for i in self._numeric:
            value = row[i]
            if value is True or value is False or value != value:
                row = row[:i] + (None if value != value else int(value),) + row[i + 1 :]
        return row

    def insert(self, row: Sequence[object]) -> None:
        """Append one row."""
        row = self._stored(row)
        if self._share_count:
            self._materialize()
        if self.keyed is not None:
            key_indexes, index = self.keyed
            index.setdefault(_key_of(row, key_indexes), []).append(len(self._rows))
        self._rows.append(row)

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.insert(row)

    def index_on(self, key_indexes: Sequence[int]) -> Dict[Row, List[int]]:
        """The key index over ``key_indexes``, (re)built on demand (always for a view): O(rows)."""
        key_indexes = tuple(key_indexes)
        if self._borrowed or self.keyed is None or self.keyed[0] != key_indexes:
            index: Dict[Row, List[int]] = {}
            for position, row in enumerate(self._rows):
                index.setdefault(_key_of(row, key_indexes), []).append(position)
            self.keyed, self._borrowed = (key_indexes, index), False
        return self.keyed[1]

    def upsert(self, key_indexes: Sequence[int], row: Sequence[object]) -> None:
        """Insert ``row``, replacing whatever rows hold its key.

        The single holder of a key is overwritten in place and keeps its
        position; several holders (a bag loaded by :meth:`insert`) are
        deleted first and the row is appended.
        """
        row = self._stored(row)
        key = _key_of(row, key_indexes)
        held = self.index_on(key_indexes).get(key)
        if held is None:
            self.insert(row)
        elif len(held) == 1:
            if self._share_count:
                self._materialize()
            self._rows[held[0]] = row
        else:
            self.delete_keys(key_indexes, [key])
            self.insert(row)

    def delete_keys(self, key_indexes: Sequence[int], keys: Iterable[Sequence[object]]) -> int:
        """Delete the rows whose key columns equal any of ``keys``.

        Returns the number of rows removed. One pass over the table, and
        only when some key is held; the survivors keep their order and the
        index is rebuilt over them in the same pass.
        """
        index = self.index_on(key_indexes)
        doomed = {position for key in keys for position in index.get(tuple(key), ())}
        if doomed:
            # Rebinding to a fresh list and index never disturbs snapshot shares.
            key_indexes, index, kept = tuple(key_indexes), {}, []
            for position, row in enumerate(self._rows):
                if position not in doomed:
                    index.setdefault(_key_of(row, key_indexes), []).append(len(kept))
                    kept.append(row)
            self._rows, self.keyed, self._share_count = kept, (key_indexes, index), 0
        return len(doomed)

    def clear(self) -> None:
        """Remove every row (CoW-safe); a keyed relation stays keyed."""
        if self._share_count:
            # Live shares keep the old list; just point at a fresh one.
            self._rows = []
            self._share_count = 0
        else:
            self._rows.clear()
        if self.keyed is not None:
            self.keyed, self._borrowed = (self.keyed[0], {}), False

    # -- reading --------------------------------------------------------------

    def lookup(self, column: int, values: Iterable[object]) -> Optional[List[Row]]:
        """The rows, in position order, whose ``column`` equals one of
        ``values`` by Python's ``==`` (a NULL too: the caller re-checks its
        own), or ``None`` unless keyed on ``column`` alone."""
        keyed, rows = self.keyed, self._rows
        if keyed is None or keyed[0] != (column,):
            return None
        held = {p for value in values for p in keyed[1].get((value,), ()) if p < len(rows)}
        return [rows[p] for p in sorted(held)]

    def complement(self, column: int, values: Iterable[object]) -> Optional[List[Row]]:
        """The rows, in position order, whose ``column`` is not NULL and none
        of ``values`` by Python's ``==``; ``None`` unless keyed on ``column`` alone."""
        keyed, rows = self.keyed, self._rows
        if keyed is None or keyed[0] != (column,):
            return None
        held = {p for value in [*values, None] for p in keyed[1].get((value,), ()) if p < len(rows)}
        out: List[Row] = []
        start = 0
        for p in sorted(held):
            out += rows[start:p]
            start = p + 1
        return out + rows[start:]

    def copy(self) -> "Relation":
        clone = Relation(self.schema)
        clone._rows = list(self._rows)
        return clone

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema.name!r}, {len(self._rows)} rows)"


class Database:
    """A named collection of relations plus the catalog they conform to."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._relations: Dict[str, Relation] = {}
        for schema in catalog:
            self._relations[schema.name.lower()] = Relation(schema)

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name.lower()]
        except KeyError as exc:
            raise EngineError(f"no relation {name!r} in database") from exc

    def has(self, name: str) -> bool:
        return name.lower() in self._relations

    def add_table(self, schema: TableSchema, rows: Iterable[Sequence[object]] = ()) -> Relation:
        """Register a new table (also added to the catalog) and load rows."""
        if not self.catalog.has(schema.name):
            self.catalog.add(schema)
        relation = Relation(schema, rows)
        self._relations[schema.name.lower()] = relation
        return relation

    def insert(self, table: str, row: Sequence[object]) -> None:
        self.relation(table).insert(row)

    def insert_many(self, table: str, rows: Iterable[Sequence[object]]) -> None:
        self.relation(table).insert_many(rows)

    def copy(self) -> "Database":
        """Deep-enough copy: relations are copied, the catalog is shared.

        O(#rows): an independent database a caller may mutate freely (the
        Theorem-1 trials in the relevance property tests and
        ``tools/fuzz_relevance.py`` do). Backend snapshots never copy; they
        are :meth:`snapshot_view`.
        """
        clone = Database.__new__(Database)
        clone.catalog = self.catalog
        clone._relations = {name: rel.copy() for name, rel in self._relations.items()}
        return clone

    def snapshot_view(self) -> "Database":
        """A copy-on-write snapshot of the whole database, O(#tables).

        Pair with :meth:`release_view` when the snapshot closes so writers
        stop copying for it.
        """
        view = Database.__new__(Database)
        view.catalog = self.catalog
        view._relations = {name: rel.share() for name, rel in self._relations.items()}
        return view

    def release_view(self, view: "Database") -> None:
        """Release every share a :meth:`snapshot_view` result still holds."""
        for name, relation in self._relations.items():
            shared = view._relations.get(name)
            if shared is not None:
                relation.release_share(shared)

    def tables(self) -> List[str]:
        return sorted(self._relations)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{name}={len(rel)}" for name, rel in sorted(self._relations.items()))
        return f"Database({sizes})"
