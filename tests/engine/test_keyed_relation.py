"""The keyed relation against the scan it replaces.

``Relation.upsert`` / ``delete_keys`` answer from a key index; the model
below is the table scan they replaced, kept verbatim
(``[r for r in rows if key(r) != k] + [row]``), so every interleaving of
writes must leave the two holding the same bag.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Catalog, Column, MemoryBackend, TableSchema
from repro.engine import Relation

SCHEMA = TableSchema(
    "t",
    [Column("a", "TEXT"), Column("b", "INTEGER"), Column("c", "INTEGER")],
    source_column="a",
)
KEYS = [(0,), (0, 1)]

_row = st.tuples(st.sampled_from("xyz"), st.integers(0, 2), st.integers(0, 9))
_key = st.sampled_from(KEYS)
_op = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("insert_many"), st.lists(_row, max_size=4)),
    st.tuples(st.just("upsert"), _key, _row),
    st.tuples(st.just("delete_keys"), _key, st.lists(_row, max_size=3)),
    st.tuples(st.just("delete_where"), st.sampled_from("xyz")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("share")),
    st.tuples(st.just("release")),
    st.tuples(st.just("write_through_view"), _key, _row),
)


def _key_of(row, key_indexes):
    return tuple(row[i] for i in key_indexes)


class ScanModel:
    """The parent's implementation: every keyed write scans the list."""

    def __init__(self):
        self.rows = []

    def upsert(self, key_indexes, row):
        key = _key_of(row, key_indexes)
        self.rows = [r for r in self.rows if _key_of(r, key_indexes) != key] + [row]

    def delete_keys(self, key_indexes, keys):
        wanted = set(keys)
        self.rows = [r for r in self.rows if _key_of(r, key_indexes) not in wanted]


@given(st.lists(_op, max_size=40))
@settings(max_examples=300, deadline=None)
def test_keyed_relation_equals_the_scan_model(ops):
    relation, model = Relation(SCHEMA), ScanModel()
    views = []  # (view, the rows it must keep reading)
    for op in ops:
        kind = op[0]
        if kind == "insert":
            relation.insert(op[1])
            model.rows.append(op[1])
        elif kind == "insert_many":
            relation.insert_many(op[1])
            model.rows.extend(op[1])
        elif kind == "upsert":
            _, key_indexes, row = op
            key = _key_of(row, key_indexes)
            holders = [p for p, r in enumerate(relation.rows) if _key_of(r, key_indexes) == key]
            relation.upsert(key_indexes, row)
            model.upsert(key_indexes, row)
            # At most one row per upserted key...
            assert [r for r in relation.rows if _key_of(r, key_indexes) == key] == [row]
            # ...and a single holder is overwritten where it stood.
            if len(holders) == 1:
                assert relation.rows[holders[0]] == row
        elif kind == "delete_keys":
            _, key_indexes, rows = op
            keys = [_key_of(r, key_indexes) for r in rows]
            removed = relation.delete_keys(key_indexes, keys)
            before = len(model.rows)
            model.delete_keys(key_indexes, keys)
            assert removed == before - len(model.rows)
        elif kind == "delete_where":
            relation.delete_where(lambda r: r[0] == op[1])
            model.rows = [r for r in model.rows if r[0] != op[1]]
        elif kind == "clear":
            relation.clear()
            model.rows = []
        elif kind == "share":
            views.append((relation.share(), list(relation.rows)))
        elif kind == "release":
            if views:
                relation.release_share(views.pop()[0])
        elif views:
            # A view never holds the live relation's index: a keyed write
            # through it lands on the view's own copy and nowhere else.
            _, key_indexes, row = op
            view, frozen = views.pop()
            view.upsert(key_indexes, row)
            scan = ScanModel()
            scan.rows = frozen
            scan.upsert(key_indexes, row)
            assert Counter(view.rows) == Counter(scan.rows)
        assert Counter(relation.rows) == Counter(model.rows)
        # A view shared before a write still reads its old rows.
        for view, frozen in views:
            assert view.rows == frozen


class Probed(str):
    """A key value that counts every time a row holding it is visited: a
    scan compares it (``__eq__``), an index build or probe hashes it."""

    touched = 0

    def __hash__(self):
        Probed.touched += 1
        return str.__hash__(self)

    def __eq__(self, other):
        Probed.touched += 1
        return str.__eq__(self, other)

    def __ne__(self, other):
        return not self == other


def test_an_upsert_visits_a_constant_number_of_rows():
    """Linearity by count, not by time: 1,000 upserts into a 5,000-row table
    touch O(1) rows each once the index exists (the scan touched 5,000)."""
    size, upserts = 5_000, 1_000
    backend = MemoryBackend(
        Catalog([TableSchema("t", [Column("k", "TEXT"), Column("v", "INTEGER")], source_column="k")])
    )
    backend.insert_rows("t", [(Probed(f"k{i}"), 0) for i in range(size)])
    backend.upsert_rows("t", ("k",), [(Probed("k0"), 1)])  # builds the index: O(size)

    Probed.touched = 0
    for i in range(upserts):
        backend.upsert_rows("t", ("k",), [(Probed(f"k{(i * 7) % (size + 50)}"), i)])
    assert Probed.touched <= 4 * upserts

    expected = {f"k{i}" for i in range(size)} | {f"k{(i * 7) % (size + 50)}" for i in range(upserts)}
    held = [str(k) for k, _ in backend.db.relation("t").rows]
    assert sorted(held) == sorted(expected)  # every key exactly once
