"""The keyed relation against the scan it replaces.

``Relation.upsert`` / ``delete_keys`` answer from a key index; the model
below is the table scan they replaced, kept verbatim
(``[r for r in rows if key(r) != k] + [row]``), so every interleaving of
writes must leave the two holding the same bag. A snapshot view borrows the
index for reading, so a ``key IN (...)`` read through a view must also equal
the same read over the view's rows with no index at all, and so must the
index's complement (``key <> c`` / ``key NOT IN (...)``).
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Catalog, Column, MemoryBackend, TableSchema
from repro.engine import Database, Relation
from repro.engine.evaluate import execute_query
from repro.engine.profile import QueryProfile
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve

SCHEMA = TableSchema(
    "t",
    [Column("a", "TEXT"), Column("b", "INTEGER"), Column("c", "INTEGER")],
    source_column="a",
)
CATALOG = Catalog([SCHEMA])
KEYS = [(0,), (0, 1)]

#: Key values equal under ``==`` and the engine's ``=`` (``True == 1 == 1.0``;
#: a TEXT column stores a bool as it comes), beside ones both tell apart.
_value = st.sampled_from(["x", "y", True, 1, 1.0, "1", None])
_row = st.tuples(_value, st.integers(0, 2), st.integers(0, 9))
_key = st.sampled_from(KEYS)
_op = st.one_of(
    st.tuples(st.just("insert"), _row),
    st.tuples(st.just("insert_many"), st.lists(_row, max_size=4)),
    st.tuples(st.just("upsert"), _key, _row),
    st.tuples(st.just("delete_keys"), _key, st.lists(_row, max_size=3)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("share")),
    st.tuples(st.just("release")),
    st.tuples(st.just("upsert_through_view"), _key, _row),
    st.tuples(st.just("insert_through_view"), _row),
    st.tuples(st.just("lookup"), st.lists(_value, min_size=1, max_size=4)),
    st.tuples(st.just("complement"), st.lists(_value, min_size=1, max_size=3)),
)


def _key_of(row, key_indexes):
    return tuple(row[i] for i in key_indexes)


class ScanModel:
    """The parent's implementation: every keyed write scans the list."""

    def __init__(self, rows=()):
        self.rows = list(rows)

    def upsert(self, key_indexes, row):
        key = _key_of(row, key_indexes)
        self.rows = [r for r in self.rows if _key_of(r, key_indexes) != key] + [row]

    def delete_keys(self, key_indexes, keys):
        wanted = set(keys)
        self.rows = [r for r in self.rows if _key_of(r, key_indexes) not in wanted]


def _database(relation):
    """A database whose table ``t`` is ``relation`` itself (a shared view
    too): the engine has no door for installing a relation object, so the
    test sets it where the database keeps it."""
    db = Database(CATALOG)
    db._relations["t"] = relation
    return db


def _select_in(relation, values):
    """``SELECT * FROM t WHERE a IN (values)`` over ``relation`` and, with
    its profile, whether it ran as an index lookup. The literals go into the
    AST directly: the parser makes no bool literal (``TRUE`` is ``1``)."""
    db = _database(relation)
    resolved = resolve(parse_query("SELECT * FROM t WHERE a IN ('?')"), CATALOG)
    resolved.query.where.values = tuple(ast.Literal(v) for v in values)
    profile = QueryProfile("lookup")
    rows = execute_query(db, resolved, profile=profile).rows
    return rows, profile.operators[0].detail.startswith("index lookup")


#: A view's insert once appended its own position into the parent's index,
#: and the parent's next upsert of that key raised ``IndexError``.
@example([
    ("upsert", (0,), ("x", 0, 0)),
    ("share",),
    ("insert_through_view", ("y", 0, 0)),
    ("upsert", (0,), ("y", 1, 1)),
    ("lookup", ["y"]),
])
@given(st.lists(_op, max_size=40))
@settings(max_examples=300, deadline=None)
def test_keyed_relation_equals_the_scan_model(ops):
    relation, model = Relation(SCHEMA), ScanModel()
    views = []  # [view, the rows it must keep reading]
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
        elif kind == "clear":
            relation.clear()
            model.rows = []
        elif kind == "share":
            views.append([relation.share(), list(relation.rows)])
        elif kind == "release":
            if views:
                relation.release_share(views.pop()[0])
        elif kind == "lookup":
            # Through the newest view, else the live relation: the borrowed
            # (or own) index answers exactly what a scan of its rows does.
            target = views[-1][0] if views else relation
            found, looked_up = _select_in(target, op[1])
            assert looked_up == (target.keyed is not None and target.keyed[0] == (0,))
            assert found == _select_in(Relation(SCHEMA, target.rows), op[1])[0]
            assert target.lookup(0, op[1]) in (None, [r for r in target.rows if r[0] in op[1]])
        elif kind == "complement":
            # So does the index's complement (a NULL literal: the scan).
            target = views[-1][0] if views else relation
            literals = ["NULL" if v is None else repr(v) for v in op[1] if v is not True] or ["NULL"]
            for where in (f"a NOT IN ({', '.join(literals)})", f"a <> {literals[0]}"):
                assert _select(target, where)[0] == _select(Relation(SCHEMA, target.rows), where)[0]
        elif views:
            # A write through a view lands on the view's own copy, and on
            # nothing the live relation or another view reads.
            view = views[-1]
            scan = ScanModel(view[1])
            if kind == "insert_through_view":
                view[0].insert(op[1])
                scan.rows.append(op[1])
            else:
                view[0].upsert(op[1], op[2])
                scan.upsert(op[1], op[2])
            assert Counter(view[0].rows) == Counter(scan.rows)
            view[1] = list(view[0].rows)
        assert Counter(relation.rows) == Counter(model.rows)
        # A view shared before a write still reads its old rows.
        for view, frozen in views:
            assert view.rows == frozen


def _select(relation, where, compiled=True):
    """``SELECT * FROM t WHERE <where>`` over ``relation``: its rows and the
    detail of its scan."""
    db = _database(relation)
    resolved = resolve(parse_query(f"SELECT * FROM t WHERE {where}"), CATALOG)
    profile = QueryProfile(where)
    rows = execute_query(db, resolved, compiled=compiled, profile=profile).rows
    return rows, profile.operators[0].detail


#: Keys equal to ``1`` (``True == 1 == 1.0``), keys that are not, and NULL.
MIXED = [None, True, 1, 1.0, "1", "a", "b"]
COMPLEMENTS = {
    "a NOT IN (1, 'x')": ["1", "a", "b"],
    "a <> 1": ["1", "a", "b"],
    "1 <> a": ["1", "a", "b"],
}


def _assert_complement_is_the_scan(relation, expected_keys):
    for where in COMPLEMENTS:
        rows, detail = _select(relation, where)
        assert detail == "index complement, 1 pushed predicate(s)"
        # In order and row for row: the interpreter, and a scan of an unkeyed copy.
        assert rows == _select(relation, where, compiled=False)[0]
        assert rows == _select(Relation(SCHEMA, relation.rows), where, compiled=False)[0]
        assert [row[0] for row in rows] == expected_keys


def test_the_complement_is_the_scan_live_and_through_a_view():
    relation = Relation(SCHEMA, [(key, i % 3, i) for i, key in enumerate(MIXED)])
    relation.index_on((0,))
    _assert_complement_is_the_scan(relation, COMPLEMENTS["a <> 1"])
    view = relation.share()
    relation.insert((None, 0, 10))
    relation.insert(("c", 1, 11))
    relation.insert((1, 2, 12))
    relation.upsert((0,), ("b", 2, 13))  # one holder: overwritten in place
    relation.upsert((0,), (1, 0, 14))  # True, 1, 1.0 and 1 hold it: rebuilt
    _assert_complement_is_the_scan(view, COMPLEMENTS["a <> 1"])
    assert [row[2] for row in _select(view, "a <> 1")[0]] == [4, 5, 6]
    _assert_complement_is_the_scan(relation, ["1", "a", "b", "c"])


def test_two_pushed_terms_fall_back_to_the_scan():
    relation = Relation(SCHEMA, [(key, i % 3, i) for i, key in enumerate(MIXED)])
    relation.index_on((0,))
    for where in ("a <> 1 AND b > 0", "a NOT IN (1, 'x') AND a <> 'b'"):
        rows, detail = _select(relation, where)
        assert detail == "2 pushed predicate(s)"
        assert rows == _select(Relation(SCHEMA, relation.rows), where, compiled=False)[0]


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
