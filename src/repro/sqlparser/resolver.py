"""Name resolution: bind column references to catalog tables.

Resolution walks a parsed query and, for every :class:`ColumnRef`:

* finds the FROM item it binds to (by qualifier, or uniquely by name when
  unqualified),
* records the binding key on the node (``ColumnRef.binding_key``), and
* marks whether the reference hits that table's data source column
  (``ColumnRef.is_source``) — the distinction everything in Section 4
  hinges on.

The result, a :class:`ResolvedQuery`, also exposes the per-binding
:class:`RelationBinding` list used by the classifier and the recency-query
generator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.catalog import Catalog, TableSchema
from repro.errors import ResolutionError
from repro.sqlparser import ast


class RelationBinding:
    """One FROM-clause binding: a table schema under a binding key.

    Attributes
    ----------
    key:
        Lower-cased alias (if given) or table name; what qualified column
        references use.
    table_ref:
        The original :class:`~repro.sqlparser.ast.TableRef`.
    schema:
        The :class:`~repro.catalog.TableSchema` from the catalog.
    """

    __slots__ = ("key", "table_ref", "schema")

    def __init__(self, key: str, table_ref: ast.TableRef, schema: TableSchema) -> None:
        self.key = key
        self.table_ref = table_ref
        self.schema = schema

    @property
    def source_column(self) -> Optional[str]:
        """Name of this relation's data source column, if any."""
        return self.schema.source_column

    def __repr__(self) -> str:
        return f"RelationBinding({self.key!r} -> {self.schema.name!r})"


class ResolvedQuery:
    """A query whose column references have all been bound.

    Attributes
    ----------
    query:
        The (annotated in place) parsed query.
    bindings:
        FROM-clause bindings in declaration order.
    catalog:
        The catalog resolution ran against.
    generations:
        The ``(table, schema generation)`` pairs it read, sorted; see
        :meth:`is_current`.
    """

    def __init__(self, query: ast.Query, bindings: List[RelationBinding], catalog: Catalog) -> None:
        self.query = query
        self.bindings = bindings
        self.catalog = catalog
        names = sorted({b.schema.name.lower() for b in bindings})
        self.generations = tuple((name, catalog.table_generation(name)) for name in names)
        self._by_key: Dict[str, RelationBinding] = {b.key: b for b in bindings}
        #: Relevance plans built from this resolution, by ``use_constraints``
        #: (:func:`repro.core.relevance.memoized_relevance_plan`). They live
        #: and die with the resolution, which the resolved-query cache
        #: revalidates against the referenced tables' schema generations.
        self.relevance_plans: Dict[bool, object] = {}
        #: ``(template, copies)`` when the resolved-query cache bound this
        #: resolution from an earlier one of the same shape: ``copies`` maps
        #: the ``id`` of each of the template's literal nodes, and of each
        #: node above one, to this tree's (:func:`repro.sqlparser.ast.substitute`).
        #: The relevance planner re-binds the template's plan with it.
        self.bound_from: Optional[Tuple["ResolvedQuery", Dict[int, ast.Expr]]] = None

    def rebound(
        self,
        query: ast.Query,
        bound_from: Optional[Tuple["ResolvedQuery", Dict[int, ast.Expr]]] = None,
    ) -> "ResolvedQuery":
        """This resolution for ``query``, a copy of this one's tree that
        differs only in literals (:func:`repro.sqlparser.ast.substitute`):
        the bindings, generations and lineage plan are shared, the
        relevance plans start empty."""
        twin = ResolvedQuery.__new__(ResolvedQuery)
        twin.__dict__.update(self.__dict__)
        twin.query = query
        twin.relevance_plans = {}
        twin.bound_from = bound_from
        return twin

    def binding(self, key: str) -> RelationBinding:
        """Look up a binding by its (lower-cased) key."""
        try:
            return self._by_key[key.lower()]
        except KeyError as exc:
            raise ResolutionError(f"no FROM item bound as {key!r}") from exc

    def is_current(self, catalog: Catalog) -> bool:
        """Whether this is still a valid resolution against ``catalog``:
        the same catalog, and no referenced table's schema changed since."""
        return catalog is self.catalog and all(
            catalog.table_generation(name) == generation for name, generation in self.generations
        )

    @property
    def is_single_relation(self) -> bool:
        return len(self.bindings) == 1

    def __repr__(self) -> str:
        return f"ResolvedQuery(bindings={self.bindings!r})"


def resolve(query: ast.Query, catalog: Catalog) -> ResolvedQuery:
    """Resolve all names in ``query`` against ``catalog``.

    Raises
    ------
    ResolutionError
        For unknown tables/columns, ambiguous unqualified references or
        duplicate binding keys.
    """
    bindings: List[RelationBinding] = []
    seen_keys: Dict[str, str] = {}
    for table_ref in query.tables:
        if not catalog.has(table_ref.name):
            raise ResolutionError(f"unknown table {table_ref.name!r}")
        key = table_ref.binding_key
        if key in seen_keys:
            raise ResolutionError(
                f"duplicate FROM binding {key!r}; use distinct aliases for self-joins"
            )
        seen_keys[key] = table_ref.name
        bindings.append(RelationBinding(key, table_ref, catalog.get(table_ref.name)))

    resolved = ResolvedQuery(query, bindings, catalog)

    for item in query.select_items:
        if item.is_star:
            continue
        assert item.expr is not None
        _resolve_expr(item.expr, resolved)
    if query.where is not None:
        _resolve_expr(query.where, resolved)
    for expr in query.group_by:
        _resolve_expr(expr, resolved)
    for item in query.order_by:
        _resolve_expr(item.expr, resolved)
    return resolved


def _resolve_expr(expr: ast.Expr, resolved: ResolvedQuery) -> None:
    for ref in ast.column_refs(expr):
        _bind_column(ref, resolved)


def _bind_column(ref: ast.ColumnRef, resolved: ResolvedQuery) -> None:
    if ref.qualifier is not None:
        key = ref.qualifier.lower()
        binding = resolved.binding(key)
        if not binding.schema.has_column(ref.name):
            raise ResolutionError(
                f"table {binding.schema.name!r} (bound as {ref.qualifier!r}) "
                f"has no column {ref.name!r}"
            )
        ref.binding_key = key
        ref.is_source = binding.schema.is_source_column(ref.name)
        return

    matches = [b for b in resolved.bindings if b.schema.has_column(ref.name)]
    if not matches:
        raise ResolutionError(f"no table in FROM clause has a column {ref.name!r}")
    if len(matches) > 1:
        keys = ", ".join(b.key for b in matches)
        raise ResolutionError(f"ambiguous column {ref.name!r}; candidates: {keys}")
    binding = matches[0]
    ref.binding_key = binding.key
    ref.is_source = binding.schema.is_source_column(ref.name)
