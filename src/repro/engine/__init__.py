"""A small in-memory relational engine.

This engine exists for three reasons:

* it backs the :class:`~repro.backends.memory.MemoryBackend`, so the whole
  TRAC pipeline runs with zero external dependencies;
* it is the ground-truth executor for the brute-force relevance oracle of
  Section 4.1/5.2 (which substitutes a relation by the cross product of its
  column domains — something no SQL backend can do directly); and
* property-based tests cross-check it against SQLite on random data.

It supports exactly the dialect of :mod:`repro.sqlparser`: conjunctive /
disjunctive SPJ queries with optional aggregates, DISTINCT and GROUP BY.
Plans are simple but not naive: single-relation predicates are pushed down,
equi-joins become hash joins, and everything else falls back to filtered
nested loops.
"""

from repro.engine.relation import Relation, Database
from repro.engine.evaluate import execute_query, execute_sql

__all__ = ["Relation", "Database", "execute_query", "execute_sql"]
