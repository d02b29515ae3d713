"""Storage backends.

The paper's prototype ran inside PostgreSQL; the essential property it used
is that the user query and the system-generated recency query execute
against the *same snapshot* (Section 3.2's first requirement — PostgreSQL
MVCC gives this for free inside one statement/transaction).

We expose that property behind a small :class:`~repro.backends.base.Backend`
interface with two implementations:

* :class:`~repro.backends.sqlite.SQLiteBackend` — a real DBMS (stdlib
  ``sqlite3``) in WAL mode, where a deferred read transaction sees a stable
  snapshot while writer connections proceed;
* :class:`~repro.backends.memory.MemoryBackend` — the pure-Python mini
  engine, whose snapshots are copy-on-write views. It requires nothing outside
  this repository and doubles as ground truth in differential tests.
"""

from repro.backends.base import copy_tables
from repro.backends.sqlite import SQLiteBackend
from repro.backends.memory import MemoryBackend

__all__ = ["SQLiteBackend", "MemoryBackend", "copy_tables"]
