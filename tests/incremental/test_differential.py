"""Differential oracle: incremental reports are byte-identical to from-scratch.

The property drives a randomized interleaving of heartbeats, heartbeat row
inserts, deletes, table clears and recency reports against one backend,
with two reporters attached:

* the *maintained* reporter serves eligible queries through an
  :class:`~repro.incremental.IncrementalMaintainer` with
  ``incremental_verify=True`` (every hit re-runs the from-scratch path in
  the same snapshot and raises on any divergence);
* the *oracle* reporter has no maintainer and always computes from
  scratch.

After every query step — and once more for every query at the end — the
two reports' normal/exceptional splits must compare equal, which for
:class:`~repro.core.statistics.SourceRecency` means exact float equality:
byte-identical, not approximately close.

``tools/fuzz_relevance.py`` runs the same property as a campaign with a
much larger example budget.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MemoryBackend
from repro.core.report import RecencyReporter
from repro.incremental import IncrementalMaintainer
from tests.incremental.test_maintainer import MACHINES, catalog

QUERIES = (
    # Streamable: membership is a pure function of the source id.
    "SELECT mach_id FROM activity WHERE mach_id = 'm1'",
    "SELECT mach_id FROM activity WHERE mach_id IN ('m1', 'm2') AND value = 'idle'",
    "SELECT mach_id FROM activity WHERE mach_id <> 'm3'",
    "SELECT mach_id FROM activity WHERE mach_id NOT IN ('m2', 'm4')",
    "SELECT mach_id FROM activity WHERE value = 'idle' OR mach_id = 'm2'",
    "SELECT mach_id FROM activity WHERE mach_id LIKE 'm_'",
    "SELECT mach_id FROM activity WHERE mach_id BETWEEN 'm1' AND 'm3'",
    "SELECT mach_id FROM activity",
    # Bypass: joins / join predicates keep the from-scratch path.
    "SELECT a.mach_id FROM activity a, routing r WHERE a.mach_id = r.neighbor",
    "SELECT a.mach_id FROM activity a, routing r "
    "WHERE a.mach_id = r.mach_id AND r.neighbor = 'm2'",
)


_sid = st.sampled_from(MACHINES)
_recency = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)

_op = st.one_of(
    st.tuples(st.just("hb"), _sid, _recency),
    st.tuples(st.just("insert"), _sid, _recency),
    st.tuples(st.just("delete"), _sid),
    st.tuples(st.just("query"), st.sampled_from(range(len(QUERIES)))),
    st.tuples(st.just("clear")),
)


def _assert_identical(maintained, oracle, sql):
    assert maintained.split.normal == oracle.split.normal, sql
    assert maintained.split.exceptional == oracle.split.exceptional, sql
    assert maintained.statistics.least_recent == oracle.statistics.least_recent, sql
    assert maintained.statistics.most_recent == oracle.statistics.most_recent, sql


@settings(deadline=None, max_examples=40)
@given(ops=st.lists(_op, max_size=30))
def test_incremental_report_matches_from_scratch_oracle(ops):
    backend = MemoryBackend(catalog())
    backend.insert_rows("activity", [("m1", "idle"), ("m2", "busy"), ("m3", "idle")])
    backend.insert_rows("routing", [("m1", "m2"), ("m3", "m1")])
    maintainer = IncrementalMaintainer(backend)
    maintained = RecencyReporter(
        backend,
        create_temp_tables=False,
        plan_cache_size=32,
        incremental=maintainer,
        incremental_verify=True,
    )
    oracle = RecencyReporter(backend, create_temp_tables=False, plan_cache_size=32)

    for op in ops:
        if op[0] == "hb":
            backend.upsert_heartbeat(op[1], op[2])
        elif op[0] == "insert":
            backend.insert_rows("heartbeat", [(op[1], op[2])])
        elif op[0] == "delete":
            backend.delete_rows("heartbeat", ["source_id"], [(op[1],)])
        elif op[0] == "clear":
            backend.delete_all("heartbeat")
        else:
            sql = QUERIES[op[1]]
            _assert_identical(maintained.report(sql), oracle.report(sql), sql)

    for sql in QUERIES:
        _assert_identical(maintained.report(sql), oracle.report(sql), sql)
