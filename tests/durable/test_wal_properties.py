"""Property tests: a damaged journal always yields a prefix, never raises.

The durability contract for :func:`repro.durable.wal.scan_frames` is that
*any* suffix damage — truncation at an arbitrary byte, or a flipped byte
anywhere in the file — shortens the recovered prefix but never corrupts
or reorders it, and never raises.  These are exactly the failure modes a
SIGKILL or a torn page can produce.  Over a real journal, any such prefix
also recovers a database whose rows are never newer than their sources'
recency.
"""

import functools
import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.memory import MemoryBackend
from repro.durable import DurabilityManager, DurabilityPolicy, recover
from repro.durable.wal import FrameWriter, repair_torn_tail, scan_frames, wal_path
from repro.faults import FaultPlan
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog

payload_lists = st.lists(
    st.binary(min_size=0, max_size=64), min_size=0, max_size=8
)


def write_journal(path, payloads):
    with FrameWriter(path, fsync="never") as writer:
        for payload in payloads:
            writer.append(payload)


@settings(max_examples=120, deadline=None)
@given(payloads=payload_lists, cut=st.integers(min_value=0, max_value=10_000))
def test_truncation_always_yields_a_prefix(tmp_path_factory, payloads, cut):
    path = str(tmp_path_factory.mktemp("wal") / "j.wal")
    write_journal(path, payloads)
    size = os.path.getsize(path)
    with open(path, "rb+") as fp:
        fp.truncate(min(cut, size))
    scan = scan_frames(path)  # must not raise
    assert scan.payloads == payloads[: len(scan.payloads)]
    if cut >= size:
        assert scan.payloads == payloads and scan.torn is None


@settings(max_examples=120, deadline=None)
@given(
    payloads=payload_lists.filter(bool),
    position=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
)
def test_single_byte_corruption_always_yields_a_prefix(
    tmp_path_factory, payloads, position, flip
):
    path = str(tmp_path_factory.mktemp("wal") / "j.wal")
    write_journal(path, payloads)
    data = bytearray(open(path, "rb").read())
    position %= len(data)
    data[position] ^= flip
    open(path, "wb").write(bytes(data))
    scan = scan_frames(path)  # must not raise
    assert scan.payloads == payloads[: len(scan.payloads)]


@functools.lru_cache(maxsize=None)
def simulated_segment():
    """One WAL-only segment of a lossy 6-machine run: ``(bytes, machine ids)``."""
    directory = tempfile.mkdtemp()
    try:
        plan = FaultPlan(seed=4).drop_records("m2", probability=0.4)
        manager = DurabilityManager(
            directory, DurabilityPolicy(fsync="never", checkpoint_interval=1e9)
        )
        sim = GridSimulator(
            SimulationConfig(num_machines=6, seed=9), fault_plan=plan, durability=manager
        )
        sim.run(240.0)
        manager.close(final_checkpoint=False)
        with open(wal_path(directory, 0), "rb") as fp:
            return fp.read(), tuple(sim.machine_ids)
    finally:
        shutil.rmtree(directory)


@settings(max_examples=60, deadline=None)
@given(cut=st.floats(min_value=0.0, max_value=1.0))
def test_a_truncated_journal_never_recovers_a_row_newer_than_its_source(
    tmp_path_factory, cut
):
    """A poll's rows and the recency they publish share one frame, so a
    crash at any byte recovers no row newer than its source's recency."""
    data, machines = simulated_segment()
    directory = str(tmp_path_factory.mktemp("data"))
    with open(wal_path(directory, 0), "wb") as fp:
        fp.write(data[: round(cut * len(data))])
    backend = MemoryBackend(monitoring_catalog(list(machines)))
    recovered = recover(directory, backend=backend)
    recency = dict(backend.heartbeat_rows())
    assert recency == recovered.recency
    for schema in backend.catalog.monitored_tables():
        source = schema.column_index(schema.source_column)
        stamp = schema.column_index("event_time")
        for row in backend.execute(f"SELECT * FROM {schema.name}").rows:
            assert row[stamp] <= recency[row[source]], (schema.name, row)


@settings(max_examples=60, deadline=None)
@given(payloads=payload_lists, cut=st.integers(min_value=0, max_value=10_000))
def test_repair_then_append_recovers_cleanly(tmp_path_factory, payloads, cut):
    path = str(tmp_path_factory.mktemp("wal") / "j.wal")
    write_journal(path, payloads)
    with open(path, "rb+") as fp:
        fp.truncate(min(cut, os.path.getsize(path)))
    before = scan_frames(path)
    repair_torn_tail(path, before)
    write_journal(path, [b"appended-after-repair"])
    after = scan_frames(path)
    assert after.torn is None
    assert after.payloads == before.payloads + [b"appended-after-repair"]
