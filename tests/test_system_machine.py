"""The whole system as one state machine: the chaos invariants, stated once.

One :class:`~repro.deploy.Deployment` over a grid simulator on memory,
journaled (``fsync="always"``) and faulted by a live
:class:`~repro.faults.FaultPlan`. Records arrive as Gal & Eckstein's
periodically updated sources do: each machine heartbeats on its interval
and its sniffer polls on its own. The rules advance the clock, append a
record, add one fault rule to the live plan (a silence, a drop with or
without the heartbeats, a duplicate, a WAL or checkpoint error),
checkpoint, close and resume (cleanly, or as a crash after the last WAL
append), and report, naive or focused, over a small SQL set against the
monitoring catalog. The rules' docstrings and the invariants say what is
checked. At teardown every silence is run past the watchdog, ``recover()``
into a fresh backend reproduces every monitored table and the heartbeats,
and replaying the recorded steps on a fresh simulator gives the same
degraded set.

Tier-1 runs it derandomized; ``HYPOTHESIS_PROFILE=deep`` runs it 20 times
as long and explores (tests/conftest.py).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.backends.memory import MemoryBackend
from repro.core.bruteforce import brute_force_relevant_sources
from repro.core.report import RecencyReporter
from repro.deploy import Deployment
from repro.durable import DurabilityManager, DurabilityPolicy, recover
from repro.engine.evaluate import execute_query
from repro.faults import FaultPlan, plan_from_json
from repro.grid.simulator import GridSimulator, SimulationConfig, monitoring_catalog
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve
from tests.durable.test_manager import database_state

SILENCE_TIMEOUT = 90.0
#: A silenced machine's last records are read by then: the longest sniffer
#: poll interval plus the longest lag plus a tick (SimulationConfig defaults).
GRACE = 20.0
POLICY = DurabilityPolicy(fsync="always", checkpoint_interval=30.0)
#: Each fault kind's probability range, scaled by the drawn strength (0..1).
PROBABILITY = {
    "silence": (0.0, 0.0), "drop": (0.3, 1.0), "drop heartbeats": (0.3, 1.0),
    "duplicate": (0.1, 0.5), "wal": (0.02, 0.15), "checkpoint": (0.1, 0.5),
}  # fmt: skip
#: The kinds that may degrade the source they name.
DEGRADING = ("silence", "drop heartbeats", "wal")

_atoms = st.sampled_from(
    [
        "activity.mach_id = 'm1'",
        "activity.mach_id IN ('m1', 'm2')",
        "activity.mach_id NOT IN ('m3', 'm4')",
        "activity.mach_id LIKE 'm_'",
        "activity.mach_id BETWEEN 'm2' AND 'm3'",
        "activity.mach_id = 'm9'",
        "activity.value = 'idle'",
        "activity.value <> 'busy'",
        "activity.value IS NULL",
        "routing.mach_id = 'm2'",
        "routing.neighbor IN ('m1', 'm9')",
        "activity.mach_id = routing.mach_id",
        "activity.mach_id = routing.neighbor",
        "routing.mach_id = routing.neighbor",
    ]
)
_where = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} AND {b})", inner, inner),
        st.builds(lambda a, b: f"({a} OR {b})", inner, inner),
        st.builds(lambda a: f"NOT ({a})", inner),
    ),
    max_leaves=5,
)
#: A machine by position; positions past the last machine wrap around.
_machine = st.integers(0, 5)


class World:
    """One deployment and every step it took (:meth:`do`), so that a fresh
    world can replay them."""

    def __init__(self, machines: int, seed: int, plan_seed: int) -> None:
        self.args = (machines, seed, plan_seed)
        self.data_dir = tempfile.mkdtemp(prefix="trac-machine-")
        self.plan = FaultPlan(seed=plan_seed)
        self.steps: list = []
        self.start(resume=False)

    def start(self, resume: bool) -> None:
        # The rules come along; the plan's state comes from the checkpoint.
        self.plan = plan_from_json(self.plan.to_json())
        self.manager = DurabilityManager(self.data_dir, policy=POLICY, resume=resume)
        self.sim = GridSimulator(
            SimulationConfig(num_machines=self.args[0], seed=self.args[1]),
            fault_plan=self.plan,
            silence_timeout=SILENCE_TIMEOUT,
            durability=self.manager,
        )
        self.deployment = Deployment(self.sim)
        self.reporter = RecencyReporter(
            self.sim.backend, create_temp_tables=False, sources=self.sim.sources
        )

    def do(self, op: str, *args) -> None:
        self.steps.append((op, args))
        getattr(self, op)(*args)

    def machine(self, position: int) -> str:
        return self.sim.machine_ids[position % len(self.sim.machine_ids)]

    def advance(self, ticks: int) -> None:
        for _ in range(ticks):
            self.deployment.step()

    def append(self, position: int, value: str) -> None:
        self.sim.machines[self.machine(position)].set_activity(self.sim.now, value)

    def inject(self, kind: str, position: int, strength: float) -> None:
        source, (low, high) = self.machine(position), PROBABILITY[kind]
        probability = low + strength * (high - low)
        if kind == "silence":
            self.plan.silence(source, start=self.sim.now)
        elif kind.startswith("drop"):
            self.plan.drop_records(source, probability, spare_heartbeats=kind == "drop")
        elif kind == "duplicate":
            self.plan.duplicate_records(source, probability=probability)
        else:
            self.plan.durability_error(source if kind == "wal" else "*", kind, probability)

    def checkpoint(self) -> None:
        self.manager.checkpoint(self.sim.now)

    def resume(self, clean: bool) -> None:
        self.close(clean)
        self.start(resume=True)

    def close(self, clean: bool) -> None:
        """``clean=False`` skips the final checkpoint, as a crash right
        after the last (fsynced) WAL append would."""
        self.reporter.close()
        if not clean:
            self.manager.close(self.sim.now, final_checkpoint=False)
            self.sim.durability = None
        self.deployment.close()


def records(registry) -> dict:
    """Every per-source record, field by field (``SourceState`` has no
    ``__eq__``), but the breaker: mechanism state no checkpoint carries."""
    return {
        sid: {name: getattr(state, name) for name in type(state).__slots__ if name != "breaker"}
        for sid, state in registry.snapshot().items()
    }


@settings(max_examples=10, stateful_step_count=25, deadline=None, derandomize=True)
class SystemMachine(RuleBasedStateMachine):
    @initialize(machines=st.integers(4, 6), seed=st.integers(0, 2**16), plan=st.integers(0, 2**16))
    def start(self, machines, seed, plan):
        self.world = World(machines, seed, plan)
        self.highest: dict = {}  # per source, the highest recency seen
        self.faulted: set = set()  # the sources a DEGRADING rule names
        self.silenced: dict = {}  # source -> where its data stops
        self.resumed_at = self.checkpointed_at = 0.0

    @property
    def sim(self):
        return self.world.sim

    def overdue(self) -> set:
        """Sources silent past the watchdog (and the grace for their last
        records), resumes or not."""
        now = self.sim.now
        return {sid for sid, t in self.silenced.items() if now - t > GRACE + SILENCE_TIMEOUT}

    @rule(ticks=st.integers(1, 120))
    def advance(self, ticks):
        self.world.do("advance", ticks)

    @rule(position=_machine, value=st.sampled_from(["idle", "busy"]))
    def append(self, position, value):
        self.world.do("append", position, value)

    # A silence is drawn as often as every other kind together.
    @rule(
        kind=st.just("silence") | st.sampled_from(sorted(PROBABILITY)),
        position=_machine,
        strength=st.floats(0, 1),
    )
    def inject(self, kind, position, strength):
        source = self.world.machine(position)
        if kind == "silence":
            if source in self.silenced:
                return
            # Resumed behind the WAL, the source has data past the clock:
            # it falls silent where that data ends.
            recency = self.sim.reported_recency().get(source, float("-inf"))
            self.silenced[source] = max(self.sim.now, recency)
        if kind in DEGRADING:
            self.faulted.add(source)
        self.world.do("inject", kind, position, strength)

    @precondition(lambda self: self.sim.now > self.checkpointed_at)
    @rule()
    def checkpoint(self):
        self.world.do("checkpoint")
        self.checkpointed_at = self.sim.now

    @precondition(lambda self: self.sim.now > self.resumed_at)
    @rule(clean=st.booleans())
    def resume(self, clean):
        """The WAL-acknowledged watermarks survive; after a clean close
        (its final checkpoint written) so does every per-source record."""
        manager = self.world.manager
        acked, before = manager.acked(), records(self.sim.sources)
        written = manager.checkpoints_written
        self.world.do("resume", clean)
        self.resumed_at = self.checkpointed_at = self.sim.now
        recovered, recency = self.world.manager.recovered, self.sim.reported_recency()
        for sid, offset in acked["offsets"].items():
            assert recovered.offsets.get(sid, 0) >= offset, (sid, recovered.offsets, acked)
        for sid, acked_recency in acked["recency"].items():
            assert recency.get(sid, float("-inf")) >= acked_recency, (sid, recency, acked)
        if clean and manager.checkpoints_written > written:
            assert records(self.sim.sources) == before

    @rule(
        where=_where,
        method=st.sampled_from(["naive", "focused"]),
        table=st.sampled_from(["activity", "routing"]),
        position=_machine,
        other=_machine,
        value=st.sampled_from(["idle", "busy"]),
    )
    def report(self, where, method, table, position, other, value):
        """Complete against the brute-force oracle (Corollaries 3 and 5; a
        source with no Heartbeat row yet is named as unreported), every
        overdue silence suspect, and an insert from a source outside the
        exact set leaves the answer alone (Theorem 1)."""
        sql = f"SELECT activity.mach_id FROM activity, routing WHERE {where}"
        report = self.world.reporter.report(sql, method=method)
        db, resolved = self.sim.backend.db, resolve(parse_query(sql), self.sim.catalog)
        exact = brute_force_relevant_sources(db, resolved)
        named = report.relevant_source_ids.union(report.unreported_sources)
        assert exact <= named, (sql, exact - named)
        assert self.overdue() <= report.suspect_sources, (self.overdue(), report.suspect_sources)
        source = self.world.machine(position)
        if source not in exact:
            row = (source, value if table == "activity" else self.world.machine(other), 0.0)
            trial = db.copy()
            trial.insert(table, row)
            after, before = (sorted(execute_query(d, resolved).rows) for d in (trial, db))
            assert after == before, (sql, table, row)

    @invariant()
    def recency_never_goes_down(self):
        recency = self.sim.reported_recency()
        for sid, highest in self.highest.items():
            assert recency.get(sid, float("-inf")) >= highest, (sid, recency, highest)
        self.highest.update(recency)

    @invariant()
    def no_row_is_newer_than_its_heartbeat(self):
        heartbeats = dict(self.sim.backend.heartbeat_rows())
        for mach_id, t in self.sim.backend.execute("SELECT mach_id, event_time FROM activity").rows:
            assert t <= heartbeats.get(mach_id, float("-inf")), (mach_id, t, heartbeats)

    @invariant()
    def only_the_faulted_are_degraded_and_every_overdue_is(self):
        degraded = set(self.sim.sources.degraded())
        assert self.overdue() <= degraded <= self.faulted, (degraded, self.faulted)

    def teardown(self):
        world = getattr(self, "world", None)
        if world is None:  # it failed to start
            return
        if self.silenced:  # every silence runs long enough to be noticed
            self.advance(int(GRACE + SILENCE_TIMEOUT) + 1)
            self.only_the_faulted_are_degraded_and_every_overdue_is()
        live = database_state(self.sim.backend, self.sim.catalog)
        degraded = set(self.sim.sources.degraded())
        world.close(clean=False)
        replay = World(*world.args)
        try:
            fresh = MemoryBackend(monitoring_catalog(self.sim.machine_ids))
            recover(world.data_dir, backend=fresh)
            assert database_state(fresh, self.sim.catalog) == live
            for op, args in world.steps:
                replay.do(op, *args)
            assert set(replay.sim.sources.degraded()) == degraded
        finally:
            replay.close(clean=True)
            for done in (world, replay):
                shutil.rmtree(done.data_dir, ignore_errors=True)


TestSystemMachine = SystemMachine.TestCase


@contextlib.contextmanager
def world_after(steps, machines=4, seed=0):
    """A fresh world that took ``steps``; closed and removed afterwards."""
    world = World(machines, seed, 0)
    try:
        for op, *args in steps:
            world.do(op, *args)
        yield world
    finally:
        world.close(clean=True)
        shutil.rmtree(world.data_dir, ignore_errors=True)


def test_a_crash_resume_does_not_take_the_regrown_minute_for_silence():
    """Found by the machine: resumed at the last good checkpoint (t=5) behind
    the WAL (t=65), the watchdog counted the regrown minute as silence."""
    with world_after([("advance", 5), ("checkpoint",)]) as world:
        world.plan.durability_error("*", "checkpoint", 1.0)
        for op, arg in (("advance", 60), ("resume", False), ("advance", 91)):
            world.do(op, arg)
        assert world.sim.sources.degraded() == []


def test_a_resume_goes_on_counting_a_silence():
    """Found by the machine: a resume restarted every silence watchdog, so m3,
    silent from t=50, was degraded at t=221, not by t=160 as without it."""
    silence = [("advance", 50), ("inject", "silence", 2, 0.0), ("advance", 80)]
    with world_after(silence + [("resume", True), ("advance", 30)], machines=6, seed=5) as world:
        assert world.sim.sources.degraded() == ["m3"]


def test_a_source_that_has_not_reported_is_named():
    """Found by the machine: 7 s in, only m2 had reported, and a report on m1
    named no source at all."""
    with world_after([("advance", 7)]) as world:
        sql = "SELECT activity.mach_id FROM activity WHERE activity.mach_id = 'm1'"
        report = world.reporter.report(sql)
        assert report.relevant_source_ids == set() and "m1" in report.suspect_sources
        assert report.unreported_sources == ["m1", "m3", "m4"]
