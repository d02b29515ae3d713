"""Unit tests for the FaultPlan decision logic: determinism, scripted
one-shots, record filtering and the JSON document form."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.faults import KINDS, FaultPlan, InjectedFault, plan_from_json
from repro.grid.events import EventKind, LogEvent


def _heartbeat(ts: float, source: str = "m1") -> LogEvent:
    return LogEvent(ts, source, EventKind.HEARTBEAT, {})


def _state(ts: float, source: str = "m1") -> LogEvent:
    return LogEvent(ts, source, EventKind.MACHINE_STATE, {"value": "idle"})


class TestBuilders:
    def test_chaining_returns_self(self):
        plan = FaultPlan(seed=1)
        assert plan.poll_error("m1", probability=0.5) is plan
        assert plan.silence("m2", start=10.0) is plan

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().poll_error("m1", probability=1.5)
        with pytest.raises(SimulationError):
            FaultPlan().drop_records("m1", probability=-0.1)

    def test_rule_that_never_fires_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().poll_error("m1")  # no probability, no scripted times

    def test_backend_error_op_validated(self):
        with pytest.raises(SimulationError):
            FaultPlan().backend_error("m1", op="query", probability=0.5)

    def test_silence_needs_concrete_source_and_ordered_window(self):
        with pytest.raises(SimulationError):
            FaultPlan().silence("*", start=0.0)
        with pytest.raises(SimulationError):
            FaultPlan().silence("m1", start=10.0, end=5.0)
        with pytest.raises(SimulationError):
            FaultPlan().silence("m1", start=-1.0)


class TestScriptedTriggers:
    def test_scripted_poll_error_fires_once(self):
        plan = FaultPlan(seed=0).poll_error("m1", at=[10.0])
        plan.check("poll_error", "m1", 5.0)  # before the scripted time: nothing
        with pytest.raises(InjectedFault):
            plan.check("poll_error", "m1", 12.0)
        plan.check("poll_error", "m1", 13.0)  # one-shot: consumed
        assert plan.injected == {"poll_error": 1}

    def test_wildcard_scripted_rule_fires_once_per_source(self):
        plan = FaultPlan(seed=0).backend_error("*", op="heartbeat", at=[20.0])
        with pytest.raises(InjectedFault):
            plan.check("backend_heartbeat", "m1", 25.0)
        with pytest.raises(InjectedFault):
            plan.check("backend_heartbeat", "m2", 25.0)
        plan.check("backend_heartbeat", "m1", 26.0)  # consumed for m1

    def test_permanent_flag_propagates(self):
        plan = FaultPlan(seed=0).poll_error("m1", at=[1.0], transient=False)
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("poll_error", "m1", 2.0)
        assert excinfo.value.transient is False
        assert excinfo.value.kind == "poll_error"
        assert excinfo.value.source == "m1"


class TestDeterminism:
    def _decisions(self, plan: FaultPlan, source: str, n: int = 200):
        out = []
        for i in range(n):
            try:
                plan.check("poll_error", source, float(i))
                out.append(False)
            except InjectedFault:
                out.append(True)
        return out

    def test_same_seed_same_decisions(self):
        a = FaultPlan(seed=42).poll_error("m1", probability=0.3)
        b = FaultPlan(seed=42).poll_error("m1", probability=0.3)
        assert self._decisions(a, "m1") == self._decisions(b, "m1")

    def test_different_seed_different_decisions(self):
        a = FaultPlan(seed=1).poll_error("m1", probability=0.3)
        b = FaultPlan(seed=2).poll_error("m1", probability=0.3)
        assert self._decisions(a, "m1") != self._decisions(b, "m1")

    def test_sources_draw_independent_streams(self):
        """m1's decisions must not depend on whether m2 is also consulted."""
        alone = FaultPlan(seed=7).poll_error("*", probability=0.3)
        m1_alone = self._decisions(alone, "m1")

        interleaved = FaultPlan(seed=7).poll_error("*", probability=0.3)
        m1_mixed = []
        for i in range(200):
            try:
                interleaved.check("poll_error", "m2", float(i))
            except InjectedFault:
                pass
            try:
                interleaved.check("poll_error", "m1", float(i))
                m1_mixed.append(False)
            except InjectedFault:
                m1_mixed.append(True)
        assert m1_alone == m1_mixed


class TestRecordFiltering:
    def test_scripted_drop_discards_the_next_batch(self):
        plan = FaultPlan(seed=0).drop_records("m1", at=[10.0])
        events = [_state(8.0), _state(9.0)]
        assert plan.filter_events("m1", 12.0, events) == []
        # One-shot: the following batch passes through.
        assert plan.filter_events("m1", 13.0, events) == events
        assert plan.injected["drop_records"] == 2

    def test_spare_heartbeats_keeps_liveness_signal(self):
        plan = FaultPlan(seed=0).drop_records("m1", probability=1.0, spare_heartbeats=True)
        events = [_state(1.0), _heartbeat(2.0), _state(3.0), _heartbeat(4.0)]
        survivors = plan.filter_events("m1", 5.0, events)
        assert [e.kind for e in survivors] == [EventKind.HEARTBEAT, EventKind.HEARTBEAT]

    def test_duplicates_appear_in_order(self):
        plan = FaultPlan(seed=0).duplicate_records("m1", at=[1.0])
        events = [_state(0.5), _state(0.8)]
        out = plan.filter_events("m1", 2.0, events)
        # The scripted trigger duplicates the whole batch, preserving order.
        assert out == [events[0], events[0], events[1], events[1]]

    def test_empty_batch_passes_through(self):
        plan = FaultPlan(seed=0).drop_records("m1", probability=1.0)
        assert plan.filter_events("m1", 1.0, []) == []

    def test_other_sources_unaffected(self):
        plan = FaultPlan(seed=0).drop_records("m1", probability=1.0)
        events = [_state(1.0, "m2")]
        assert plan.filter_events("m2", 2.0, events) == events


    def test_a_poll_is_one_injection_event_per_kind(self):
        """200 dropped records are one ``fault.injected`` event with a count,
        not 200 events rotating the ring; the counters still count records."""
        tel = obs.Telemetry()
        plan = (
            FaultPlan(seed=2, telemetry=tel)
            .drop_records("m1", probability=0.7)
            .duplicate_records("m1", probability=0.5)
        )
        events = [_state(float(i)) for i in range(200)]
        out = plan.filter_events("m1", 300.0, events)
        dropped = plan.injected["drop_records"]
        assert 100 < dropped < 200
        assert len(out) == 200 - dropped + plan.injected["duplicate_records"]
        emitted = [e for e in tel.events.snapshot() if e.name == "fault.injected"]
        assert [(e.attributes["kind"], e.attributes["count"]) for e in emitted] == [
            ("drop_records", dropped),
            ("duplicate_records", plan.injected["duplicate_records"]),
        ]
        counter = tel.metrics.counter(
            obs.instrument.FAULTS_INJECTED, {"kind": "drop_records", "machine": "m1"}
        )
        assert counter.value == dropped


class TestState:
    """``checkpoint()`` / ``restore()``: spent triggers, RNG streams, counts."""

    SOURCES = ("m1", "m4", "m5", "m6", "s0", "s1", "*")

    def decisions(self, plan, start, n=100):
        """``n`` consultations of every injection point's question."""
        out = []
        for i in range(start, start + n):
            now = float(i)
            for source in self.SOURCES:
                for kind in KINDS[:5]:  # the raising kinds
                    try:
                        plan.check(kind, source, now)
                        out.append(None)
                    except InjectedFault as exc:
                        out.append((kind, source, exc.transient))
                out.append(plan.check_rpc(source, now))
                batch = [_state(now, source), _heartbeat(now, source), _state(now, source)]
                out.append([e.kind for e in plan.filter_events(source, now, batch)])
            out.append(sorted(plan.silenced_sources(now)))
        return out

    def make_plan(self):
        return plan_from_json(json.dumps({"seed": 9, "faults": EVERY_KIND}))

    def test_restore_mid_stream_reproduces_the_next_decisions(self):
        plan = self.make_plan()
        self.decisions(plan, 0, n=40)  # past the t=30/35 triggers, before t=50
        assert set(plan.injected) >= set(KINDS) - {"silence"}
        state = json.loads(json.dumps(plan.checkpoint()))  # as a checkpoint file holds it
        injected = dict(plan.injected)
        expected = self.decisions(plan, 40)

        resumed = self.make_plan()
        resumed.restore(state)
        assert resumed.injected == injected
        assert self.decisions(resumed, 40) == expected
        assert resumed.injected == plan.injected
        # A fresh plan does not: its spent triggers are due again.
        assert self.decisions(self.make_plan(), 40) != expected

    def test_checkpoint_is_a_copy(self):
        plan = FaultPlan(seed=1).poll_error("m1", at=[5.0])
        state = plan.checkpoint()
        with pytest.raises(InjectedFault):
            plan.check("poll_error", "m1", 6.0)
        assert state == {"fired": [{}], "rngs": [], "injected": {}}
        plan.restore(state)
        with pytest.raises(InjectedFault):  # rewound: due again
            plan.check("poll_error", "m1", 6.0)


class TestSilence:
    def test_window_semantics(self):
        plan = FaultPlan().silence("m1", start=10.0, end=20.0)
        assert plan.silenced_sources(9.0) == set()
        assert plan.silenced_sources(10.0) == {"m1"}
        assert plan.silenced_sources(19.9) == {"m1"}  # m2 is never silenced
        assert plan.silenced_sources(20.0) == set()

    def test_open_ended_silence(self):
        plan = FaultPlan().silence("m1", start=5.0)
        assert plan.silenced_sources(1e9) == {"m1"}
        assert plan.silenced_sources() == {"m1"}
        assert plan.silenced_sources(1.0) == set()
        assert plan.silenced_sources(6.0) == {"m1"}


#: One entry per kind in ``KINDS`` as a user writes it in a ``--faults`` file
#: (``source`` first, defaults omitted): what the JSON and state tests cover.
EVERY_KIND = [
    {"kind": "poll_error", "source": "m4", "at": [30.0, 35.0], "transient": False},
    {"kind": "backend_apply", "source": "*", "probability": 0.3},
    {"kind": "backend_heartbeat", "source": "m6", "probability": 0.3, "at": [50.0]},
    {"kind": "wal_append", "source": "m1", "probability": 0.25},
    {"kind": "checkpoint_write", "source": "*", "probability": 0.5, "transient": False},
    {"kind": "drop_records", "source": "m5", "probability": 0.4, "spare_heartbeats": True},
    {"kind": "duplicate_records", "source": "*", "probability": 0.2},
    {"kind": "rpc_drop", "source": "s0", "probability": 0.2, "at": [5.0]},
    {"kind": "rpc_delay", "source": "*", "probability": 0.1},
    {"kind": "rpc_duplicate", "source": "s1", "probability": 0.3},
    {"kind": "rpc_garbage", "source": "s0", "probability": 0.05},
    {"kind": "silence", "source": "m3", "start": 120.0, "end": 240.0},
]


class TestJson:
    def test_round_trip(self):
        assert [entry["kind"] for entry in EVERY_KIND] == list(KINDS)
        text = json.dumps({"seed": 9, "faults": EVERY_KIND}, indent=2)
        plan = plan_from_json(text)
        # The document *is* the list of rule fields: nothing added or lost.
        assert plan.to_json() == text
        clone = plan_from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        assert clone.seed == 9
        assert clone.silenced_sources() == {"m3"}

    @pytest.mark.parametrize("entry", EVERY_KIND, ids=lambda entry: entry["kind"])
    def test_builders_write_the_same_document(self, entry):
        fields = {k: v for k, v in entry.items() if k != "kind"}
        kind = entry["kind"]
        plan = FaultPlan()
        if kind.startswith("backend_"):
            plan.backend_error(op=kind.split("_")[1], **fields)
        elif kind in ("wal_append", "checkpoint_write"):
            plan.durability_error(op=kind.split("_")[0], **fields)
        elif kind.startswith("rpc_"):
            plan.rpc_fault(kind=kind, **fields)
        else:
            getattr(plan, kind)(**fields)
        assert json.loads(plan.to_json())["faults"] == [entry]

    def test_loaded_plan_behaves_like_the_original(self):
        text = '{"seed": 3, "faults": [{"kind": "poll_error", "source": "m1", "probability": 0.5}]}'
        a, b = plan_from_json(text), plan_from_json(text)
        decisions = []
        for plan in (a, b):
            row = []
            for i in range(50):
                try:
                    plan.check("poll_error", "m1", float(i))
                    row.append(False)
                except InjectedFault:
                    row.append(True)
            decisions.append(row)
        assert decisions[0] == decisions[1]
        assert any(decisions[0])

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"seed": 0, "faults": [{"kind": "nope", "source": "m1"}]}',
            '{"seed": 0, "faults": [{"kind": "silence", "source": "m1"}]}',
            '{"seed": 0, "faults": [{"kind": "poll_error", "source": "m1", "bogus": 1}]}',
            '{"seed": 0, "bogus": []}',
            '{"seed": 0, "faults": [{"kind": "poll_error", "source": "m1", "at": 5}]}',
        ],
    )
    def test_malformed_documents_rejected(self, text):
        with pytest.raises(SimulationError):
            plan_from_json(text)

    @pytest.mark.parametrize("kind", ["poll_error", "drop_records", "rpc_drop"])
    @pytest.mark.parametrize("window", [{"start": 1e9, "end": -5}, {"start": 1e9}, {"end": 5}])
    def test_a_silence_window_on_another_kind_is_refused(self, kind, window):
        # A window no rule but silence reads must not be accepted and ignored:
        # the rule would fire long before the start it names.
        rule = {"kind": kind, "source": "m1", "probability": 0.5, **window}
        with pytest.raises(SimulationError) as caught:
            plan_from_json(json.dumps({"faults": [rule]}))
        first = "start" if "start" in window else "end"
        assert str(caught.value) == (
            f"fault #0: '{first}' is the silence window; a {kind} rule does not read it"
        )


class TestRpcFaults:
    """The rpc_* kinds: advisory (returned, not raised), aimed at shards.

    ``source`` here is a shard id and ``now`` is the shard's simulation
    clock — the same (source, now) addressing as every other rule, so
    one plan file can script both data-layer and transport-layer chaos.
    """

    def test_kind_registry_includes_rpc(self):
        from repro.faults import RPC_KINDS

        assert set(RPC_KINDS) == {
            "rpc_drop", "rpc_delay", "rpc_duplicate", "rpc_garbage",
        }
        assert set(RPC_KINDS) <= set(KINDS)

    def test_builder_validates_kind(self):
        with pytest.raises(SimulationError):
            FaultPlan().rpc_fault("s0", "rpc_nonsense", probability=0.5)

    def test_scripted_rpc_fault_is_one_shot(self):
        plan = FaultPlan(seed=0).rpc_fault("s0", "rpc_drop", at=[10.0])
        assert plan.check_rpc("s0", 5.0) is None
        assert plan.check_rpc("s0", 12.0) == "rpc_drop"
        assert plan.check_rpc("s0", 13.0) is None  # consumed
        assert plan.injected == {"rpc_drop": 1}

    def test_check_rpc_returns_instead_of_raising(self):
        plan = FaultPlan(seed=0).rpc_fault("s1", "rpc_garbage", at=[0.0])
        kind = plan.check_rpc("s1", 1.0)
        assert kind == "rpc_garbage"
        assert plan.check_rpc("s2", 1.0) is None  # other shards untouched

    def test_precedence_drop_beats_delay(self):
        plan = (
            FaultPlan(seed=0)
            .rpc_fault("s0", "rpc_delay", at=[10.0])
            .rpc_fault("s0", "rpc_drop", at=[10.0])
        )
        assert plan.check_rpc("s0", 11.0) == "rpc_drop"
        # The delay rule was not consumed by the drop's win.
        assert plan.check_rpc("s0", 12.0) == "rpc_delay"

    def test_probabilistic_rpc_fault_is_deterministic_per_seed(self):
        def decisions(plan):
            return [plan.check_rpc("s0", float(i)) for i in range(100)]

        a = decisions(FaultPlan(seed=4).rpc_fault("s0", "rpc_drop", probability=0.3))
        b = decisions(FaultPlan(seed=4).rpc_fault("s0", "rpc_drop", probability=0.3))
        c = decisions(FaultPlan(seed=5).rpc_fault("s0", "rpc_drop", probability=0.3))
        assert a == b
        assert a != c
        assert any(kind == "rpc_drop" for kind in a)

    def test_json_round_trip(self):
        plan = (
            FaultPlan(seed=2)
            .rpc_fault("s0", "rpc_drop", at=[5.0])
            .rpc_fault("*", "rpc_delay", probability=0.1)
            .rpc_fault("s1", "rpc_duplicate", at=[7.0])
            .rpc_fault("s2", "rpc_garbage", probability=0.05)
        )
        clone = plan_from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        assert clone.check_rpc("s0", 6.0) == "rpc_drop"

    def test_malformed_rpc_kind_rejected(self):
        text = '{"seed": 0, "faults": [{"kind": "rpc_smash", "source": "s0", "at": [1.0]}]}'
        with pytest.raises(SimulationError):
            plan_from_json(text)
