"""Durability fault injection: WAL-append and checkpoint-write failures."""

import json

import pytest

from repro.errors import SimulationError
from repro.faults import FaultPlan, InjectedFault, plan_from_json


class TestBuilder:
    def test_chaining_returns_self(self):
        plan = FaultPlan()
        assert plan.durability_error(op="wal", probability=0.5) is plan
        assert plan.durability_error(op="checkpoint", at=(10.0,)) is plan

    def test_bad_op_rejected(self):
        with pytest.raises(SimulationError, match="wal.*checkpoint"):
            FaultPlan().durability_error(op="fsync", probability=0.5)

    def test_rule_that_never_fires_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan().durability_error(op="wal")


class TestCheckDurability:
    def test_wal_fault_raises_and_records(self):
        plan = FaultPlan().durability_error("m1", op="wal", probability=1.0)
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("wal_append", "m1", 10.0)
        assert excinfo.value.kind == "wal_append"
        assert excinfo.value.transient is True
        assert plan.injected == {"wal_append": 1}

    def test_checkpoint_fault_uses_wildcard_source(self):
        plan = FaultPlan().durability_error(op="checkpoint", probability=1.0)
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("checkpoint_write", "*", 10.0)
        assert excinfo.value.kind == "checkpoint_write"
        assert plan.injected == {"checkpoint_write": 1}

    def test_kinds_do_not_cross_fire(self):
        plan = FaultPlan().durability_error(op="checkpoint", probability=1.0)
        plan.check("wal_append", "m1", 10.0)  # no wal rule: silent
        assert plan.injected == {}

    def test_scripted_trigger_fires_once_at_time(self):
        plan = FaultPlan().durability_error("m1", op="wal", at=(20.0,))
        plan.check("wal_append", "m1", 10.0)  # before the trigger
        with pytest.raises(InjectedFault):
            plan.check("wal_append", "m1", 25.0)
        plan.check("wal_append", "m1", 30.0)  # one-shot: spent
        assert plan.injected == {"wal_append": 1}

    def test_permanent_fault_flagged(self):
        plan = FaultPlan().durability_error(
            "m1", op="wal", probability=1.0, transient=False
        )
        with pytest.raises(InjectedFault) as excinfo:
            plan.check("wal_append", "m1", 10.0)
        assert excinfo.value.transient is False


class TestJsonForm:
    def test_round_trip_preserves_durability_rules(self):
        plan = (
            FaultPlan(seed=7)
            .durability_error("m1", op="wal", probability=0.25)
            .durability_error(op="checkpoint", at=(50.0,), transient=False)
        )
        reloaded = plan_from_json(plan.to_json())
        document = json.loads(reloaded.to_json())
        kinds = {entry["kind"]: entry for entry in document["faults"]}
        assert kinds["wal_append"]["source"] == "m1"
        assert kinds["wal_append"]["probability"] == 0.25
        assert kinds["checkpoint_write"]["at"] == [50.0]
        assert kinds["checkpoint_write"]["transient"] is False

    def test_json_document_parses_durability_kinds(self):
        plan = plan_from_json(
            json.dumps(
                {
                    "faults": [
                        {"kind": "wal_append", "source": "m2", "probability": 1.0},
                        {"kind": "checkpoint_write", "source": "*", "probability": 1.0},
                    ]
                }
            )
        )
        with pytest.raises(InjectedFault):
            plan.check("wal_append", "m2", 1.0)
        with pytest.raises(InjectedFault):
            plan.check("checkpoint_write", "*", 1.0)
