"""Checkpoints: atomic writes, fall-back on corruption, artifact pruning."""

import io
import json
import os

import pytest

from repro.durable.checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_path,
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
    prune_artifacts,
    write_checkpoint,
)
from repro.durable.wal import wal_path
from repro.errors import DurabilityError


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path)
        path = write_checkpoint(directory, 3, {"now": 42.0})
        payload = load_checkpoint(path)
        assert payload["epoch"] == 3 and payload["state"] == {"now": 42.0}

    def test_no_tmp_file_left_behind(self, tmp_path):
        write_checkpoint(str(tmp_path), 1, {"a": 1})
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DurabilityError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_junk_json_raises(self, tmp_path):
        path = str(tmp_path / "checkpoint-00000001.json")
        open(path, "w").write("{ not json")
        with pytest.raises(DurabilityError):
            load_checkpoint(path)

    def test_wrong_format_marker_raises(self, tmp_path):
        path = str(tmp_path / "checkpoint-00000001.json")
        json.dump({"format": "other", "epoch": 1, "state": {}}, open(path, "w"))
        with pytest.raises(DurabilityError):
            load_checkpoint(path)


def simulator_state():
    from repro.faults import FaultPlan
    from repro.grid.simulator import GridSimulator, SimulationConfig

    plan = FaultPlan(seed=1).drop_records("m2", probability=0.3)
    sim = GridSimulator(SimulationConfig(num_machines=6, seed=2), fault_plan=plan)
    sim.run(120.0)
    return sim.durable_state()


class TestBytes:
    @pytest.mark.parametrize(
        "state",
        [
            {},
            {"z": [1.5, None, True, float("nan")], "a": {"é": "ü", "b": {"d": 1, "c": 2}}},
            "simulator",
        ],
    )
    def test_the_file_is_what_one_json_dump_writes(self, tmp_path, state):
        """Written one top-level ``state`` entry at a time by the C encoder,
        the file is still ``json.dump``'s document byte for byte."""
        if state == "simulator":
            state = simulator_state()
        path = write_checkpoint(str(tmp_path), 7, state)
        wall = load_checkpoint(path)["wall"]  # the one value not ours to choose
        expected = io.StringIO()
        payload = {"format": CHECKPOINT_FORMAT, "epoch": 7, "wall": wall, "state": state}
        json.dump(payload, expected, separators=(",", ":"), sort_keys=True)
        with open(path, "rb") as fp:
            assert fp.read() == (expected.getvalue() + "\n").encode("utf-8")


class TestLatestValid:
    def test_newest_valid_wins(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, 1, {"n": 1})
        write_checkpoint(directory, 2, {"n": 2})
        epoch, state, invalid = latest_valid_checkpoint(directory)
        assert epoch == 2 and state == {"n": 2} and invalid == []

    def test_corrupt_newest_falls_back(self, tmp_path):
        directory = str(tmp_path)
        write_checkpoint(directory, 1, {"n": 1})
        newest = write_checkpoint(directory, 2, {"n": 2})
        open(newest, "w").write("torn!")
        epoch, state, invalid = latest_valid_checkpoint(directory)
        assert epoch == 1 and state == {"n": 1}
        assert invalid == [newest]

    def test_empty_directory(self, tmp_path):
        epoch, state, invalid = latest_valid_checkpoint(str(tmp_path))
        assert epoch is None and state is None and invalid == []

    def test_listing_ascends(self, tmp_path):
        directory = str(tmp_path)
        for epoch in (5, 2, 9):
            write_checkpoint(directory, epoch, {})
        assert [e for e, _ in list_checkpoints(directory)] == [2, 5, 9]


class TestPrune:
    def test_keeps_newest_chain_and_its_wal(self, tmp_path):
        directory = str(tmp_path)
        for epoch in (1, 2, 3):
            write_checkpoint(directory, epoch, {})
            open(wal_path(directory, epoch), "wb").close()
        removed = prune_artifacts(directory, keep=2)
        assert sorted(os.path.basename(p) for p in removed) == [
            os.path.basename(checkpoint_path(directory, 1)),
            os.path.basename(wal_path(directory, 1)),
        ]
        assert [e for e, _ in list_checkpoints(directory)] == [2, 3]

    def test_nothing_pruned_at_or_below_keep(self, tmp_path):
        directory = str(tmp_path)
        for epoch in (1, 2):
            write_checkpoint(directory, epoch, {})
        assert prune_artifacts(directory, keep=2) == []

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(DurabilityError):
            prune_artifacts(str(tmp_path), keep=0)
