"""Smoke test of the end-to-end benchmark: ``run.py --quick`` must produce a
result document with every metric ``BENCHMARK.json`` declares.

Lives beside the benchmark (collected by ``pytest benchmarks/``), not in
tier-1: the quick run takes about a minute and a half.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def test_declaration_is_within_limits(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert declaration["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(declaration["workloads"]) <= 8
    assert 1 <= len(declaration["end_to_end"]) <= 16
    assert 1 <= len(declaration["per_layer"]) <= 128
    assert 1 <= declaration["run_seconds"] <= 60
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[section]
    ]
    assert len(names) == len(set(names)), "every name is used once"
    for name in names:
        assert NAME.match(name), name
    for workload in declaration["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in declaration["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in declaration["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declaration["end_to_end"])


def test_quick_run_produces_every_declared_metric(declaration, tmp_path):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "0",
         "--out", str(out), "--out-dir", str(tmp_path)],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    document = json.loads(out.read_text(encoding="utf-8"))

    env = document["env"]
    for key in ("git_commit", "python", "nproc", "loadavg_start", "loadavg_end", "seed", "seconds"):
        assert key in env, key
    nproc = os.cpu_count() or 1
    assert set(document["workloads"]) == {w["name"] for w in declaration["workloads"]}
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] >= 1, name
        assert len(entry["calibration_ms"]) == 4, "before and after each of the two passes"
        clients = entry["config"].get("client_connections", entry["config"].get("callers"))
        assert 1 <= clients <= nproc, f"{name}: {clients} client threads on {nproc} cores"
        for section in ("end_to_end", "per_layer"):
            for metric in declaration[section]:
                item = entry[section].get(metric["name"])
                assert item is not None, f"{name}: {metric['name']} is missing"
                assert item["unit"] == metric["unit"]
                if item["value"] is None:
                    assert item.get("reason"), f"{name}: {metric['name']} is null without a reason"
                else:
                    assert isinstance(item["value"], (int, float))
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert os.path.exists(tmp_path / f"trace-{name}.jsonl")

    # The same document against itself: nothing can be worse.
    compared = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), str(out), str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert compared.returncode == 0, compared.stdout[-2000:]
