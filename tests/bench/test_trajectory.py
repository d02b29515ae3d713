"""The perf trajectory (benchmarks/trajectory.py): TRAJECTORY.md is rendered
from the committed BENCH_*.json documents and held by --check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "benchmarks"))

import trajectory  # noqa: E402


def copy_benches(tmp_path):
    for path in trajectory.bench_files(ROOT):
        shutil.copy(path, tmp_path / path.name)
    shutil.copy(ROOT / "TRAJECTORY.md", tmp_path / "TRAJECTORY.md")
    return tmp_path


def test_check_passes_on_the_committed_documents():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "trajectory.py"), "--check"],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_the_seed_comes_first_then_by_number(tmp_path):
    for name in ("BENCH_10.json", "BENCH_9.json", "BENCH_seed.json", "BENCH_x.json"):
        (tmp_path / name).write_text("{}")
    assert [p.name for p in trajectory.bench_files(tmp_path)] == [
        "BENCH_seed.json", "BENCH_9.json", "BENCH_10.json",
    ]


def test_one_row_per_document_in_every_workload_table():
    text = (ROOT / "TRAJECTORY.md").read_text()
    declaration = trajectory.load_declaration()
    paths = trajectory.bench_files(ROOT)
    assert len(paths) >= 3
    for workload in (w["name"] for w in declaration["workloads"]):
        table = text.split(f"## {workload}\n")[1].split("\n## ")[0]
        rows = [line for line in table.splitlines() if line.startswith("| ")][1:]
        assert [row.split(" | ")[0][2:] for row in rows] == [p.stem[6:] for p in paths]


def test_check_fails_when_the_document_is_stale(tmp_path, capsys):
    root = copy_benches(tmp_path)
    newest = trajectory.bench_files(root)[-1]
    document = json.loads(newest.read_text())
    document["workloads"]["federated"]["end_to_end"]["reports_per_s"]["value"] *= 2
    newest.write_text(json.dumps(document))
    assert trajectory.main(["--check"], root=root) == 1
    assert "stale: TRAJECTORY.md" in capsys.readouterr().err
    assert trajectory.main(["--write"], root=root) == 0
    assert trajectory.main(["--check"], root=root) == 0


def test_check_fails_when_a_document_lacks_a_metric(tmp_path, capsys):
    root = copy_benches(tmp_path)
    newest = trajectory.bench_files(root)[-1]
    document = json.loads(newest.read_text())
    del document["workloads"]["serve_http"]["end_to_end"]["peak_rss_mb"]
    document["workloads"]["federated"]["end_to_end"]["setup_s"]["value"] = None
    newest.write_text(json.dumps(document))
    assert trajectory.main(["--check"], root=root) == 1
    err = capsys.readouterr().err
    assert "serve_http/peak_rss_mb" in err and "federated/setup_s" in err
    document["workloads"]["serve_http"]["end_to_end"]["peak_rss_mb"] = {
        "unit": "MB", "value": None, "reason": "not measured on this host",
    }
    document["workloads"]["federated"]["end_to_end"]["setup_s"]["reason"] = "not measured"
    newest.write_text(json.dumps(document))
    assert trajectory.main(["--write"], root=root) == 0
