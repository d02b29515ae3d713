"""Tier-1 wrapper: compiled vs interpreted vs SQLite fuzz differential.

Runs ``tools/fuzz_engine.py`` as a subprocess (tools/ is not a package)
with a reduced example count and a fixed seed, so the suite is fast and
every run draws the same examples. Deselect with
``-m "not differential"`` when iterating; run the tool directly with a
large count for deep fuzzing.
"""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL = os.path.join(REPO_ROOT, "tools", "fuzz_engine.py")


@pytest.mark.differential
def test_compiled_interpreted_and_sqlite_agree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    completed = subprocess.run(
        [sys.executable, TOOL, "200", "--seed", "0"],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "OK" in completed.stdout
    # The generator draws semijoin candidates, keyed relations, whole-row
    # select lists, bools and NaNs, and the engine ran them as such; and
    # lineage statements, whose laws the tool checked. An explicit @example
    # meets each of these tallies whatever the seed draws.
    for kind in (
        "semijoin", "index lookup", "index complement", "row passthrough", "bool value",
        "nan value", "lineage",
    ):
        tally = re.search(rf"(\d+) {kind}", completed.stdout)
        assert tally and int(tally.group(1)) > 0, completed.stdout
