"""Tier-1 guard: the incremental maintainer's answer is recompute's, and
recompute reads the Heartbeat by key lookup, not by scan.

Loads ``tools/check_incremental_speedup.py`` by path (tools/ is not a
package) and checks one row of its table at 4,000 sources. No timing is
asserted: the lead it prints is a measurement (see the tool's docstring).
"""

import importlib.util
import os

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
TOOL = os.path.join(REPO_ROOT, "tools", "check_incremental_speedup.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("check_incremental_speedup", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.incremental
def test_maintainer_matches_recompute_which_looks_up_the_heartbeat():
    tool = load_tool()
    row = tool.compare(4_000, tool.SHAPES["IN"], runs=3)
    assert row["agreed"]
    assert row["verdict"] == "hit"
    # Theorem 3's subquery names s1, s2, s3: three Heartbeat rows of 4,000.
    assert row["read"].detail.startswith("index lookup")
    assert row["read"].rows_in == 3


@pytest.mark.incremental
def test_the_table_covers_both_shapes():
    tool = load_tool()
    assert tool.main(["--runs", "2", "--num-sources", "200"]) == 0
