"""The ``deep`` Hypothesis profile deepens every property test, including
the ones that set their own ``max_examples`` (most of the suite's do)."""

import os
import re
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import DEEP_FACTOR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Examples the property below draws under the default profile.
OWN_BUDGET = 60


@settings(max_examples=OWN_BUDGET)
@given(st.integers())
def test_a_60_example_property(value):
    assert isinstance(value, int)


def passing_examples(profile: str) -> int:
    """How many examples ``test_a_60_example_property`` passed in a pytest
    run of its own under ``profile``."""
    env = dict(os.environ, HYPOTHESIS_PROFILE=profile)
    path = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "--hypothesis-show-statistics",
            f"{__file__}::test_a_60_example_property",
        ],  # fmt: skip
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    counts = re.findall(r"(\d+) passing examples", run.stdout)
    assert counts, run.stdout
    return sum(int(n) for n in counts)


def test_deep_multiplies_a_tests_own_budget():
    assert passing_examples("deep") == OWN_BUDGET * DEEP_FACTOR


def test_the_default_profile_keeps_a_tests_own_budget():
    assert passing_examples("default") == OWN_BUDGET
