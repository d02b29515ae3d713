"""The ``deep`` Hypothesis profile deepens every property test, including
the ones that set their own ``max_examples`` (most of the suite's do) and
the state machines, whose settings live on their ``TestCase``."""

import os
import re
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from tests.conftest import DEEP_FACTOR

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Examples the property and the state machine below run under the default profile.
OWN_BUDGET, MACHINE_BUDGET = 60, 5


@settings(max_examples=OWN_BUDGET)
@given(st.integers())
def test_a_60_example_property(value):
    assert isinstance(value, int)


@settings(max_examples=MACHINE_BUDGET, stateful_step_count=3, derandomize=True)
class FiveExampleMachine(RuleBasedStateMachine):
    @rule(value=st.integers())
    def draw(self, value):
        assert isinstance(value, int)


TestFiveExampleMachine = FiveExampleMachine.TestCase


def passing_examples(profile: str, test: str = "test_a_60_example_property") -> int:
    """How many examples ``test`` passed in a pytest run of its own under
    ``profile``."""
    env = dict(os.environ, HYPOTHESIS_PROFILE=profile)
    path = [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
            "--hypothesis-show-statistics",
            f"{__file__}::{test}",
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


def test_deep_multiplies_a_state_machines_own_budget():
    test = "TestFiveExampleMachine::runTest"
    assert passing_examples("deep", test) == MACHINE_BUDGET * DEEP_FACTOR
    assert passing_examples("default", test) == MACHINE_BUDGET
