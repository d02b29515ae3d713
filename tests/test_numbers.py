"""One rule for every number that enters from outside: finite, in range.

``repro.errors.check_number`` is the rule. The constructors that take
numeric settings, the fault-plan and watch-rule JSON and every numeric
``trac`` flag go through it, so NaN (which fails every comparison) can no
longer slip past a hand-written ``x <= 0`` and quietly switch a threshold
off.
"""

import argparse
import importlib
import json
import math

import pytest

from repro.errors import (
    DurabilityError,
    SimulationError,
    TracError,
    check_number,
    number_range,
)

NAN = float("nan")


class TestCheckNumber:
    def test_returns_the_value_in_range(self):
        assert check_number("x", 0.5, 0, 1) == 0.5
        assert check_number("n", 3, 1) == 3
        assert check_number("t", -1e9) == -1e9

    @pytest.mark.parametrize("value", [NAN, math.inf, -math.inf, True, "1", None, [1]])
    def test_refuses_what_is_not_a_finite_number(self, value):
        with pytest.raises(TracError, match="^x must be finite, got "):
            check_number("x", value)

    def test_open_and_closed_ends(self):
        check_number("x", 0, 0)
        check_number("x", 1, 0, 1)
        for value, bounds in ((0, {"low_open": True}), (1, {"high_open": True})):
            with pytest.raises(TracError):
                check_number("x", value, 0, 1, **bounds)

    def test_the_message_names_the_setting_and_its_range(self):
        with pytest.raises(SimulationError) as caught:
            check_number("tick", -1.0, 0, low_open=True, error=SimulationError)
        assert str(caught.value) == "tick must be positive and finite, got -1.0"
        assert number_range(0, 1, low_open=True, high_open=True) == "in (0, 1)"
        assert number_range(1) == ">= 1 and finite"


def _coordinator(**settings):
    from repro.federation import FederationCoordinator, ShardRegistry

    return lambda: FederationCoordinator(ShardRegistry(), **settings)


def _deployment_run():
    from repro.backends import MemoryBackend
    from repro.catalog import Catalog
    from repro.deploy import Deployment

    with Deployment(MemoryBackend(Catalog([]))) as deployment:
        deployment.run(duration=NAN)


def _reporter():
    from repro.backends import MemoryBackend
    from repro.catalog import Catalog
    from repro.core.report import RecencyReporter

    return RecencyReporter(MemoryBackend(Catalog([])), z_threshold=NAN)


def _service():
    from repro.backends import MemoryBackend
    from repro.catalog import Catalog
    from repro.serve import QueryService, ServeConfig

    return QueryService(MemoryBackend(Catalog([])), ServeConfig(default_deadline=NAN))


def _fault_rule(**fields):
    from repro.faults.plan import _Rule

    return lambda: _Rule(**fields)


def _lazy(module, name, *args, **kwargs):
    """Build ``module.name(*args, **kwargs)`` when the test runs."""
    return lambda: getattr(importlib.import_module(module), name)(*args, **kwargs)


#: (what is built, the error class its module raises).
CONSTRUCTORS = {
    "FederationCoordinator.deadline": (_coordinator(deadline=NAN), TracError),
    "FederationCoordinator.hedge_delay": (_coordinator(hedge_delay=NAN), TracError),
    "TokenBucket.rate": (_lazy("repro.serve.quota", "TokenBucket", rate=NAN, burst=1.0), TracError),
    "TokenBucket.burst": (_lazy("repro.serve.quota", "TokenBucket", rate=1.0, burst=NAN), TracError),
    "TenantQuotas.rate": (_lazy("repro.serve.quota", "TenantQuotas", rate=NAN), TracError),
    "TenantQuotas.max_inflight": (
        _lazy("repro.serve.quota", "TenantQuotas", max_inflight=NAN),
        TracError,
    ),
    "QueryService.default_deadline": (_service, TracError),
    "GridSimulator.silence_timeout": (
        _lazy("repro.grid.simulator", "GridSimulator", silence_timeout=NAN),
        SimulationError,
    ),
    "Deployment.run.duration": (_deployment_run, TracError),
    "validate_fsync_policy": (
        _lazy("repro.durable.wal", "validate_fsync_policy", "interval", NAN),
        DurabilityError,
    ),
    "DurabilityPolicy.checkpoint_interval": (
        _lazy("repro.durable", "DurabilityPolicy", checkpoint_interval=NAN),
        DurabilityError,
    ),
    "SourceRegistry.target_p95": (
        _lazy("repro.core.sources", "SourceRegistry", target_p95=NAN),
        TracError,
    ),
    "SourceRegistry.budget": (_lazy("repro.core.sources", "SourceRegistry", budget=NAN), TracError),
    "SimulationConfig.tick": (
        _lazy("repro.grid.simulator", "SimulationConfig", tick=NAN),
        SimulationError,
    ),
    "SimulationConfig.job_duration_range": (
        _lazy("repro.grid.simulator", "SimulationConfig", job_duration_range=(1.0, NAN)),
        SimulationError,
    ),
    "SnifferConfig.lag": (_lazy("repro.grid.sniffer", "SnifferConfig", lag=NAN), SimulationError),
    "WorkerPool.workers": (_lazy("repro.serve.pool", "WorkerPool", workers=NAN), TracError),
    "WorkloadConfig.skew": (_lazy("repro.workload", "WorkloadConfig", 1, 1, skew=NAN), TracError),
    "RecencyReporter.z_threshold": (_reporter, TracError),
    "WatchRule.max_inconsistency": (
        _lazy("repro.core.monitor", "WatchRule", "r", "SELECT 1", max_inconsistency=NAN),
        TracError,
    ),
    "WatchRule.max_staleness": (
        _lazy("repro.core.monitor", "WatchRule", "r", "SELECT 1", max_staleness=NAN),
        TracError,
    ),
    "fault rule start": (_fault_rule(kind="silence", source="m1", start=NAN), SimulationError),
    "fault rule end": (
        _fault_rule(kind="silence", source="m1", start=1.0, end=NAN),
        SimulationError,
    ),
    "fault rule at": (_fault_rule(kind="poll_error", source="m1", at=[NAN]), SimulationError),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_nan_is_refused_where_a_setting_enters(name):
    build, error = CONSTRUCTORS[name]
    with pytest.raises(error, match="must be .*, got nan"):
        build()


def test_a_zero_inflight_ceiling_is_refused_not_a_door_that_refuses_everyone():
    from repro.serve.quota import TenantQuotas

    with pytest.raises(TracError, match="^max_inflight must be >= 1 and finite, got 0$"):
        TenantQuotas(max_inflight=0)


class TestJsonDocuments:
    """Python's ``json`` reads ``NaN``; a document carrying one is refused
    with one line that names the field."""

    @pytest.mark.parametrize("field", [{"start": NAN}, {"start": 1.0, "end": NAN}])
    def test_fault_plan_silence_window(self, field):
        from repro.faults import plan_from_json

        rule = {"kind": "silence", "source": "m1", **field}
        with pytest.raises(SimulationError) as caught:
            plan_from_json(json.dumps({"faults": [rule]}))
        (name,) = [k for k, v in field.items() if v != v]
        assert str(caught.value).startswith(f"fault #0: {name} must be ")
        assert "\n" not in str(caught.value)

    def test_fault_plan_scripted_time(self):
        from repro.faults import plan_from_json

        with pytest.raises(SimulationError, match="^fault #0: at must be finite, got nan$"):
            plan_from_json('{"faults": [{"kind": "poll_error", "source": "m2", "at": [NaN]}]}')

    @pytest.mark.parametrize("field", ["max_inconsistency", "max_staleness"])
    def test_watch_rule_limits(self, field):
        from repro.core.monitor import rules_from_json

        text = f'[{{"name": "r", "sql": "SELECT mach_id FROM activity", "{field}": NaN}}]'
        with pytest.raises(TracError) as caught:
            rules_from_json(text)
        assert str(caught.value) == f"rule 'r': {field} must be non-negative and finite, got nan"

    def test_cli_prints_the_one_line(self, tmp_path, capsys):
        from repro.cli import main

        rules = tmp_path / "rules.json"
        rules.write_text('[{"name": "r", "sql": "SELECT 1", "max_staleness": NaN}]')
        assert main(["watch", "--db", str(tmp_path / "none.sqlite"), "--rules", str(rules)]) == 1
        err = capsys.readouterr().err
        assert err == "error: rule 'r': max_staleness must be non-negative and finite, got nan\n"


# -- the CLI -----------------------------------------------------------------


def _numeric_flags():
    """``(subcommand, its parser, action)`` for every numeric flag: every
    action typed ``float`` or by the CLI's range factory."""
    from repro.cli import _build_parser

    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.type is float or hasattr(action.type, "bounds"):
                yield parser, command, sub, action


def _required(sub):
    """The fewest arguments ``sub`` parses: each required flag and positional once."""
    argv = []
    for action in sub._actions:
        if not action.option_strings:
            argv.append("x")
        elif action.required:
            argv += [action.option_strings[0], "x"]
    return argv


FLAGS = list(_numeric_flags())


def test_every_numeric_flag_states_its_range():
    assert len(FLAGS) >= 20
    for _, command, _, action in FLAGS:
        assert action.type is not float, f"{command} {action.option_strings[0]}: bare float"
        low, high, low_open, high_open = action.type.bounds
        assert number_range(low, high, low_open=low_open, high_open=high_open) in action.help


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
def test_each_numeric_flag_takes_its_range_or_exits_2(value, capsys):
    number = float(value)
    for parser, command, sub, action in FLAGS:
        flag = action.option_strings[0]
        argv = [command, *_required(sub), f"{flag}={value}"]
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            assert exc.code == 2, (command, flag, value)
            err = capsys.readouterr().err
            assert f"error: argument {flag}: " in err, (command, flag, value, err)
            accepted = False
        else:
            accepted = True
            assert getattr(args, action.dest) == number
        low, high, low_open, high_open = getattr(action.type, "bounds", (None,) * 4)
        inside = (
            math.isfinite(number)
            and (low is None or (number > low if low_open else number >= low))
            and (high is None or (number < high if high_open else number <= high))
        )
        assert accepted == inside, (command, flag, value)


#: The one integer flag with no range: any integer seeds the RNG.
UNRANGED_INTEGER_FLAGS = {"--seed"}


def test_no_integer_flag_is_a_bare_int():
    from repro.cli import _build_parser

    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    bare = {
        (command, action.option_strings[0])
        for command, sub in commands.choices.items()
        for action in sub._actions
        if action.type is int
    }
    assert {flag for _, flag in bare} <= UNRANGED_INTEGER_FLAGS, sorted(bare)


INTEGER_FLAGS = [flag for flag in FLAGS if flag[3].type.kind is int]


def test_the_integer_flags_are_walked():
    names = {(command, action.option_strings[0]) for _, command, _, action in INTEGER_FLAGS}
    assert {
        ("serve", "--workers"),
        ("serve", "--queue-depth"),
        ("serve", "--max-inflight"),
        ("serve", "--port"),
        ("simulate", "--machines"),
        ("simulate", "--schedulers"),
        ("shard-serve", "--machines"),
        ("shard-serve", "--machine-id-start"),
        ("shard-serve", "--port"),
        ("stats", "--repeat"),
        ("top", "--iterations"),
    } <= names


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "1.5"])
def test_each_integer_flag_takes_an_integer_in_its_range_or_exits_2(value, capsys):
    for parser, command, sub, action in INTEGER_FLAGS:
        flag = action.option_strings[0]
        low, high = action.type.bounds[:2]
        inside = value in ("-1", "0") and low <= int(value) and (high is None or int(value) <= high)
        try:
            args = parser.parse_args([command, *_required(sub), f"{flag}={value}"])
        except SystemExit as exc:
            assert exc.code == 2 and not inside, (command, flag, value)
            assert f"error: argument {flag}: must be " in capsys.readouterr().err
        else:
            assert inside, (command, flag, value)
            assert getattr(args, action.dest) == int(value)


def test_an_omitted_iterations_still_means_forever():
    from repro.cli import _build_parser

    assert _build_parser().parse_args(["top", "--url", "x"]).iterations is None
