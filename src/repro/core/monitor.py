"""Continuous monitoring on top of recency reports.

The paper's thesis is that recency/consistency metadata lets users *interpret*
answers from an always-stale database. This module operationalizes that for
the administrator's side: register **watch rules** — a query plus acceptance
thresholds on its recency report — and evaluate them periodically. A rule
trips when the report says the answer cannot currently be trusted:

* the **bound of inconsistency** (recency range of the normal relevant
  sources) exceeds a threshold;
* some relevant source is **staler** than a threshold relative to "now";
* **exceptional** (z-score outlier) sources are relevant to the query;
* the relevant set is only an **upper bound** when the rule demands a
  provably minimal one.

Example
-------
>>> monitor = RecencyMonitor(backend, clock=lambda: sim.now)
>>> monitor.add_rule(WatchRule(
...     "idle-machines",
...     "SELECT mach_id FROM activity WHERE value = 'idle'",
...     max_inconsistency=60.0,
...     max_staleness=120.0,
... ))
>>> for alert in monitor.check():
...     print(alert.message)
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

from repro.backends.base import Backend
from repro.core.report import RecencyReport, RecencyReporter
from repro.core.statistics import format_interval
from repro.errors import TracError, check_number
from repro.obs import instrument as obs
from repro.obs.events import EVT_MONITOR_ALERT
from repro.obs.instrument import PhaseTimer


class WatchRule:
    """One monitored query and its trust thresholds.

    Parameters
    ----------
    name:
        Unique rule name.
    sql:
        The query whose report is evaluated.
    max_inconsistency:
        Maximum tolerated bound of inconsistency (seconds) across the
        normal relevant sources, or ``None`` for no limit.
    max_staleness:
        Maximum tolerated age (seconds, relative to the monitor's clock) of
        the least recent relevant source, or ``None``.
    forbid_exceptional:
        Trip when any z-score-exceptional source is relevant.
    require_minimal:
        Trip when the plan cannot guarantee the minimal relevant set.
    forbid_degraded:
        Trip when the supervision layer has quarantined any source (needs
        the monitor to be constructed with a ``sources`` registry).
    """

    def __init__(
        self,
        name: str,
        sql: str,
        max_inconsistency: Optional[float] = None,
        max_staleness: Optional[float] = None,
        forbid_exceptional: bool = False,
        require_minimal: bool = False,
        forbid_degraded: bool = False,
    ) -> None:
        if not name:
            raise TracError("a watch rule needs a name")
        if (
            max_inconsistency is None
            and max_staleness is None
            and not forbid_exceptional
            and not require_minimal
            and not forbid_degraded
        ):
            raise TracError(f"rule {name!r} has no condition to check")
        limits = {"max_inconsistency": max_inconsistency, "max_staleness": max_staleness}
        for field, limit in limits.items():
            if limit is not None:
                check_number(f"rule {name!r}: {field}", limit, 0)
        self.name = name
        self.sql = sql
        self.max_inconsistency = max_inconsistency
        self.max_staleness = max_staleness
        self.forbid_exceptional = forbid_exceptional
        self.require_minimal = require_minimal
        self.forbid_degraded = forbid_degraded

    def __repr__(self) -> str:
        return f"WatchRule({self.name!r})"


class Alert:
    """One tripped condition, with the report that tripped it."""

    __slots__ = ("rule", "kind", "message", "report", "at")

    def __init__(self, rule: WatchRule, kind: str, message: str, report: RecencyReport, at: float) -> None:
        self.rule = rule
        self.kind = kind
        self.message = message
        self.report = report
        self.at = at

    def __repr__(self) -> str:
        return f"Alert({self.rule.name!r}, {self.kind}, t={self.at})"


class RecencyMonitor:
    """Evaluates watch rules against the current database state."""

    def __init__(
        self,
        backend: Backend,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[object] = None,
        sources: Optional[object] = None,
    ) -> None:
        self.backend = backend
        self.clock = clock or time.time
        self.telemetry = telemetry
        self.reporter = RecencyReporter(backend, telemetry=telemetry, sources=sources)
        self._rules: Dict[str, WatchRule] = {}
        self.history: List[Alert] = []

    def add_rule(self, rule: WatchRule) -> None:
        if rule.name in self._rules:
            raise TracError(f"duplicate rule name {rule.name!r}")
        self._rules[rule.name] = rule

    @property
    def rules(self) -> List[WatchRule]:
        return list(self._rules.values())

    def check(self, now: Optional[float] = None) -> List[Alert]:
        """Evaluate every rule once; returns (and records) fresh alerts."""
        at = self.clock() if now is None else now
        tel = obs.resolve(self.telemetry)
        alerts: List[Alert] = []
        for rule in self._rules.values():
            with PhaseTimer(tel, "monitor.rule", rule=rule.name) as phase:
                report = self.reporter.report(rule.sql)
                tripped = self._evaluate(rule, report, at)
                phase.set_attribute("trips", len(tripped))
            if tel.enabled:
                tel.observe(obs.MONITOR_RULE_SECONDS, phase.duration, rule=rule.name)
                if tripped:
                    tel.count(obs.MONITOR_TRIPS, len(tripped), rule=rule.name)
                for alert in tripped:
                    tel.emit(
                        EVT_MONITOR_ALERT,
                        t=at,
                        severity="warning",
                        rule=rule.name,
                        kind=alert.kind,
                        message=alert.message,
                    )
            alerts.extend(tripped)
        self.history.extend(alerts)
        return alerts

    def _evaluate(self, rule: WatchRule, report: RecencyReport, at: float) -> List[Alert]:
        alerts: List[Alert] = []
        stats = report.statistics

        if rule.max_inconsistency is not None and stats.inconsistency_bound is not None:
            if stats.inconsistency_bound > rule.max_inconsistency:
                alerts.append(
                    Alert(
                        rule,
                        "inconsistency",
                        f"{rule.name}: bound of inconsistency "
                        f"{format_interval(stats.inconsistency_bound)} exceeds "
                        f"{format_interval(rule.max_inconsistency)}",
                        report,
                        at,
                    )
                )

        if rule.max_staleness is not None and stats.least_recent is not None:
            age = at - stats.least_recent.recency
            if age > rule.max_staleness:
                alerts.append(
                    Alert(
                        rule,
                        "staleness",
                        f"{rule.name}: least recent relevant source "
                        f"{stats.least_recent.source_id} is {format_interval(age)} old "
                        f"(limit {format_interval(rule.max_staleness)})",
                        report,
                        at,
                    )
                )

        if rule.forbid_exceptional and report.split.exceptional_ids:
            names = ", ".join(report.split.exceptional_ids)
            alerts.append(
                Alert(
                    rule,
                    "exceptional",
                    f"{rule.name}: exceptionally stale relevant sources: {names}",
                    report,
                    at,
                )
            )

        if rule.forbid_degraded and report.degraded_sources:
            names = ", ".join(report.degraded_sources)
            alerts.append(
                Alert(
                    rule,
                    "degraded",
                    f"{rule.name}: supervisor-degraded sources: {names}",
                    report,
                    at,
                )
            )

        if rule.require_minimal and not report.minimal:
            alerts.append(
                Alert(
                    rule,
                    "non_minimal",
                    f"{rule.name}: relevant set is only an upper bound "
                    f"({'; '.join(report.plan.notes) or 'see plan'})",
                    report,
                    at,
                )
            )
        return alerts

    def close(self) -> None:
        self.reporter.close()


def rules_from_json(text: str) -> List[WatchRule]:
    """Load watch rules from a JSON document.

    Format: a list of objects, each with ``name`` and ``sql`` plus any of
    the threshold fields::

        [
          {"name": "idle-pool",
           "sql": "SELECT mach_id FROM activity WHERE value = 'idle'",
           "max_inconsistency": 120,
           "max_staleness": 300,
           "forbid_exceptional": true,
           "require_minimal": false}
        ]
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TracError(f"malformed rules JSON: {exc}") from exc
    if not isinstance(data, list):
        raise TracError("rules JSON must be a list of rule objects")
    rules: List[WatchRule] = []
    allowed = {
        "name",
        "sql",
        "max_inconsistency",
        "max_staleness",
        "forbid_exceptional",
        "require_minimal",
        "forbid_degraded",
    }
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise TracError(f"rule #{index} is not an object")
        unknown = set(item) - allowed
        if unknown:
            raise TracError(f"rule #{index} has unknown fields: {sorted(unknown)}")
        if "name" not in item or "sql" not in item:
            raise TracError(f"rule #{index} needs 'name' and 'sql'")
        rules.append(
            WatchRule(
                item["name"],
                item["sql"],
                max_inconsistency=item.get("max_inconsistency"),
                max_staleness=item.get("max_staleness"),
                forbid_exceptional=bool(item.get("forbid_exceptional", False)),
                require_minimal=bool(item.get("require_minimal", False)),
                forbid_degraded=bool(item.get("forbid_degraded", False)),
            )
        )
    return rules
