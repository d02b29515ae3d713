"""``repro.faults`` — deterministic fault injection for the grid pipeline.

TRAC exists because distributed sources fail: they lag, crash, republish and
fall silent, and the recency report is how a user *sees* that. This package
injects exactly those failures into the simulated grid→backend pipeline so
the report's exceptional/degraded classifications can be validated against
*known* outages instead of hoped-for ones.

Three pieces:

* :class:`FaultPlan` — a seeded, deterministic table of fault rules (poll
  errors, dropped / duplicated records, silences, failing backend, WAL and
  checkpoint writes, RPC misbehaviour), each by probability or at scripted
  times; handed to the simulator, which is its one holder;
* :class:`FaultyBackend` — a delegating backend wrapper that raises
  :class:`InjectedFault` from a sniffer's writes when the plan says so;
* :class:`FaultyLog` — a log-file proxy that drops/duplicates records on
  *read* (the log itself stays durable; delivery is what's lossy).

See docs/ROBUSTNESS.md for the full fault model.
"""

from repro.faults.plan import KINDS, RPC_KINDS, FaultPlan, InjectedFault, plan_from_json
from repro.faults.backend import FaultyBackend
from repro.faults.log import FaultyLog

__all__ = [
    "FaultPlan",
    "FaultyBackend",
    "FaultyLog",
    "InjectedFault",
    "KINDS",
    "RPC_KINDS",
    "plan_from_json",
]
