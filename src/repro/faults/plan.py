"""The fault plan: a seeded, deterministic schedule of pipeline failures.

A :class:`FaultPlan` is data with one door: a table of rules, one decision
(:meth:`FaultPlan.fires`) and one state (:meth:`FaultPlan.checkpoint`, which
rides in the simulator's checkpoint beside its RNG). It never touches a
sniffer or backend itself — the injection points (supervisor,
:class:`FaultyBackend`, :class:`FaultyLog`, the durability manager, the shard
RPC server) *ask* it whether a fault of the kind they mean fires for
``(source, now)`` and act on the answer. Determinism has two ingredients:

* every ``(source, kind)`` pair draws from its own ``random.Random``
  seeded by a stable hash of ``(plan seed, source, kind)``, so the
  decision stream for one source is independent of how many other sources
  exist or in what order they poll;
* scripted times (``at=...``) are one-shot triggers that fire on the first
  consultation with ``now >=`` the scripted time, so they are robust to
  tick sizes and irregular poll cadences.

Fault kinds (the only vocabulary — a rule's ``kind`` is what the injection
point asks for):

``poll_error``
    The sniffer's poll raises an :class:`InjectedFault` — transient (the
    supervisor retries with backoff) or permanent (the supervisor degrades
    the source immediately).
``drop_records`` / ``duplicate_records``
    Records vanish from, or appear twice in, what a poll reads. Dropping can
    spare ``HEARTBEAT`` records (``spare_heartbeats=True``) to model the
    paper's Section 3.1 scenario: data lost, liveness signal intact.
``backend_apply`` / ``backend_heartbeat``
    A poll's backend write raises before any of it lands (consulted per
    row it writes, and for the heartbeat it publishes).
``wal_append`` / ``checkpoint_write``
    The durability layer fails: a WAL journal append raises mid-poll (the
    supervisor retries the poll), or a checkpoint write fails (the manager
    keeps the previous checkpoint and carries on).  Checkpoint rules are
    consulted with source ``"*"``.
``silence``
    The machine stops writing its log between ``start`` and ``end`` — the
    "silent source" whose recency freezes.
``rpc_drop`` / ``rpc_delay`` / ``rpc_duplicate`` / ``rpc_garbage``
    Federation RPC misbehaviour, injected by the shard server *below* the
    protocol layer: the reply vanishes, stalls, arrives twice, or arrives
    as a non-JSON frame. ``source`` is the shard id here, and the decision
    query is :meth:`FaultPlan.check_rpc` (returns the kind instead of
    raising — dropping a reply is not an exception on the server side).
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.breaker import stable_seed
from repro.errors import SimulationError, check_number
from repro.obs import instrument as obs
from repro.obs.events import EVT_FAULT_INJECTED

if TYPE_CHECKING:  # grid imports stay type-only: faults must not import grid
    from repro.grid.events import LogEvent  # pragma: no cover

#: The kinds :meth:`FaultPlan.check` raises for, with the failure each names.
_MESSAGES = {
    "poll_error": "{flavour} poll error",
    "backend_apply": "backend apply failure",
    "backend_heartbeat": "backend heartbeat failure",
    "wal_append": "wal write failure",
    "checkpoint_write": "checkpoint write failure",
}
#: Federation RPC fault kinds (source = shard id, not machine id).
RPC_KINDS = ("rpc_drop", "rpc_delay", "rpc_duplicate", "rpc_garbage")
KINDS = tuple(_MESSAGES) + ("drop_records", "duplicate_records") + RPC_KINDS + ("silence",)


class InjectedFault(SimulationError):
    """An error raised on purpose by a :class:`FaultPlan`.

    ``transient`` tells the supervisor whether retrying can help: transient
    faults go through the retry/backoff path, permanent ones degrade the
    source immediately.
    """

    def __init__(self, message: str, source: str, kind: str, transient: bool = True) -> None:
        super().__init__(message)
        self.source = source
        self.kind = kind
        self.transient = transient


class _Rule:
    """One fault rule. Its fields beside ``kind`` are :attr:`FIELDS` — also
    the JSON schema of one ``faults`` entry, defaults included."""

    #: ``source`` may be ``"*"`` (every source); ``start``/``end`` are the
    #: silence window, the other kinds fire by ``probability`` or ``at``.
    FIELDS = {
        "source": "*", "probability": 0.0, "at": (), "transient": True,
        "spare_heartbeats": False, "start": None, "end": None,
    }
    __slots__ = ("kind", "fired") + tuple(FIELDS)

    def __init__(self, kind: str, **fields: object) -> None:
        unknown = set(fields) - set(self.FIELDS)
        if unknown:
            raise SimulationError(f"unknown fields: {sorted(unknown)}")
        if kind not in KINDS:
            raise SimulationError(f"unknown fault kind {kind!r}; expected one of {KINDS}")
        for name, default in self.FIELDS.items():
            setattr(self, name, fields.get(name, default))
        self.kind = kind
        self.probability = float(
            check_number("probability", self.probability, 0, 1, error=SimulationError)
        )
        if not isinstance(self.at, (list, tuple)):
            raise SimulationError("'at' must be a list of times")
        self.at = tuple(float(check_number("at", t, error=SimulationError)) for t in self.at)
        if kind == "silence":
            if self.source == "*":
                raise SimulationError("silence rules need a concrete source id")
            self.start = float(check_number("start", self.start, 0, error=SimulationError))
            if self.end is not None:
                self.end = float(check_number(
                    "end", self.end, self.start, low_open=True, error=SimulationError
                ))
        elif self.probability == 0.0 and not self.at:
            raise SimulationError(f"{kind} rule for {self.source!r} would never fire "
                                  "(zero probability and no scripted times)")
        #: scripted times that already fired, per concrete source (a "*"
        #: rule fires once per source, not once globally).
        self.fired: Dict[str, Set[float]] = {}

    def matches(self, source: str) -> bool:
        return self.source == "*" or self.source == source

    def scripted_due(self, source: str, now: float) -> bool:
        """True (and consumes the trigger) if a scripted time is due."""
        fired = self.fired.setdefault(source, set())
        for t in self.at:
            if t <= now and t not in fired:
                fired.add(t)
                return True
        return False

    def silent(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)

    def document(self) -> Dict[str, object]:
        """The rule as its JSON entry: ``kind``, ``source``, then every
        field that differs from its default."""
        entry = {"kind": self.kind, "source": self.source}
        for name, default in self.FIELDS.items():
            if getattr(self, name) != default:
                entry[name] = getattr(self, name)
        return entry


class FaultPlan:
    """A deterministic schedule of injected faults. See the module docstring.

    Builder methods return ``self`` so plans read as one chained expression::

        plan = (FaultPlan(seed=7)
                .silence("m3", start=120.0)
                .poll_error("m2", probability=0.2)
                .backend_error("*", op="heartbeat", at=[50.0]))

    Hand the plan to the simulator (the ``fault_plan`` argument of
    ``GridSimulator`` or ``ShardServer``, or ``--faults``) and nowhere else:
    what the simulator builds and binds reads it from there.
    """

    def __init__(self, seed: int = 0, telemetry: Optional[object] = None) -> None:
        self.seed = seed
        self.telemetry = telemetry
        self._rules: List[_Rule] = []
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        #: Count of injections actually performed, keyed by fault kind.
        self.injected: Dict[str, int] = {}

    # -- builders (sugar over ``add``) ---------------------------------------

    def add(
        self,
        kind: str,
        source: str = "*",
        probability: float = 0.0,
        at: Sequence[float] = (),
        **fields: object,
    ) -> "FaultPlan":
        """Append one rule of ``kind``; the fields are :attr:`_Rule.FIELDS`."""
        self._rules.append(_Rule(kind, source=source, probability=probability, at=at, **fields))
        return self

    def poll_error(
        self,
        source: str = "*",
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
    ) -> "FaultPlan":
        """Make the source's sniffer poll raise an :class:`InjectedFault`."""
        return self.add("poll_error", source, probability, at, transient=transient)

    def drop_records(
        self,
        source: str = "*",
        probability: float = 0.0,
        at: Sequence[float] = (),
        spare_heartbeats: bool = False,
    ) -> "FaultPlan":
        """Drop records from what a poll reads (each record rolls independently)."""
        return self.add("drop_records", source, probability, at, spare_heartbeats=spare_heartbeats)

    def duplicate_records(
        self, source: str = "*", probability: float = 0.0, at: Sequence[float] = ()
    ) -> "FaultPlan":
        """Deliver some records twice (at-least-once delivery)."""
        return self.add("duplicate_records", source, probability, at)

    def backend_error(
        self,
        source: str = "*",
        op: str = "apply",
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
    ) -> "FaultPlan":
        """Fail a poll's backend write: ``op="apply"`` (its rows) or
        ``op="heartbeat"`` (the recency it publishes)."""
        if op not in ("apply", "heartbeat"):
            raise SimulationError(f"backend_error op must be 'apply' or 'heartbeat', got {op!r}")
        return self.add(f"backend_{op}", source, probability, at, transient=transient)

    def durability_error(
        self,
        source: str = "*",
        op: str = "wal",
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
    ) -> "FaultPlan":
        """Fail durability writes: ``op="wal"`` (journal append during a
        poll) or ``op="checkpoint"`` (checkpoint write — use source ``"*"``,
        checkpoints are not per-source)."""
        kinds = {"wal": "wal_append", "checkpoint": "checkpoint_write"}
        if op not in kinds:
            raise SimulationError(f"durability_error op must be 'wal' or 'checkpoint', got {op!r}")
        return self.add(kinds[op], source, probability, at, transient=transient)

    def rpc_fault(
        self,
        source: str = "*",
        kind: str = "rpc_drop",
        probability: float = 0.0,
        at: Sequence[float] = (),
    ) -> "FaultPlan":
        """Misbehave on a shard's RPC replies; ``source`` is the shard id."""
        if kind not in RPC_KINDS:
            raise SimulationError(f"rpc fault kind must be one of {RPC_KINDS}, got {kind!r}")
        return self.add(kind, source, probability, at)

    def silence(self, source: str, start: float, end: Optional[float] = None) -> "FaultPlan":
        """Stall the machine's log from ``start`` (to ``end``, or forever)."""
        return self.add("silence", source, start=start, end=end)

    # -- decision queries ---------------------------------------------------

    def _rng(self, source: str, kind: str) -> random.Random:
        key = (source, kind)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(stable_seed(self.seed, source, kind))
        return rng

    def _roll(self, rule: _Rule, source: str) -> bool:
        return rule.probability > 0.0 and self._rng(source, rule.kind).random() < rule.probability

    def _rules_for(self, kind: str, source: str) -> List[_Rule]:
        return [r for r in self._rules if r.kind == kind and r.matches(source)]

    def _record(self, kind: str, source: str, count: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + count
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.FAULTS_INJECTED, count, kind=kind, machine=source)
            tel.emit(EVT_FAULT_INJECTED, source=source, severity="warning", kind=kind, count=count)

    def fires(self, kind: str, source: str, now: float) -> Optional[_Rule]:
        """The one decision: the first ``kind`` rule due for ``source`` at
        ``now`` — a scripted trigger (consumed), else a roll of the rule's
        probability on the ``(source, kind)`` stream — recorded; or ``None``."""
        for rule in self._rules:
            if rule.kind == kind and rule.matches(source) and (
                rule.scripted_due(source, now) or self._roll(rule, source)
            ):
                self._record(kind, source)
                return rule
        return None

    def check(self, kind: str, source: str, now: float) -> None:
        """Raise :class:`InjectedFault` if a ``kind`` fault fires (``kind``
        is one of the raising kinds: poll, backend, WAL, checkpoint)."""
        rule = self.fires(kind, source, now)
        if rule is not None:
            what = _MESSAGES[kind].format(flavour="transient" if rule.transient else "permanent")
            raise InjectedFault(
                f"injected {what} for {source!r} at t={now:g}", source, kind, rule.transient
            )

    def check_rpc(self, source: str, now: float) -> Optional[str]:
        """The RPC fault kind due for this shard's reply, or ``None``.

        Consulted once per request by the shard's RPC server; returns the
        first due kind in :data:`RPC_KINDS` order (drop beats delay beats
        duplicate beats garbage when several are due the same instant).
        """
        for kind in RPC_KINDS:
            if self.fires(kind, source, now) is not None:
                return kind
        return None

    def filter_events(
        self, source: str, now: float, events: Sequence["LogEvent"]
    ) -> List["LogEvent"]:
        """Apply drop/duplicate rules to one poll's worth of records (one
        ``fault.injected`` event per kind per poll, ``count`` = records)."""
        if not events:
            return list(events)
        # Local import keeps repro.faults importable without repro.grid
        # (which imports the supervisor, which imports this package).
        from repro.grid.events import EventKind

        drop_rules = self._rules_for("drop_records", source)
        dup_rules = self._rules_for("duplicate_records", source)
        drop_all = any(r.scripted_due(source, now) for r in drop_rules)
        dup_all = any(r.scripted_due(source, now) for r in dup_rules)
        out: List["LogEvent"] = []
        dropped = 0
        for event in events:
            heartbeat = event.kind is EventKind.HEARTBEAT
            if any(
                not (rule.spare_heartbeats and heartbeat)
                and (drop_all or self._roll(rule, source))
                for rule in drop_rules
            ):
                dropped += 1
                continue
            out.append(event)
            if any(dup_all or self._roll(rule, source) for rule in dup_rules):
                out.append(event)
        duplicated = len(out) + dropped - len(events)
        if dropped:
            self._record("drop_records", source, dropped)
        if duplicated:
            self._record("duplicate_records", source, duplicated)
        return out

    def silenced_sources(self, now: Optional[float] = None) -> Set[str]:
        """Sources silenced at ``now`` (or by *any* window when ``None``)."""
        return {
            r.source for r in self._rules
            if r.kind == "silence" and (now is None or r.silent(now))
        }

    # -- state ---------------------------------------------------------------

    def checkpoint(self) -> dict:
        """Everything deciding changes, JSON-serializable: the spent triggers
        of each rule, every decision stream's RNG state, the counts."""
        return {
            "fired": [{s: sorted(ts) for s, ts in r.fired.items()} for r in self._rules],
            "rngs": [[s, k, rng.getstate()] for (s, k), rng in self._rngs.items()],
            "injected": dict(self.injected),
        }

    def restore(self, state: dict) -> None:
        """Continue from a :meth:`checkpoint` of a plan with these rules."""
        for rule, fired in zip(self._rules, state["fired"]):
            rule.fired = {source: set(times) for source, times in fired.items()}
        self._rngs = {}
        for source, kind, (version, internal, gauss) in state["rngs"]:
            self._rng(source, kind).setstate((version, tuple(internal), gauss))
        self.injected = dict(state["injected"])

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        faults = [rule.document() for rule in self._rules]
        return json.dumps({"seed": self.seed, "faults": faults}, indent=2)

    def __repr__(self) -> str:
        injected = sum(self.injected.values())
        return f"FaultPlan(seed={self.seed}, rules={len(self._rules)}, injected={injected})"


def plan_from_json(text: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from its JSON document form: a ``seed`` and
    a list of rules, each a ``kind`` plus any of :attr:`_Rule.FIELDS`::

        {"seed": 7,
         "faults": [
           {"kind": "silence", "source": "m3", "start": 120},
           {"kind": "poll_error", "source": "m2", "probability": 0.2},
           {"kind": "backend_heartbeat", "source": "*", "at": [50]},
           {"kind": "drop_records", "source": "m4", "probability": 0.1,
            "spare_heartbeats": true}
         ]}
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"malformed fault plan JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SimulationError("fault plan JSON must be an object")
    unknown_top = set(data) - {"seed", "faults"}
    if unknown_top:
        raise SimulationError(f"fault plan has unknown fields: {sorted(unknown_top)}")
    plan = FaultPlan(seed=int(data.get("seed", 0)))
    faults = data.get("faults", [])
    if not isinstance(faults, list):
        raise SimulationError("'faults' must be a list of fault objects")
    for index, item in enumerate(faults):
        if not isinstance(item, dict):
            raise SimulationError(f"fault #{index} is not an object")
        fields = dict(item)
        try:
            plan.add(fields.pop("kind", None), **fields)
        except SimulationError as exc:
            raise SimulationError(f"fault #{index}: {exc}") from exc
    return plan
