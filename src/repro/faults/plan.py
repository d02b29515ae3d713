"""The fault plan: a seeded, deterministic schedule of pipeline failures.

A :class:`FaultPlan` is pure decision logic — it never touches a sniffer or
backend itself. The integration points (supervisor, :class:`FaultyBackend`,
:class:`FaultyLog`) *ask* it whether a fault fires for ``(source, now)`` and
act on the answer. Determinism has two ingredients:

* every ``(source, channel)`` pair draws from its own ``random.Random``
  seeded by a stable hash of ``(plan seed, source, channel)``, so the
  decision stream for one source is independent of how many other sources
  exist or in what order they poll;
* scripted times (``at=...``) are one-shot triggers that fire on the first
  consultation with ``now >=`` the scripted time, so they are robust to
  tick sizes and irregular poll cadences.

Fault kinds (the channels):

``poll_error``
    The sniffer's poll raises an :class:`InjectedFault` — transient (the
    supervisor retries with backoff) or permanent (the supervisor degrades
    the source immediately).
``drop_records`` / ``duplicate_records``
    Records vanish from, or appear twice in, what a poll reads. Dropping can
    spare ``HEARTBEAT`` records (``spare_heartbeats=True``) to model the
    paper's Section 3.1 scenario: data lost, liveness signal intact.
``backend_apply`` / ``backend_heartbeat``
    The backend write (``upsert_rows``/``delete_rows``, or
    ``upsert_heartbeat``) raises mid-poll.
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

import hashlib
import json
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.obs import instrument as obs
from repro.obs.events import EVT_FAULT_INJECTED

if TYPE_CHECKING:  # grid imports stay type-only: faults must not import grid
    from repro.grid.events import LogEvent  # pragma: no cover

#: Channels that carry probabilistic / scripted error rules.
_ERROR_KINDS = (
    "poll_error",
    "backend_apply",
    "backend_heartbeat",
    "wal_append",
    "checkpoint_write",
)
_RECORD_KINDS = ("drop_records", "duplicate_records")
#: Federation RPC fault channels (source = shard id, not machine id).
RPC_KINDS = ("rpc_drop", "rpc_delay", "rpc_duplicate", "rpc_garbage")
KINDS = _ERROR_KINDS + _RECORD_KINDS + RPC_KINDS + ("silence",)


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


def _stable_seed(*parts: object) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Rule:
    """One fault rule; ``source`` may be ``"*"`` (every source)."""

    __slots__ = ("kind", "source", "probability", "at", "fired", "transient", "spare_heartbeats")

    def __init__(
        self,
        kind: str,
        source: str,
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
        spare_heartbeats: bool = False,
    ) -> None:
        if kind not in KINDS:
            raise SimulationError(f"unknown fault kind {kind!r}; expected one of {KINDS}")
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(f"fault probability must be in [0, 1], got {probability}")
        if probability == 0.0 and not at and kind != "silence":
            raise SimulationError(f"{kind} rule for {source!r} would never fire "
                                  "(zero probability and no scripted times)")
        self.kind = kind
        self.source = source
        self.probability = float(probability)
        self.at = tuple(float(t) for t in at)
        #: scripted times that already fired, per concrete source (a "*"
        #: rule fires once per source, not once globally).
        self.fired: Dict[str, Set[float]] = {}
        self.transient = transient
        self.spare_heartbeats = spare_heartbeats

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


class _Silence:
    __slots__ = ("source", "start", "end")

    def __init__(self, source: str, start: float, end: Optional[float]) -> None:
        if source == "*":
            raise SimulationError("silence rules need a concrete source id")
        if start < 0:
            raise SimulationError(f"silence start must be >= 0, got {start}")
        if end is not None and end <= start:
            raise SimulationError(f"silence end ({end}) must be after start ({start})")
        self.source = source
        self.start = float(start)
        self.end = None if end is None else float(end)

    def active(self, now: float) -> bool:
        return now >= self.start and (self.end is None or now < self.end)


class FaultPlan:
    """A deterministic schedule of injected faults. See the module docstring.

    Builder methods return ``self`` so plans read as one chained expression::

        plan = (FaultPlan(seed=7)
                .silence("m3", start=120.0)
                .poll_error("m2", probability=0.2)
                .backend_error("*", op="heartbeat", at=[50.0]))
    """

    def __init__(self, seed: int = 0, telemetry: Optional[object] = None) -> None:
        self.seed = seed
        self.telemetry = telemetry
        self._rules: List[_Rule] = []
        self._silences: List[_Silence] = []
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        #: Count of injections actually performed, keyed by fault kind.
        self.injected: Dict[str, int] = {}

    # -- builders -----------------------------------------------------------

    def poll_error(
        self,
        source: str = "*",
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
    ) -> "FaultPlan":
        """Make the source's sniffer poll raise an :class:`InjectedFault`."""
        self._rules.append(_Rule("poll_error", source, probability, at, transient=transient))
        return self

    def drop_records(
        self,
        source: str = "*",
        probability: float = 0.0,
        at: Sequence[float] = (),
        spare_heartbeats: bool = False,
    ) -> "FaultPlan":
        """Drop records from what a poll reads (each record rolls independently)."""
        self._rules.append(
            _Rule("drop_records", source, probability, at, spare_heartbeats=spare_heartbeats)
        )
        return self

    def duplicate_records(
        self, source: str = "*", probability: float = 0.0, at: Sequence[float] = ()
    ) -> "FaultPlan":
        """Deliver some records twice (at-least-once delivery)."""
        self._rules.append(_Rule("duplicate_records", source, probability, at))
        return self

    def backend_error(
        self,
        source: str = "*",
        op: str = "apply",
        probability: float = 0.0,
        at: Sequence[float] = (),
        transient: bool = True,
    ) -> "FaultPlan":
        """Fail backend writes: ``op="apply"`` (upsert/delete rows) or
        ``op="heartbeat"`` (``upsert_heartbeat``)."""
        if op not in ("apply", "heartbeat"):
            raise SimulationError(f"backend_error op must be 'apply' or 'heartbeat', got {op!r}")
        self._rules.append(
            _Rule(f"backend_{op}", source, probability, at, transient=transient)
        )
        return self

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
        if op not in ("wal", "checkpoint"):
            raise SimulationError(
                f"durability_error op must be 'wal' or 'checkpoint', got {op!r}"
            )
        kind = "wal_append" if op == "wal" else "checkpoint_write"
        self._rules.append(_Rule(kind, source, probability, at, transient=transient))
        return self

    def rpc_fault(
        self,
        source: str = "*",
        kind: str = "rpc_drop",
        probability: float = 0.0,
        at: Sequence[float] = (),
    ) -> "FaultPlan":
        """Misbehave on a shard's RPC replies; ``source`` is the shard id."""
        if kind not in RPC_KINDS:
            raise SimulationError(
                f"rpc fault kind must be one of {RPC_KINDS}, got {kind!r}"
            )
        self._rules.append(_Rule(kind, source, probability, at))
        return self

    def silence(self, source: str, start: float, end: Optional[float] = None) -> "FaultPlan":
        """Stall the machine's log from ``start`` (to ``end``, or forever)."""
        self._silences.append(_Silence(source, start, end))
        return self

    # -- decision queries ---------------------------------------------------

    def _rng(self, source: str, channel: str) -> random.Random:
        key = (source, channel)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(_stable_seed(self.seed, source, channel))
        return rng

    def _record(self, kind: str, source: str, count: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + count
        tel = obs.resolve(self.telemetry)
        if tel.enabled:
            tel.count(obs.FAULTS_INJECTED, count, kind=kind, machine=source)
            tel.emit(
                EVT_FAULT_INJECTED,
                source=source,
                severity="warning",
                kind=kind,
                count=count,
            )

    def _error_due(self, kind: str, source: str, now: float) -> Optional[_Rule]:
        for rule in self._rules:
            if rule.kind != kind or not rule.matches(source):
                continue
            if rule.scripted_due(source, now):
                return rule
            if rule.probability > 0.0 and self._rng(source, kind).random() < rule.probability:
                return rule
        return None

    def check_poll(self, source: str, now: float) -> None:
        """Raise :class:`InjectedFault` if a poll error fires for this poll."""
        rule = self._error_due("poll_error", source, now)
        if rule is not None:
            self._record("poll_error", source)
            flavour = "transient" if rule.transient else "permanent"
            raise InjectedFault(
                f"injected {flavour} poll error for {source!r} at t={now:g}",
                source,
                "poll_error",
                transient=rule.transient,
            )

    def check_backend(self, source: str, now: float, op: str) -> None:
        """Raise :class:`InjectedFault` if a backend write should fail."""
        kind = f"backend_{op}"
        rule = self._error_due(kind, source, now)
        if rule is not None:
            self._record(kind, source)
            raise InjectedFault(
                f"injected backend {op} failure for {source!r} at t={now:g}",
                source,
                kind,
                transient=rule.transient,
            )

    def check_durability(self, source: str, now: float, op: str) -> None:
        """Raise :class:`InjectedFault` if a WAL/checkpoint write should fail."""
        kind = "wal_append" if op == "wal" else "checkpoint_write"
        rule = self._error_due(kind, source, now)
        if rule is not None:
            self._record(kind, source)
            raise InjectedFault(
                f"injected {op} write failure for {source!r} at t={now:g}",
                source,
                kind,
                transient=rule.transient,
            )

    def check_rpc(self, source: str, now: float) -> Optional[str]:
        """The RPC fault kind due for this shard's reply, or ``None``.

        Consulted once per request by the shard's RPC server; returns the
        first due kind in :data:`RPC_KINDS` order (drop beats delay beats
        duplicate beats garbage when several are due the same instant).
        """
        for kind in RPC_KINDS:
            if self._error_due(kind, source, now) is not None:
                self._record(kind, source)
                return kind
        return None

    def filter_events(
        self, source: str, now: float, events: Sequence["LogEvent"]
    ) -> List["LogEvent"]:
        """Apply drop/duplicate rules to one poll's worth of records."""
        if not events:
            return list(events)
        # Local import keeps repro.faults importable without repro.grid
        # (which imports the supervisor, which imports this package).
        from repro.grid.events import EventKind

        out: List["LogEvent"] = []
        drop_rules = [
            r for r in self._rules if r.kind == "drop_records" and r.matches(source)
        ]
        dup_rules = [
            r for r in self._rules if r.kind == "duplicate_records" and r.matches(source)
        ]
        drop_all = any(r.scripted_due(source, now) for r in drop_rules)
        dup_all = any(r.scripted_due(source, now) for r in dup_rules)
        for event in events:
            dropped = False
            for rule in drop_rules:
                if rule.spare_heartbeats and event.kind is EventKind.HEARTBEAT:
                    continue
                if drop_all or (
                    rule.probability > 0.0
                    and self._rng(source, "drop_records").random() < rule.probability
                ):
                    dropped = True
                    break
            if dropped:
                self._record("drop_records", source)
                continue
            out.append(event)
            for rule in dup_rules:
                if dup_all or (
                    rule.probability > 0.0
                    and self._rng(source, "duplicate_records").random() < rule.probability
                ):
                    out.append(event)
                    self._record("duplicate_records", source)
                    break
        return out

    def is_silenced(self, source: str, now: float) -> bool:
        """Whether the plan silences ``source`` at time ``now``."""
        return any(s.source == source and s.active(now) for s in self._silences)

    def silenced_sources(self, now: Optional[float] = None) -> Set[str]:
        """Sources silenced at ``now`` (or by *any* window when ``None``)."""
        if now is None:
            return {s.source for s in self._silences}
        return {s.source for s in self._silences if s.active(now)}

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> str:
        faults: List[Dict[str, object]] = []
        for rule in self._rules:
            entry: Dict[str, object] = {"kind": rule.kind, "source": rule.source}
            if rule.probability:
                entry["probability"] = rule.probability
            if rule.at:
                entry["at"] = list(rule.at)
            if not rule.transient:
                entry["transient"] = False
            if rule.spare_heartbeats:
                entry["spare_heartbeats"] = True
            faults.append(entry)
        for silence in self._silences:
            entry = {"kind": "silence", "source": silence.source, "start": silence.start}
            if silence.end is not None:
                entry["end"] = silence.end
            faults.append(entry)
        return json.dumps({"seed": self.seed, "faults": faults}, indent=2)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self._rules)}, "
            f"silences={len(self._silences)}, injected={sum(self.injected.values())})"
        )


def plan_from_json(text: str) -> FaultPlan:
    """Load a :class:`FaultPlan` from its JSON document form.

    Format::

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
    allowed = {"kind", "source", "probability", "at", "transient", "spare_heartbeats",
               "start", "end"}
    for index, item in enumerate(faults):
        if not isinstance(item, dict):
            raise SimulationError(f"fault #{index} is not an object")
        unknown = set(item) - allowed
        if unknown:
            raise SimulationError(f"fault #{index} has unknown fields: {sorted(unknown)}")
        kind = item.get("kind")
        source = item.get("source", "*")
        if kind == "silence":
            if "start" not in item:
                raise SimulationError(f"fault #{index}: silence needs 'start'")
            plan.silence(source, item["start"], item.get("end"))
            continue
        probability = float(item.get("probability", 0.0))
        at = item.get("at", ())
        if not isinstance(at, (list, tuple)):
            raise SimulationError(f"fault #{index}: 'at' must be a list of times")
        transient = bool(item.get("transient", True))
        if kind == "poll_error":
            plan.poll_error(source, probability, at, transient=transient)
        elif kind == "drop_records":
            plan.drop_records(
                source, probability, at,
                spare_heartbeats=bool(item.get("spare_heartbeats", False)),
            )
        elif kind == "duplicate_records":
            plan.duplicate_records(source, probability, at)
        elif kind in ("backend_apply", "backend_heartbeat"):
            plan.backend_error(
                source, op=kind.split("_", 1)[1], probability=probability, at=at,
                transient=transient,
            )
        elif kind in RPC_KINDS:
            plan.rpc_fault(source, kind, probability, at)
        elif kind in ("wal_append", "checkpoint_write"):
            plan.durability_error(
                source,
                op="wal" if kind == "wal_append" else "checkpoint",
                probability=probability,
                at=at,
                transient=transient,
            )
        else:
            raise SimulationError(f"fault #{index} has unknown kind {kind!r}")
    return plan
