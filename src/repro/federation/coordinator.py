"""The federation coordinator: partial-failure-safe recency reports.

The :class:`FederationCoordinator` answers the sharded deployment's version
of TRAC's question — *how recent and how consistent is this answer?* — with
one extra axis the single-process reporter never needed: **completeness**.
A federated report always returns within its deadline and always says
exactly which shards it heard from (``shards_ok``), which it did not
(``missing_shards``), and which were served stale from the fragment cache
(``stale_shards``), in the same honest-disclosure spirit as the paper's
NOTICE lines.

Fan-out discipline, per shard and per report (one selector loop over pooled,
persistent connections drives all of it — no thread or connect per request):

* a **per-shard circuit breaker** (:class:`repro.core.breaker.CircuitBreaker`,
  the same class the sniffer supervisors use) skips shards that have been
  failing, with a half-open probe after ``breaker_reset`` wall seconds;
* **bounded retries** with exponential backoff and seeded jitter
  (decorrelated per shard, like the supervisor fleet's);
* a **hedged request** fired at stragglers after ``hedge_delay`` seconds on
  a second socket — first reply wins, the loser's socket is closed;
* a hard **deadline**: whatever has not arrived when it expires is merged
  as missing (or stale-cached), never waited for.

Correctness (the split-identity property the differential test enforces):
the coordinator is the single-process report pipeline with a remote fetch
stage. Shards answer the plan's fragment request unconditionally
(:func:`~repro.core.recency_query.execute_fragment`), the replies are merged
by the same :func:`~repro.core.recency_query.merge_fragments` the local
reporter uses, and the one global z-score split is the report's own.
Guard filtering or outlier-splitting per shard would both be unsound.
"""

from __future__ import annotations

import itertools
import random
import selectors
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.breaker import CircuitBreaker, backoff_delay, stable_seed
from repro.core.recency_query import fragment_request, merge_fragments
from repro.core.relevance import RelevancePlan, build_naive_plan, memoized_relevance_plan
from repro.core.report import DEFAULT_Z_THRESHOLD, RecencyReport, ReportTimings, format_interval
from repro.engine.cache import resolve_cached
from repro.errors import TracError, check_number
from repro.federation import rpc
from repro.federation.rpc import RPCError, RPCTimeout
from repro.grid.simulator import monitoring_catalog
from repro.obs import instrument as obs
from repro.obs.dashboard import source_rows
from repro.obs.events import (
    EVT_FEDERATION_PARTIAL,
    EVT_SHARD_DEAD,
    EVT_SHARD_HEDGE,
    EVT_SHARD_REJOINED,
    EVT_SHARD_RPC_RETRY,
)
from repro.obs.trace import inject_context

_METHODS = ("focused", "naive")
_NEVER = float("inf")
#: Last-good fragments kept for the stale fallback, least recently stored out first.
_FRAGMENT_CACHE_SIZE = 1024
#: Seconds before a shard's first retry; each further retry waits
#: ``_BACKOFF_MULTIPLIER`` times longer, spread by ``±_JITTER``.
_BACKOFF_BASE = 0.05
_BACKOFF_MULTIPLIER = 2.0
_JITTER = 0.5
#: Circuit-breaker states as gauge values (closed < half-open < open).
_BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


class ShardInfo:
    """Registry entry for one shard."""

    __slots__ = ("shard_id", "host", "port", "machines", "alive", "last_error", "recency")

    def __init__(self, shard_id: str, host: str, port: int, machines: List[str]) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.machines = list(machines)
        self.alive = True
        self.last_error: Optional[str] = None
        #: Last heartbeat's per-machine reported recency map.
        self.recency: Dict[str, float] = {}

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ShardInfo({self.shard_id!r}, {self.host}:{self.port}, {state})"


class ShardRegistry:
    """Tracks shard membership and health via heartbeat RPCs.

    Registration performs a ``hello`` RPC to learn the shard's id and
    machine set; :meth:`refresh` heartbeats every member and flips
    ``alive`` (emitting ``federation.shard_dead`` / ``shard_rejoined``
    events on transitions). Thread-safe: the coordinator reads a snapshot
    while a background heartbeat loop refreshes. :attr:`version` grows
    whenever a shard joins, leaves or reports a different machine list.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._shards: Dict[str, ShardInfo] = {}
        self.version = 0

    def register(self, host: str, port: int, timeout: float = 2.0) -> ShardInfo:
        """Hello a shard and add it to the membership."""
        reply = rpc.call(host, port, {"op": "hello"}, timeout=timeout)
        if not reply.get("ok"):
            raise RPCError(f"shard at {host}:{port} refused hello: {reply.get('error')}")
        shard_id = str(reply["shard_id"])
        info = ShardInfo(shard_id, host, port, [str(m) for m in reply["machines"]])
        info.recency = {str(k): float(v) for k, v in reply.get("recency", {}).items()}
        with self._lock:  # a restarted shard re-registers, maybe on a new port
            self._shards[shard_id] = info
            self.version += 1
        return info

    def add(self, info: ShardInfo) -> None:
        """Add a pre-built entry (tests and static topologies)."""
        with self._lock:
            self._shards[info.shard_id] = info
            self.version += 1

    def remove(self, shard_id: str) -> None:
        with self._lock:
            self._shards.pop(shard_id, None)
            self.version += 1

    def shards(self) -> List[ShardInfo]:
        """A point-in-time membership snapshot, ordered by shard id."""
        with self._lock:
            return [self._shards[sid] for sid in sorted(self._shards)]

    def machines(self) -> List[str]:
        """The union machine-id space across every registered shard."""
        seen: Set[str] = set()
        for info in self.shards():
            seen.update(info.machines)
        return sorted(seen)

    def refresh(self, timeout: float = 0.5) -> Dict[str, bool]:
        """Heartbeat every shard; returns ``{shard_id: alive}``."""
        tel = obs.resolve()
        verdicts: Dict[str, bool] = {}
        for info in self.shards():
            was_alive = info.alive
            try:
                reply = rpc.call(
                    info.host, info.port, {"op": "heartbeat"}, timeout=timeout
                )
                alive = bool(reply.get("ok"))
                if alive:
                    machines = [str(m) for m in reply.get("machines", info.machines)]
                    with self._lock:  # a new machine list is a new membership
                        self.version += machines != info.machines
                        info.machines = machines
                    info.recency = {str(k): float(v) for k, v in reply.get("recency", {}).items()}
                    info.last_error = None
            except RPCError as exc:
                alive = False
                info.last_error = str(exc)
            info.alive = alive
            verdicts[info.shard_id] = alive
            if tel.enabled and alive != was_alive:
                tel.emit(
                    EVT_SHARD_REJOINED if alive else EVT_SHARD_DEAD,
                    source=info.shard_id,
                    severity="info" if alive else "error",
                    error=info.last_error,
                )
        return verdicts

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)


class FederatedRecencyReport(RecencyReport):
    """A :class:`~repro.core.report.RecencyReport` whose fetch stage was a
    shard fan-out, plus the federation's honesty fields: ``shards_total`` /
    ``shards_ok`` / ``missing_shards`` / ``stale_shards``. It runs only the
    recency side, so ``result`` is ``None``.
    """

    def __init__(
        self,
        *args,
        shards_total: int,
        shards_ok: int,
        missing_shards: List[str],
        stale_shards: Dict[str, float],
    ) -> None:
        super().__init__(*args)
        self.shards_total = shards_total
        self.shards_ok = shards_ok
        self.missing_shards = list(missing_shards)
        #: Shards answered from the last-good fragment cache, mapped to the
        #: age (wall seconds) of the cached fragment.
        self.stale_shards = dict(stale_shards)

    @property
    def complete(self) -> bool:
        """True when every shard contributed a fresh fragment."""
        return not self.missing_shards and not self.stale_shards

    def notices(self) -> List[str]:
        """NOTICE lines: completeness first, then the single-process report's."""
        lines: List[str] = []
        if not self.complete:
            missing = f"; missing: {', '.join(self.missing_shards)}" if self.missing_shards else ""
            lines.append(
                "NOTICE: Degraded federated report: "
                f"{self.shards_ok} of {self.shards_total} shard(s) reporting{missing}"
            )
        if self.stale_shards:
            served = ", ".join(
                f"{sid} (age {format_interval(age)})"
                for sid, age in sorted(self.stale_shards.items())
            )
            lines.append(f"NOTICE: Stale cached fragment(s) served for: {served}")
        return lines + super().notices()

    def to_dict(self) -> dict:
        """The report document plus the completeness envelope."""
        return dict(
            super().to_dict(),
            shards_total=self.shards_total,
            shards_ok=self.shards_ok,
            missing_shards=list(self.missing_shards),
            stale_shards=dict(self.stale_shards),
            complete=self.complete,
        )

    def __repr__(self) -> str:
        return (
            f"FederatedRecencyReport(shards={self.shards_ok}/{self.shards_total}, "
            f"missing={self.missing_shards}, relevant={len(self.relevant_source_ids)})"
        )


class _ShardCall:
    """One shard's attempt state inside a :class:`_FanOut`."""

    def __init__(self, info: ShardInfo, breaker: CircuitBreaker) -> None:
        self.info = info
        self.breaker = breaker
        self.failures = 0  # failed attempts so far in this report
        self.conns: List[rpc.Connection] = []  # in flight: the request, maybe its hedge
        self.started = self.expires = 0.0  # the attempt in flight
        self.hedge_at = self.retry_at = _NEVER  # timers: hedge it / back-off is over

    @property
    def wake(self) -> float:
        """When this call next needs the loop without any socket event."""
        return min(self.expires, self.hedge_at) if self.conns else self.retry_at


class _FanOut:
    """One report's fan-out: a selector loop, on the calling thread, over
    every shard's attempt state machine — per-attempt timeout, back-off as a
    timer, one hedged duplicate on a second socket, the hard deadline. No
    thread per request and, on a warm pool, no connect either."""

    def __init__(self, coordinator: "FederationCoordinator", request: dict, deadline_at: float):
        self.co = coordinator
        self.tel = obs.resolve(coordinator.telemetry)
        self.deadline_at = deadline_at
        self.request_id = next(coordinator._request_ids)
        self.frame = rpc.encode_frame(dict(request, id=self.request_id))
        self.selector = selectors.DefaultSelector()
        self.results: Dict[str, Optional[dict]] = {}

    def run(self, shards: List[ShardInfo]) -> Dict[str, Optional[dict]]:
        now = time.monotonic()
        calls = [_ShardCall(info, self.co._breaker(info.shard_id)) for info in shards]
        # An open breaker: don't even burn a connect on that shard.
        pending = [call for call in calls if call.breaker.allow(now)]
        try:
            for call in pending:
                self._begin(call, now)
            while True:
                now = time.monotonic()
                for call in pending:
                    if now >= call.wake and call.info.shard_id not in self.results:
                        self._on_timer(call, now)
                pending = [call for call in pending if call.info.shard_id not in self.results]
                if not pending or now >= self.deadline_at:
                    return self.results
                wake = min(self.deadline_at, min(call.wake for call in pending))
                for key, _mask in self.selector.select(max(0.0, wake - now)):
                    self._on_ready(key)
        finally:
            for call in pending:  # past the deadline: never waited for
                for conn in call.conns:
                    conn.close()
            self.selector.close()

    def _begin(self, call: _ShardCall, now: float) -> None:
        """Start one attempt, budgeted inside what is left of the deadline."""
        timeout = min(self.co.attempt_timeout, self.deadline_at - now)
        hedge = self.co.hedge_delay
        call.started = now
        call.expires = now + timeout
        call.hedge_at = now + hedge if hedge is not None and hedge < timeout else _NEVER
        self._launch(call, now)

    def _launch(self, call: _ShardCall, now: float, fresh: bool = False) -> None:
        address = (call.info.host, call.info.port)
        conn = None if fresh else self.co._pool.take(address)
        try:
            if conn is None:
                conn = rpc.Connection(address)
            conn.send(self.frame)
        except RPCError as exc:
            if conn is not None:
                conn.close()
            self._lost(call, conn, exc, now)
            return
        call.conns.append(conn)
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.outbox else 0)
        self.selector.register(conn.sock, events, (call, conn))

    def _on_ready(self, key: selectors.SelectorKey) -> None:
        call, conn = key.data
        if conn not in call.conns:
            return  # closed earlier in this batch of events
        try:
            messages = conn.pump()
        except RPCError as exc:
            self._release(call, conn).close()
            self._lost(call, conn, exc, time.monotonic())
            return
        # A frame with another id is a duplicate or a late answer to an
        # earlier request on this socket: discard it.
        reply = next((m for m in messages if m.get("id") == self.request_id), None)
        if reply is not None:
            self._won(call, conn, reply)
        elif key.events & selectors.EVENT_WRITE and not conn.outbox:
            self.selector.modify(conn.sock, selectors.EVENT_READ, key.data)

    def _on_timer(self, call: _ShardCall, now: float) -> None:
        info = call.info
        if not call.conns:
            self._begin(call, now)  # back-off is over
        elif now >= call.expires:
            waited = f"{info.shard_id} at {info.host}:{info.port} for {now - call.started:.3g}s"
            self._failed(call, RPCTimeout(f"no answer from shard {waited}"), now)
        else:  # a straggler: race a duplicate on a second socket
            call.hedge_at = _NEVER
            self._launch(call, now)
            if self.tel.enabled:
                self.tel.count(obs.SHARD_HEDGES, shard=info.shard_id)
                self.tel.emit(EVT_SHARD_HEDGE, source=info.shard_id, severity="info")

    def _release(self, call: _ShardCall, conn: rpc.Connection) -> rpc.Connection:
        call.conns.remove(conn)
        self.selector.unregister(conn.sock)
        return conn

    def _lost(self, call: _ShardCall, conn: Optional[rpc.Connection], exc: RPCError, now: float):
        """One of the attempt's connections died (it is already closed)."""
        if conn is not None and conn.reused and not conn.heard:
            # A pooled socket the shard closed while it sat idle says nothing
            # about the shard: once more on a fresh connection, uncharged.
            self._launch(call, now, fresh=True)
        elif not call.conns:  # else the hedge (or the original) may still answer
            self._failed(call, exc, now)

    def _failed(self, call: _ShardCall, exc: RPCError, now: float) -> None:
        """The attempt failed: charge the breaker, then back off or give up."""
        shard_id = call.info.shard_id
        for conn in list(call.conns):
            self._release(call, conn).close()
        call.breaker.record_failure(now)
        if self.tel.enabled:
            outcome = "timeout" if isinstance(exc, RPCTimeout) else "error"
            self.tel.observe(
                obs.SHARD_RPC_SECONDS, now - call.started, shard=shard_id, outcome=outcome
            )
        call.failures += 1
        if call.failures > self.co.retries:
            self.results[shard_id] = None
            return
        if self.tel.enabled:
            self.tel.emit(EVT_SHARD_RPC_RETRY, source=shard_id, severity="warning",
                          attempt=call.failures, error=str(exc))
        call.retry_at = now + self.co._backoff(shard_id, call.failures)

    def _won(self, call: _ShardCall, conn: rpc.Connection, reply: dict) -> None:
        self.co._pool.give(self._release(call, conn))
        for loser in list(call.conns):  # its answer is still owed: close, don't pool
            self._release(call, loser).close()
        now = time.monotonic()
        shard_id = call.info.shard_id
        if reply.get("ok"):
            call.breaker.record_success()
            if self.tel.enabled:
                self.tel.observe(
                    obs.SHARD_RPC_SECONDS, now - call.started, shard=shard_id, outcome="ok"
                )
        else:  # the shard answered but refused: don't retry
            call.breaker.record_failure(now)
            reply = None
        self.results[shard_id] = reply


class FederationCoordinator:
    """Fan out recency-report fragments and merge them, failure-first.

    Parameters
    ----------
    registry:
        The :class:`ShardRegistry` to fan out over.
    deadline:
        Hard wall-clock budget per report; the merge runs with whatever
        has arrived when it expires.
    attempt_timeout:
        Per-RPC-attempt budget (clamped to the remaining deadline).
    retries:
        Retry budget per shard per report, on top of the first attempt;
        retry ``k`` waits ``_BACKOFF_BASE * _BACKOFF_MULTIPLIER^(k-1)``
        seconds, spread by ``±_JITTER`` from a per-shard seeded RNG.
    hedge_delay:
        Fire a duplicate request at a shard whose attempt is still pending
        after this many seconds; ``None`` disables hedging.
    breaker_threshold / breaker_reset:
        Per-shard circuit breaker: consecutive failed *reports* to open,
        wall seconds before the half-open probe.
    stale_fallback / stale_max_age:
        Serve a failed shard's last good fragment when it is younger than
        ``stale_max_age`` wall seconds (tagged in ``stale_shards``). Fragments
        are kept only while this is on; it may be switched at run time.
    """

    def __init__(
        self,
        registry: ShardRegistry,
        deadline: float = 2.0,
        attempt_timeout: float = 0.5,
        retries: int = 2,
        hedge_delay: Optional[float] = 0.25,
        breaker_threshold: int = 3,
        breaker_reset: float = 5.0,
        stale_fallback: bool = False,
        stale_max_age: float = 60.0,
        seed: int = 0,
        telemetry: Optional[object] = None,
    ) -> None:
        check_number("deadline", deadline, 0, low_open=True)
        check_number("attempt_timeout", attempt_timeout, 0, low_open=True)
        check_number("retries", retries, 0)
        check_number("breaker_threshold", breaker_threshold, 1)
        check_number("breaker_reset", breaker_reset, 0, low_open=True)
        if hedge_delay is not None:
            check_number("hedge_delay", hedge_delay, 0, low_open=True)
        check_number("stale_max_age", stale_max_age, 0)
        self.registry = registry
        self.deadline = deadline
        self.attempt_timeout = attempt_timeout
        self.retries = retries
        self.hedge_delay = hedge_delay
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.stale_fallback = stale_fallback
        self.stale_max_age = stale_max_age
        self.seed = seed
        self.telemetry = telemetry
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._rngs: Dict[str, random.Random] = {}
        #: (shard id, what was asked) -> (last good fragment, the monotonic
        #: second it arrived); see _fetch.
        self._fragments: "OrderedDict[tuple, Tuple[dict, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self._pool = rpc.ConnectionPool()
        self._request_ids = itertools.count(1)
        # (registry version, its machine set, their union catalog); see plan_for.
        self._planned: tuple = (None, (), None)
        self.reports_total = 0
        self.partial_reports = 0

    def _breaker(self, shard_id: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(shard_id)
            if breaker is None:
                breaker = CircuitBreaker(self.breaker_threshold, self.breaker_reset)
                self._breakers[shard_id] = breaker
            return breaker

    def _backoff(self, shard_id: str, attempt: int) -> float:
        with self._lock:
            rng = self._rngs.get(shard_id)
            if rng is None:
                seed = stable_seed(self.seed, shard_id, "federation")
                rng = self._rngs[shard_id] = random.Random(seed)
        return backoff_delay(_BACKOFF_BASE, _BACKOFF_MULTIPLIER, attempt, _JITTER, rng)

    # -- planning -----------------------------------------------------------

    def plan_for(self, sql: str, method: str = "focused") -> RelevancePlan:
        """Plan ``sql`` over the shards' union catalog (rebuilt when the
        machine set changes); the plan is memoised on the cached resolution."""
        if method == "naive":
            return build_naive_plan()
        version = self.registry.version
        with self._lock:
            if version != self._planned[0]:  # membership moved: is the union new?
                machines = tuple(self.registry.machines())
                if not machines:
                    raise TracError("no shards registered; cannot build the union catalog")
                same = machines == self._planned[1]
                catalog = self._planned[2] if same else monitoring_catalog(machines)
                self._planned = (version, machines, catalog)
            catalog = self._planned[2]
        return memoized_relevance_plan(resolve_cached(sql, catalog))[0]

    # -- reporting ----------------------------------------------------------

    def report(
        self,
        sql: str,
        method: str = "focused",
        plan: Optional[RelevancePlan] = None,
    ) -> FederatedRecencyReport:
        """Produce one federated recency report, inside the deadline."""
        if method not in _METHODS:
            raise TracError(f"unknown method {method!r}; expected one of {_METHODS}")
        tel = obs.resolve(self.telemetry)
        with obs.PhaseTimer(tel, "federation.report", method=method) as root:
            start = time.monotonic()
            if plan is None:
                plan = self.plan_for(sql, method=method)
            planned = time.monotonic()
            shards = self.registry.shards()
            sources, degraded, shards_ok, missing, stale = self._fetch(
                plan, shards, start + self.deadline, root.span.context
            )
            fetched = time.monotonic()
            report = FederatedRecencyReport(
                sql, method, plan, sources, DEFAULT_Z_THRESHOLD, shards_total=len(shards),
                shards_ok=shards_ok, missing_shards=missing, stale_shards=stale,
            )
            report.degraded_sources = degraded
            if tel.enabled:
                report.telemetry = root.span
            now = time.monotonic()
            report.timings = ReportTimings(
                planned - start, 0.0, fetched - planned, now - fetched, now - start
            )
        with self._lock:
            self.reports_total += 1
            if not report.complete:
                self.partial_reports += 1
        if tel.enabled:
            tel.count(obs.FEDERATION_REPORTS)
            for info in shards:
                state = _BREAKER_STATE_VALUES.get(self._breaker(info.shard_id).state, 2.0)
                tel.set(obs.SHARD_BREAKER_STATE, state, shard=info.shard_id)
            if not report.complete:
                tel.count(obs.FEDERATION_PARTIAL_REPORTS)
                tel.emit(
                    EVT_FEDERATION_PARTIAL,
                    severity="warning",
                    span=root.span,
                    missing=list(missing),
                    stale=sorted(stale),
                    shards_ok=shards_ok,
                    shards_total=len(shards),
                )
        return report

    def _fetch(self, plan: RelevancePlan, shards: List[ShardInfo], deadline_at: float, context):
        """The fetch stage, remote: fan the plan's fragment request out, stand
        a cached fragment in for a silent shard when allowed, merge. Returns
        ``(columns, degraded sources, shards heard from, missing, {stale: age})``."""
        request = fragment_request(plan)
        keep = self.stale_fallback  # only a fallback reads the last-good fragments
        # The stale cache is keyed by what was asked, not only of whom: a
        # fragment's results are index-aligned to *its* request's subqueries.
        asked = (
            plan.mode,
            tuple((sub.sql, tuple(sub.guards)) for sub in plan.subqueries),
        )
        shards_ok = len(shards)
        missing: List[str] = []
        stale: Dict[str, float] = {}
        fragments: List[dict] = []
        if plan.mode != "empty" and shards:
            # The report's span context rides the envelope (no key when
            # telemetry is off): shard-side spans join this report's trace.
            envelope = dict(request, op="fragment")
            inject_context(context, envelope)
            outcomes = _FanOut(self, envelope, deadline_at).run(shards)
            shards_ok = 0
            now = time.monotonic()
            for info in shards:
                key = (info.shard_id, asked)
                fragment = outcomes.get(info.shard_id)
                if fragment is not None:
                    shards_ok += 1
                    if keep:
                        with self._lock:
                            self._fragments.pop(key, None)
                            self._fragments[key] = (fragment, now)
                            if len(self._fragments) > _FRAGMENT_CACHE_SIZE:
                                self._fragments.popitem(last=False)
                elif keep:
                    with self._lock:
                        fragment, arrived = self._fragments.get(key, (None, now))
                    if fragment is not None and now - arrived <= self.stale_max_age:
                        stale[info.shard_id] = now - arrived
                    else:
                        fragment = None
                if fragment is None:
                    missing.append(info.shard_id)
                    continue
                fragments.append(fragment)
        degraded: Set[str] = set()
        for fragment in fragments:
            degraded.update(str(s) for s in fragment.get("degraded", ()))
        return merge_fragments(request, fragments), sorted(degraded), shards_ok, missing, stale

    def close(self) -> None:
        """Close the pooled shard connections (the coordinator stays usable)."""
        self._pool.close()

    # -- status -------------------------------------------------------------

    def status(self) -> dict:
        """The ``/status`` document: a row per source in the shards' last heartbeat
        replies, the newest as clock (a dead shard's sources read ``unknown``)."""
        shards = self.registry.shards()
        recency = {mid: rec for info in shards for mid, rec in info.recency.items()}
        now = max(recency.values(), default=0.0)
        dead = {mid for info in shards if not info.alive for mid in info.recency}
        rows = source_rows(recency, now, unknown=dead)
        return {"now": now, "sources": rows, "federation": self.federation_status()}

    def federation_status(self) -> dict:
        """The ``federation`` block for ``/status`` and ``trac top``."""
        shards = self.registry.shards()
        missing = [info.shard_id for info in shards if not info.alive]
        return {
            "shards_total": len(shards),
            "shards_ok": len(shards) - len(missing),
            "missing": missing,
            "breakers": {
                info.shard_id: self._breaker(info.shard_id).state for info in shards
            },
            "reports_total": self.reports_total,
            "partial_reports": self.partial_reports,
        }
