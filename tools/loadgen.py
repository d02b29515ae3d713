#!/usr/bin/env python
"""Open-loop load generator for the trac serving front end.

Drives ``POST /v1/query`` on a running observatory (``trac serve`` or any
:class:`~repro.obs.server.ObservatoryServer` with a query service wired).
**Open-loop** is the operative word. A closed-loop generator (send, wait
for the response, send again) slows down exactly when the server does, so
it under-reports tail latency precisely where it matters — the
coordinated-omission trap. This generator fixes the *arrival* schedule up
front: request ``i`` is due at ``t0 + i/rate`` whether or not request
``i-1`` has returned, and each latency is measured **from the scheduled
arrival time**, so time a request spends waiting behind a slow server
counts against the server, not the schedule.

Mechanics: ``senders`` threads split the schedule round-robin (sender
``j`` owns requests ``i ≡ j (mod senders)``), each sleeping until its
next request is due, then POSTing synchronously on its own persistent
connection (one socket per sender for the whole run while the server
keeps it open). With enough senders the schedule never blocks on a slow
response; the guard and CLI size ``senders`` generously relative to
``rate ×`` expected latency.

Results aggregate into a :class:`LoadResult`: latency percentiles over
successful responses, status-class counts (429s are *expected* under
overload — they prove admission control sheds instead of queueing), the
number of sockets opened, and the raw schedule parameters for the JSON
document. Standard library only: ``tools/check_serve_latency.py`` imports
it from this directory, and it runs against any server without the
package installed. Examples::

    # 200 req/s for 10 s against a local trac serve
    python tools/loadgen.py --url http://127.0.0.1:9464 \
        --sql "SELECT mach_id FROM activity" --rate 200 --duration 10

    # two tenants, JSON artifact for CI
    python tools/loadgen.py --url http://127.0.0.1:9464 \
        --sql "SELECT mach_id FROM activity" --tenants alice,bob \
        --rate 300 --duration 10 --json latency.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import socket
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

# Sentinel "statuses" for requests that produced no HTTP response. The
# distinction matters under fault injection: a refused/reset connection
# means the server (or its OS) actively turned the request away — load was
# *shed* — while a deadline timeout means nobody answered at all — the
# server looks *dead*. Conflating them hides which failure mode a chaos
# run actually produced.
STATUS_REFUSED = -1
STATUS_TIMEOUT = -2


class LoadgenConfig:
    """One load run: POST ``sql`` to ``url`` at ``rate``/s for ``duration``s."""

    __slots__ = (
        "url",
        "sql",
        "rate",
        "duration",
        "tenants",
        "senders",
        "timeout",
        "method",
    )

    def __init__(
        self,
        url: str,
        sql: str,
        rate: float = 100.0,
        duration: float = 5.0,
        tenants: Sequence[str] = ("default",),
        senders: int = 16,
        timeout: float = 10.0,
        method: Optional[str] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if senders < 1:
            raise ValueError(f"need at least one sender thread, got {senders}")
        if not tenants:
            raise ValueError("need at least one tenant")
        self.url = url
        self.sql = sql
        self.rate = float(rate)
        self.duration = float(duration)
        self.tenants = tuple(tenants)
        self.senders = int(senders)
        self.timeout = float(timeout)
        self.method = method

    @property
    def total_requests(self) -> int:
        return int(self.rate * self.duration)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of no observations")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class LoadResult:
    """Aggregated outcome of one load run."""

    def __init__(
        self,
        config: LoadgenConfig,
        statuses: List[int],
        ok_latencies: List[float],
        wall_seconds: float,
        connections: int = 0,
        reconnects: int = 0,
    ) -> None:
        self.config = config
        self.statuses = statuses
        self.ok_latencies = sorted(ok_latencies)
        self.wall_seconds = wall_seconds
        #: Sockets opened: ``senders`` when every connection was kept alive,
        #: ``requests`` when the server closed after each response.
        self.connections = connections
        #: Requests re-sent on a fresh socket because the reused one was dead.
        self.reconnects = reconnects

    # -- derived -------------------------------------------------------------

    @property
    def requests(self) -> int:
        return len(self.statuses)

    def count(self, *statuses: int) -> int:
        wanted = set(statuses)
        return sum(1 for s in self.statuses if s in wanted)

    @property
    def ok(self) -> int:
        return sum(1 for s in self.statuses if 200 <= s < 300)

    @property
    def rejected(self) -> int:
        """429s — load the server *shed* rather than served."""
        return self.count(429)

    @property
    def server_errors(self) -> int:
        return sum(1 for s in self.statuses if s >= 500)

    @property
    def transport_errors(self) -> int:
        """Requests that produced no HTTP status (timeout, refused...)."""
        return self.count(0, STATUS_REFUSED, STATUS_TIMEOUT)

    @property
    def refused(self) -> int:
        """Connections refused or reset — the server *shed* the request."""
        return self.count(STATUS_REFUSED)

    @property
    def timeouts(self) -> int:
        """Deadline timeouts — nobody answered; the server looks *dead*."""
        return self.count(STATUS_TIMEOUT)

    @property
    def achieved_rate(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.ok / self.wall_seconds

    def latency_ms(self, q: float) -> Optional[float]:
        if not self.ok_latencies:
            return None
        return percentile(self.ok_latencies, q) * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON document ``tools/loadgen.py`` writes and CI archives."""
        labels = {0: "transport_error", STATUS_REFUSED: "refused", STATUS_TIMEOUT: "timeout"}
        status_counts = dict(Counter(labels.get(s, str(s)) for s in self.statuses))
        return {
            "config": {
                "url": self.config.url,
                "rate": self.config.rate,
                "duration": self.config.duration,
                "tenants": list(self.config.tenants),
                "senders": self.config.senders,
            },
            "requests": self.requests,
            "ok": self.ok,
            "rejected_429": self.rejected,
            "server_errors": self.server_errors,
            "transport_errors": self.transport_errors,
            "refused": self.refused,
            "timeouts": self.timeouts,
            "wall_seconds": round(self.wall_seconds, 3),
            "achieved_ok_per_s": round(self.achieved_rate, 1),
            "status_counts": status_counts,
            "connections": self.connections,
            "reconnects": self.reconnects,
            "latency_ms": {
                "p50": self.latency_ms(0.50),
                "p90": self.latency_ms(0.90),
                "p99": self.latency_ms(0.99),
                "max": self.latency_ms(1.0),
            },
        }

    def __repr__(self) -> str:
        return (
            f"LoadResult(requests={self.requests}, ok={self.ok}, "
            f"429={self.rejected}, 5xx={self.server_errors}, "
            f"p99={self.latency_ms(0.99)}ms)"
        )


def _classify_transport(exc: BaseException) -> int:
    """Map a transport exception to its sentinel status."""
    if isinstance(exc, ConnectionError):  # refused, reset, broken pipe
        return STATUS_REFUSED
    if isinstance(exc, (socket.timeout, TimeoutError)):  # one class from 3.10 on
        return STATUS_TIMEOUT
    return 0


class _Sender:
    """One sender's persistent connection to the server under load."""

    def __init__(self, config: LoadgenConfig) -> None:
        url = urlsplit(config.url)
        self.conn = http.client.HTTPConnection(url.hostname, url.port, timeout=config.timeout)
        self.path = url.path or "/"
        self.config = config
        self.connections = 0
        self.reconnects = 0

    def post(self, tenant: str) -> int:
        """POST one query; returns the HTTP status, or a non-positive
        sentinel for transport failures (refused/reset, timeout, other)."""
        body: Dict[str, Any] = {"sql": self.config.sql, "tenant": tenant}
        if self.config.method:
            body["method"] = self.config.method
        payload = json.dumps(body).encode("utf-8")
        while True:
            reused = self.conn.sock is not None
            try:
                if not reused:
                    self.connections += 1
                    self.conn.connect()
                self.conn.request(
                    "POST", self.path, body=payload, headers={"Content-Type": "application/json"}
                )
                response = self.conn.getresponse()
                response.read()
                return response.status
            except (OSError, http.client.HTTPException) as exc:
                self.conn.close()
                # A reused socket the server had closed meanwhile (idle
                # timeout, restart) says nothing about this request: send
                # it once more on a fresh connection. A fresh connection
                # that fails is the server's answer.
                if reused and isinstance(exc, ConnectionError):
                    self.reconnects += 1
                    continue
                return _classify_transport(exc)


def run_load(config: LoadgenConfig) -> LoadResult:
    """Drive one open-loop run and block until every request resolved."""
    total = config.total_requests
    statuses: List[int] = [0] * total
    latencies: List[Optional[float]] = [None] * total
    senders = [_Sender(config) for _ in range(config.senders)]
    start = time.monotonic()

    def run(sender: _Sender, offset: int) -> None:
        for index in range(offset, total, config.senders):
            scheduled = start + index / config.rate
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            tenant = config.tenants[index % len(config.tenants)]
            status = sender.post(tenant)
            # Latency from the *scheduled* arrival, not the actual send:
            # schedule slip (a sender stuck behind a slow response) is
            # server-induced queueing and must count against the server.
            elapsed = time.monotonic() - scheduled
            statuses[index] = status
            if 200 <= status < 300:
                latencies[index] = elapsed

    threads = [
        threading.Thread(target=run, args=(sender, j), name=f"loadgen-{j}", daemon=True)
        for j, sender in enumerate(senders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - start
    for sender in senders:
        sender.conn.close()  # here, not in the thread: closed even if one died
    ok_latencies = [value for value in latencies if value is not None]
    return LoadResult(
        config,
        statuses,
        ok_latencies,
        wall,
        connections=sum(sender.connections for sender in senders),
        reconnects=sum(sender.reconnects for sender in senders),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", required=True, help="observatory base URL")
    parser.add_argument("--sql", required=True, help="query to POST to /v1/query")
    parser.add_argument("--rate", type=float, default=100.0, help="arrivals per second")
    parser.add_argument("--duration", type=float, default=5.0, help="seconds of load")
    parser.add_argument(
        "--tenants",
        default="default",
        help="comma-separated tenant ids, assigned round-robin",
    )
    parser.add_argument(
        "--senders", type=int, default=32, help="sender threads (open-loop slack)"
    )
    parser.add_argument("--timeout", type=float, default=10.0, help="per-request timeout")
    parser.add_argument("--method", default=None, help="report method (focused/naive)")
    parser.add_argument("--json", default=None, help="write the result document here")
    args = parser.parse_args()

    config = LoadgenConfig(
        url=args.url.rstrip("/") + "/v1/query",
        sql=args.sql,
        rate=args.rate,
        duration=args.duration,
        tenants=[t.strip() for t in args.tenants.split(",") if t.strip()],
        senders=args.senders,
        timeout=args.timeout,
        method=args.method,
    )
    result = run_load(config)
    doc = result.to_dict()

    latency = doc["latency_ms"]
    print(f"offered   {config.rate:g} req/s for {config.duration:g}s "
          f"({doc['requests']} requests, {config.senders} senders)")
    print(f"ok        {doc['ok']}  (achieved {doc['achieved_ok_per_s']:g} ok/s)")
    print(f"shed 429  {doc['rejected_429']}")
    print(f"sockets   {doc['connections']} opened, {doc['reconnects']} re-sent on a dead reused one")
    print(f"5xx       {doc['server_errors']}   "
          f"refused {doc['refused']}   timeout {doc['timeouts']}   "
          f"other-transport {doc['transport_errors'] - doc['refused'] - doc['timeouts']}")
    for name in ("p50", "p90", "p99", "max"):
        value = latency[name]
        print(f"{name:<9} {value:.2f} ms" if value is not None else f"{name:<9} -")
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
