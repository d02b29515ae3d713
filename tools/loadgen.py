#!/usr/bin/env python
"""Open-loop load generator for the trac serving front end.

Drives ``POST /v1/query`` on a running observatory (``trac serve`` or any
:class:`~repro.obs.server.ObservatoryServer` with a query service wired)
at a **fixed arrival rate** — requests are scheduled at ``t0 + i/rate``
regardless of how fast responses come back, and latency is measured from
the scheduled arrival, so server-side queueing shows up in the tail
instead of silently slowing the generator down (the coordinated-omission
trap closed-loop generators fall into).

Examples::

    # 200 req/s for 10 s against a local trac serve
    python tools/loadgen.py --url http://127.0.0.1:9464 \
        --sql "SELECT mach_id FROM activity" --rate 200 --duration 10

    # two tenants, JSON artifact for CI
    python tools/loadgen.py --url http://127.0.0.1:9464 \
        --sql "SELECT mach_id FROM activity" --tenants alice,bob \
        --rate 300 --duration 10 --json latency.json

The JSON document contains the full latency percentiles and status-class
counts (the ``serve-load`` CI job uploads it as a build artifact).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.loadgen import LoadgenConfig, run_load  # noqa: E402


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
