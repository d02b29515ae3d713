#!/usr/bin/env python
"""Guard: the serving front end holds its latency SLO under open-loop load.

Two phases against an in-process :class:`~repro.deploy.Deployment` (memory
backend, CoW snapshots, real HTTP through its ``POST /v1/query`` front door):

1. **SLO phase** — open-loop load at ``--rate`` (default 200 req/s) for
   ``--duration`` (default 10 s); asserts p99 latency ≤ ``--p99-ms``
   (default 100 ms), zero 5xx, zero transport errors, zero shed
   requests (the server must actually *serve* in-capacity load), and
   connection reuse: no more sockets opened than senders plus re-sends
   on a dead reused socket (the server keeps connections alive).
2. **Overload phase** — offered load far above an artificially small
   admission capacity (tight tenant quota + tiny queue); asserts the
   server sheds with 429s (``Retry-After`` present), never 5xx, and —
   the "never hangs" clause — every request resolves and the phase
   finishes within its schedule plus the request timeout.

In the style of the fast-path and incremental guards: prints an aligned
table, exits 0/1, ``--json`` writes the full latency document for the
``serve-load`` CI job to upload as an artifact.

Run: ``PYTHONPATH=src python tools/check_serve_latency.py``
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends.memory import MemoryBackend  # noqa: E402
from repro.deploy import Deployment  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.workload import WorkloadConfig, loaded_backend, paper_queries  # noqa: E402
# The load generator sits beside this script (tools/ is sys.path[0]).
from loadgen import LoadgenConfig, run_load  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rate", type=float, default=200.0, help="SLO-phase req/s")
    parser.add_argument("--duration", type=float, default=10.0, help="SLO-phase seconds")
    parser.add_argument("--p99-ms", type=float, default=100.0, help="p99 bound (ms)")
    parser.add_argument("--sources", type=int, default=20, help="workload sources")
    parser.add_argument("--ratio", type=int, default=20, help="rows per source")
    parser.add_argument("--workers", type=int, default=8, help="SLO-phase workers")
    parser.add_argument("--senders", type=int, default=64, help="loadgen sender threads")
    parser.add_argument(
        "--overload-rate", type=float, default=400.0, help="overload-phase req/s"
    )
    parser.add_argument(
        "--overload-duration", type=float, default=3.0, help="overload-phase seconds"
    )
    parser.add_argument("--json", default=None, help="write both phase documents here")
    args = parser.parse_args()

    backend = loaded_backend(
        WorkloadConfig(num_sources=args.sources, data_ratio=args.ratio), MemoryBackend
    )
    sql = paper_queries(args.sources)["Q1"]
    failures = []
    doc = {}

    # -- phase 1: hold the SLO at the stated rate ---------------------------
    slo_config = ServeConfig(
        workers=args.workers,
        queue_depth=max(64, int(args.rate)),
        # Quotas stay out of this phase's way: it measures latency.
        tenant_rate=args.rate * 4,
        tenant_burst=args.rate * 8,
        max_inflight=max(256, args.senders * 2),
    )
    with Deployment(backend, port=0, config=slo_config) as deployment:
        result = run_load(
            LoadgenConfig(
                url=deployment.server.url + "/v1/query",
                sql=sql,
                rate=args.rate,
                duration=args.duration,
                senders=args.senders,
            )
        )
    slo = result.to_dict()
    doc["slo_phase"] = slo
    p99 = slo["latency_ms"]["p99"]

    if slo["ok"] != slo["requests"]:
        failures.append(
            f"SLO phase: only {slo['ok']}/{slo['requests']} requests served "
            f"(429={slo['rejected_429']}, 5xx={slo['server_errors']}, "
            f"refused={slo['refused']}, timeout={slo['timeouts']}, "
            f"other-transport={slo['transport_errors'] - slo['refused'] - slo['timeouts']})"
        )
    if slo["server_errors"]:
        failures.append(f"SLO phase: {slo['server_errors']} 5xx responses")
    if p99 is None or p99 > args.p99_ms:
        failures.append(f"SLO phase: p99 {p99} ms exceeds the {args.p99_ms:g} ms bound")
    if slo["connections"] > args.senders + slo["reconnects"]:
        failures.append(
            f"SLO phase: {slo['connections']} connections for {args.senders} senders "
            f"(+{slo['reconnects']} reconnects) — the server is not keeping them alive"
        )

    # -- phase 2: overload must shed with 429, never hang -------------------
    overload_config = ServeConfig(
        workers=2,
        queue_depth=8,
        # Capacity is the quota: ~50 req/s admitted of the offered load.
        tenant_rate=50.0,
        tenant_burst=50.0,
        max_inflight=64,
    )
    timeout = 10.0
    with Deployment(backend, port=0, config=overload_config) as deployment:
        result = run_load(
            LoadgenConfig(
                url=deployment.server.url + "/v1/query",
                sql=sql,
                rate=args.overload_rate,
                duration=args.overload_duration,
                senders=args.senders,
                timeout=timeout,
            )
        )
    over = result.to_dict()
    doc["overload_phase"] = over

    if over["rejected_429"] == 0:
        failures.append("overload phase: no 429s — admission control never shed")
    if over["server_errors"]:
        failures.append(f"overload phase: {over['server_errors']} 5xx responses")
    if over["transport_errors"]:
        # "shed" (refused/reset: the server turned the connection away)
        # vs "dead" (timeout: nobody answered) are different failures;
        # name them so a chaos run's verdict is actionable.
        failures.append(
            f"overload phase: {over['transport_errors']} requests never resolved "
            f"(shed/refused={over['refused']}, dead/timeout={over['timeouts']}, "
            f"other={over['transport_errors'] - over['refused'] - over['timeouts']})"
        )
    hang_bound = args.overload_duration + timeout + 5.0
    if over["wall_seconds"] > hang_bound:
        failures.append(
            f"overload phase: took {over['wall_seconds']:.1f}s "
            f"(> {hang_bound:.1f}s) — a shed request hung"
        )

    # -- report -------------------------------------------------------------
    rows = [
        ("phase", "offered", "ok", "429", "5xx", "refused", "timeout", "conns", "p50 ms", "p99 ms"),
        (
            "slo",
            f"{args.rate:g}/s x {args.duration:g}s",
            str(slo["ok"]),
            str(slo["rejected_429"]),
            str(slo["server_errors"]),
            str(slo["refused"]),
            str(slo["timeouts"]),
            str(slo["connections"]),
            f"{slo['latency_ms']['p50']:.2f}" if slo["latency_ms"]["p50"] else "-",
            f"{p99:.2f}" if p99 is not None else "-",
        ),
        (
            "overload",
            f"{args.overload_rate:g}/s x {args.overload_duration:g}s",
            str(over["ok"]),
            str(over["rejected_429"]),
            str(over["server_errors"]),
            str(over["refused"]),
            str(over["timeouts"]),
            str(over["connections"]),
            "-",
            "-",
        ),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())

    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\nwrote {args.json}")

    if failures:
        print("\nFAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: p99 {p99:.2f} ms <= {args.p99_ms:g} ms at {args.rate:g} req/s; "
          f"overload shed {over['rejected_429']} requests with 429")
    return 0


if __name__ == "__main__":
    sys.exit(main())
