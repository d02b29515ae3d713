#!/usr/bin/env python
"""Guard: the federation degrades — it never lies and it never hangs.

Launches N ``trac shard-serve`` subprocesses (durable: WAL + checkpoints,
``--fsync always``) and drives federated recency reports through a
:class:`~repro.federation.FederationCoordinator` while killing shards out
from under it. Three phases:

1. **SIGKILL** — k shards die instantly mid-workload. Every federated
   report must still return within the coordinator deadline, list *exactly*
   the dead shards in ``missing_shards``, and carry the degraded NOTICE
   line. The dead shards are then restarted with ``--resume``; completeness
   must return to ``shards_ok == shards_total`` and no acked heartbeat
   recency may regress (the WAL's promise).
2. **SIGSTOP** — k shards freeze: TCP connects still succeed but nothing
   answers, the nastier failure mode. Same within-deadline / exact-missing
   assertions, then SIGCONT and recovery to full completeness.
3. **Hygiene** — the coordinator must leave no thread behind and, after
   ``coordinator.close()``, no socket (its pooled shard connections are
   the only ones it owns), and SIGTERM teardown of every shard must exit 0
   (the graceful-shutdown path).

In the style of the crash-matrix and serve-load guards: aligned table,
exit 0/1, ``--json`` writes the full document for the ``federation-chaos``
CI job to upload as an artifact.

Run: ``PYTHONPATH=src python tools/check_federation_degrades.py``
"""

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.federation import FederationCoordinator, ShardRegistry, rpc  # noqa: E402
from repro.federation.process import launch_shard  # noqa: E402

SQL = "SELECT * FROM activity WHERE value = 'busy'"


def open_sockets():
    """How many of this process's file descriptors are sockets."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor, already closed
    return count


def shard_status(proc, timeout=2.0):
    return rpc.call(proc.host, proc.port, {"op": "status"}, timeout=timeout)


def acked_recency(proc):
    """The shard's durable (WAL-acked) per-machine recency map."""
    doc = shard_status(proc)
    return {str(k): float(v) for k, v in doc.get("acked", {}).get("recency", {}).items()}


def drive_reports(coordinator, seconds, interval, deadline, expect_missing, failures, phase):
    """Run reports for ``seconds``; assert deadline and exact missing set."""
    reports = []
    until = time.monotonic() + seconds
    while time.monotonic() < until:
        t0 = time.monotonic()
        report = coordinator.report(SQL)
        elapsed = time.monotonic() - t0
        reports.append(report)
        # Deadline slack covers the post-merge bookkeeping, not extra RPC.
        if elapsed > deadline + 0.5:
            failures.append(
                f"{phase}: report took {elapsed:.2f}s (deadline {deadline:g}s)"
            )
        got = sorted(report.missing_shards)
        if got != sorted(expect_missing):
            failures.append(
                f"{phase}: missing_shards {got} != expected {sorted(expect_missing)}"
            )
        if expect_missing:
            notices = report.notices()
            if not any("Degraded federated report" in line for line in notices):
                failures.append(f"{phase}: no degraded NOTICE line in {notices!r}")
        time.sleep(interval)
    return reports


def await_complete(coordinator, registry, timeout, failures, phase):
    """Poll until a report is fully complete (breakers close, shards answer)."""
    until = time.monotonic() + timeout
    while time.monotonic() < until:
        registry.refresh(timeout=1.0)
        report = coordinator.report(SQL)
        if report.shards_ok == report.shards_total and not report.missing_shards:
            return report
        time.sleep(0.3)
    failures.append(f"{phase}: completeness did not return within {timeout:g}s")
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=3, help="shard count N")
    parser.add_argument("--kill", type=int, default=1, help="shards to kill/freeze (k)")
    parser.add_argument("--machines", type=int, default=2, help="machines per shard")
    parser.add_argument("--deadline", type=float, default=2.0, help="coordinator deadline (s)")
    parser.add_argument("--warmup", type=float, default=2.0, help="healthy-phase seconds")
    parser.add_argument("--chaos", type=float, default=3.0, help="per-phase chaos seconds")
    parser.add_argument("--recovery", type=float, default=20.0, help="rejoin timeout (s)")
    parser.add_argument("--json", default=None, help="write the result document here")
    args = parser.parse_args()
    if not 0 < args.kill < args.shards:
        print(f"need 0 < --kill < --shards, got {args.kill} of {args.shards}")
        return 2

    failures = []
    doc = {"shards": args.shards, "killed": args.kill, "phases": {}}
    baseline_threads = threading.active_count()
    baseline_sockets = open_sockets()

    with tempfile.TemporaryDirectory(prefix="federation-chaos-") as tmp:
        procs = []
        for k in range(args.shards):
            procs.append(
                launch_shard(
                    f"s{k}",
                    machines=args.machines,
                    machine_id_start=k * args.machines + 1,
                    seed=20060912 + k,
                    data_dir=str(Path(tmp) / f"shard-{k}"),
                    fsync="always",
                )
            )
        registry = ShardRegistry()
        for proc in procs:
            registry.register(proc.host, proc.port)
        coordinator = FederationCoordinator(
            registry,
            deadline=args.deadline,
            attempt_timeout=0.5,
            retries=1,
            hedge_delay=0.25,
            breaker_threshold=3,
            breaker_reset=1.0,
            stale_fallback=False,
        )
        victims = procs[: args.kill]
        victim_ids = [p.shard_id for p in victims]

        try:
            # -- phase 0: healthy ------------------------------------------
            healthy = drive_reports(
                coordinator, args.warmup, 0.2, args.deadline, [], failures, "healthy"
            )
            doc["phases"]["healthy"] = {
                "reports": len(healthy),
                "complete": sum(1 for r in healthy if r.complete),
            }
            if healthy and not healthy[-1].complete:
                failures.append("healthy: final warm-up report not complete")

            pre_kill_acked = {p.shard_id: acked_recency(p) for p in victims}

            # -- phase 1: SIGKILL, then restart with --resume ---------------
            for proc in victims:
                proc.kill()
            kill_reports = drive_reports(
                coordinator, args.chaos, 0.2, args.deadline, victim_ids, failures, "sigkill"
            )
            registry.refresh(timeout=1.0)
            doc["phases"]["sigkill"] = {
                "reports": len(kill_reports),
                "partial": sum(1 for r in kill_reports if not r.complete),
                "max_elapsed": round(max(r.timings.total for r in kill_reports), 3),
            }

            restarted = {}
            for index, proc in enumerate(victims):
                replacement = launch_shard(
                    proc.shard_id,
                    machines=args.machines,
                    machine_id_start=1,  # ignored on resume: config is journaled
                    seed=0,
                    data_dir=str(Path(tmp) / f"shard-{index}"),
                    resume=True,
                    fsync="always",
                )
                restarted[proc.shard_id] = replacement
                procs[procs.index(proc)] = replacement
                registry.register(replacement.host, replacement.port)
            rejoin = await_complete(
                coordinator, registry, args.recovery, failures, "rejoin"
            )
            doc["phases"]["rejoin"] = {
                "complete": rejoin is not None,
                "shards_ok": rejoin.shards_ok if rejoin else None,
            }

            # The WAL's promise: nothing acked before the kill is lost.
            for shard_id, before in pre_kill_acked.items():
                after = acked_recency(restarted[shard_id])
                for machine, recency in before.items():
                    got = after.get(machine)
                    if got is None or got < recency:
                        failures.append(
                            f"rejoin: {shard_id}/{machine} acked recency regressed "
                            f"({recency} -> {got})"
                        )
            doc["phases"]["rejoin"]["acked_checked"] = sum(
                len(v) for v in pre_kill_acked.values()
            )

            # -- phase 2: SIGSTOP (alive but unresponsive), then SIGCONT ----
            frozen = [restarted[v] for v in victim_ids]
            for proc in frozen:
                proc.freeze()
            stop_reports = drive_reports(
                coordinator, args.chaos, 0.2, args.deadline, victim_ids, failures, "sigstop"
            )
            doc["phases"]["sigstop"] = {
                "reports": len(stop_reports),
                "partial": sum(1 for r in stop_reports if not r.complete),
                "max_elapsed": round(max(r.timings.total for r in stop_reports), 3),
            }
            for proc in frozen:
                proc.thaw()
            thawed = await_complete(
                coordinator, registry, args.recovery, failures, "thaw"
            )
            doc["phases"]["thaw"] = {"complete": thawed is not None}

        finally:
            coordinator.close()
            exit_codes = {p.shard_id: p.terminate() for p in procs}
        doc["shutdown_exit_codes"] = exit_codes
        for shard_id, code in exit_codes.items():
            if code != 0:
                failures.append(f"shutdown: shard {shard_id} exited {code} on SIGTERM")

    # -- hygiene: no thread and, once closed, no socket left behind ---------
    leaked = threading.active_count() - baseline_threads
    doc["leaked_threads"] = leaked
    if leaked > 0:
        stragglers = [t.name for t in threading.enumerate() if t.name != "MainThread"]
        failures.append(f"hygiene: {leaked} leaked thread(s): {stragglers}")
    leaked_sockets = open_sockets() - baseline_sockets
    doc["leaked_sockets"] = leaked_sockets
    if leaked_sockets > 0:
        failures.append(f"hygiene: {leaked_sockets} socket(s) open after coordinator.close()")

    doc["failures"] = failures
    rows = [("phase", "reports", "partial", "max s")]
    for name in ("healthy", "sigkill", "sigstop"):
        phase = doc["phases"].get(name, {})
        rows.append(
            (
                name,
                str(phase.get("reports", "-")),
                str(phase.get("partial", 0 if name == "healthy" else "-")),
                str(phase.get("max_elapsed", "-")),
            )
        )
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
    print(
        f"\nOK: killed and froze {args.kill}/{args.shards} shard(s); every report "
        f"answered inside {args.deadline:g}s naming exactly the missing shards, "
        "and completeness returned after restart"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
