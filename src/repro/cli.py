"""``trac`` — the command-line face of the reproduction.

Every subcommand that ingests or serves runs as one
:class:`repro.deploy.Deployment` — over a database (``serve``), a simulator
loading one (``simulate``, ``shard-serve``) or a federation coordinator
(``simulate --shards``) — which owns telemetry, the front door, the flight
recorder, the step loop and the one teardown order. ``trac <cmd> --help``
lists every flag; README.md walks through them.

    trac simulate --db grid.sqlite --machines 12 --duration 600
        Run the grid simulator on the memory engine; --db is its export,
        written at exit (SIGKILL without --data-dir leaves no file).
        --serve PORT runs the observatory for the duration, POST /v1/query
        answering from the database *while it loads* (rows and recency from
        one snapshot); --faults / --flight-dir / --top supervise, record
        and watch it; --data-dir makes ingest crash-safe, --resume continues
        a (possibly killed) run from it.
    trac simulate --shards 3 --machines 12 --duration 60 --db grid.sqlite
        The machines split over N shard-server subprocesses behind a
        coordinator; --serve PORT answers POST /v1/query with the federated
        report (recency side only, completeness stated).
    trac shard-serve --shard-id s0 --machines 4 --machine-id-start 1
        One grid shard behind the federation RPC (SIGTERM: drain, flush WAL).
    trac recover --data-dir DIR [--db out.sqlite]
        Inspect a durability directory; rebuild the database a killed run
        never exported.
    trac serve --db grid.sqlite --port 9464
        The deployment where nothing ingests: a monitoring database copied
        into the memory engine behind POST /v1/query and the observatory.
    trac top --url http://127.0.0.1:9464       live per-source dashboard
    trac report --db grid.sqlite "SELECT ..."  a query + its recency report
    trac replay --logs DIR --db out.sqlite     rebuild a database from logs
    trac explain | inspect | watch | shell | stats --db grid.sqlite ...
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from repro.backends import MemoryBackend, SQLiteBackend, copy_tables
from repro.core.report import RecencyReporter
from repro.core.statistics import DEFAULT_Z_THRESHOLD, format_interval, format_timestamp
from repro.errors import TracError, check_number, number_range
from repro.obs.dashboard import fetch_status, render_top, run_top, source_rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _number(
    text: Optional[str] = None,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    low_open: bool = False,
    high_open: bool = False,
    kind=float,
) -> dict:
    """``type=`` and ``help=`` for a numeric flag. The type takes a finite
    ``kind`` within the range (:func:`repro.errors.check_number`); anything
    else is argparse's usage error naming the flag (exit 2). The help ends
    with the range in words."""
    bounds = {"low_open": low_open, "high_open": high_open}
    rule = number_range(low, high, **bounds)

    def parse(value: str):
        try:
            return check_number("value", kind(value), low, high, **bounds)
        except (ValueError, TracError):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value!r}") from None

    parse.bounds = (low, high, low_open, high_open)
    return {"type": parse, "help": f"{text} ({rule})" if text else rule}


def _add_durability_flags(parser, fsync: str, checkpoint_interval: float) -> None:
    """The crash-safety flags ``simulate`` and ``shard-serve`` share (read
    back by :func:`_open_durability`); only two defaults differ."""
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="crash-safe ingest: mirror logs, journal applied batches to a "
        "WAL and checkpoint into DIR",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a previous run from --data-dir (config, clock and "
        "ingest watermarks come from the journal); a simulate --duration is "
        "the total simulated time including the part already run",
    )
    parser.add_argument(
        "--fsync",
        choices=["always", "interval", "never"],
        default=fsync,
        help="WAL fsync policy (with --data-dir)",
    )
    parser.add_argument(
        "--fsync-interval",
        default=1.0,
        **_number("wall seconds between WAL fsyncs (with --fsync interval)", 0, low_open=True),
    )
    parser.add_argument(
        "--checkpoint-interval",
        default=checkpoint_interval,
        **_number("simulated seconds between checkpoints (with --data-dir)", 0, low_open=True),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trac",
        description="Recency and consistency reporting (VLDB 2006 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run the grid simulator into a DB file")
    simulate.add_argument("--db", required=True, help="output SQLite file (written at exit)")
    simulate.add_argument("--machines", type=int, default=12)
    simulate.add_argument("--duration", default=600.0, **_number("simulated seconds", 0))
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--schedulers", type=int, default=1)
    simulate.add_argument("--job-probability", default=0.1, **_number(None, 0, 1))
    simulate.add_argument("--failure-probability", default=0.0, **_number(None, 0, 1))
    simulate.add_argument("--archive", help="also write text log files to this directory")
    simulate.add_argument(
        "--faults",
        help="JSON fault plan (repro.faults.plan_from_json format); sniffers "
        "then run under supervisors and a fault summary is printed",
    )
    simulate.add_argument(
        "--silence-timeout",
        default=None,
        **_number(
            "supervisor watchdog: degrade a source after this many seconds "
            "without progress (requires --faults or implies supervision)",
            0,
            low_open=True,
        ),
    )
    simulate.add_argument(
        "--serve",
        type=int,
        default=None,
        metavar="PORT",
        help="expose the live observatory (/metrics, /healthz, /spans, "
        "/events, /status) and POST /v1/query on this port while simulating "
        "(0 = ephemeral)",
    )
    simulate.add_argument(
        "--serve-host", default="127.0.0.1", help="bind address for --serve"
    )
    simulate.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="arm the anomaly flight recorder; dumps land in DIR "
        "(default <db>.flight when any observatory flag is set)",
    )
    simulate.add_argument(
        "--slo-target",
        default=60.0,
        **_number("staleness SLO: p95 recency lag target in seconds", 0, low_open=True),
    )
    simulate.add_argument(
        "--slo-budget",
        default=0.05,
        **_number(
            "staleness SLO: tolerated fraction of samples over the target",
            0,
            1,
            low_open=True,
            high_open=True,
        ),
    )
    simulate.add_argument(
        "--top",
        action="store_true",
        help="render the live trac-top dashboard while simulating",
    )
    simulate.add_argument(
        "--top-interval",
        default=5.0,
        **_number("simulated seconds between dashboard frames (with --top)", 0),
    )
    _add_durability_flags(simulate, fsync="interval", checkpoint_interval=60.0)
    simulate.add_argument(
        "--shards",
        default=None,
        metavar="N",
        **_number(
            "federated mode: split the machines over N shard-server "
            "subprocesses and report through the federation coordinator "
            "(--duration counts wall seconds; --db is not written; --serve answers "
            "POST /v1/query with the federated report, trac top watches /status)",
            1,
            kind=int,
        ),
    )
    simulate.add_argument(
        "--report-interval",
        default=2.0,
        **_number("wall seconds between federated reports (with --shards)", 0),
    )
    simulate.set_defaults(handler=_cmd_simulate)

    shard = sub.add_parser("shard-serve", help="run one grid shard behind the federation RPC")
    shard.add_argument("--shard-id", required=True, help="stable shard name (e.g. s0)")
    shard.add_argument("--machines", type=int, default=4, help="machines on this shard")
    shard.add_argument(
        "--machine-id-start",
        type=int,
        default=1,
        help="first machine id number; give each shard a disjoint range",
    )
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument("--host", default="127.0.0.1")
    shard.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    # Shards default to fsync=always: they exist to be killed.
    _add_durability_flags(shard, fsync="always", checkpoint_interval=30.0)
    shard.add_argument(
        "--faults",
        help="JSON fault plan; rpc_* kinds target this shard's replies by shard id",
    )
    shard.add_argument(
        "--step-interval",
        default=0.02,
        **_number("wall seconds between simulator ticks", 0),
    )
    shard.add_argument(
        "--duration",
        default=None,
        **_number(
            "serve for this many wall seconds, then exit (default: until signalled)", 0
        ),
    )
    shard.set_defaults(handler=_cmd_shard_serve)

    recover_p = sub.add_parser("recover", help="inspect/rebuild from a durability dir")
    recover_p.add_argument("--data-dir", required=True, help="durability directory")
    recover_p.add_argument(
        "--db",
        default=None,
        help="also rebuild a monitoring SQLite file from the journal",
    )
    recover_p.set_defaults(handler=_cmd_recover)

    report = sub.add_parser("report", help="query with a recency report")
    report.add_argument("--db", required=True, help="monitoring SQLite file")
    report.add_argument("sql", help="the user query (single SPJ SELECT)")
    report.add_argument("--method", choices=["focused", "naive"], default="focused")
    report.add_argument("--z-threshold", default=3.0, **_number(None, 0, low_open=True))
    report.add_argument("--no-constraints", action="store_true")
    report.add_argument("--show-plan", action="store_true", help="print recency subqueries")
    report.add_argument(
        "--lineage",
        action="store_true",
        help="annotate each result row with its contributing sources and a "
        "staleness-derived quality score (mirrors the DB into memory: the "
        "SQLite engine cannot attribute rows)",
    )
    report.set_defaults(handler=_cmd_report)

    replay = sub.add_parser("replay", help="rebuild a DB from a directory of logs")
    replay.add_argument("--logs", required=True, help="directory of *.log files")
    replay.add_argument("--db", required=True, help="output SQLite file")
    replay.add_argument("--up-to", default=None, **_number("horizon timestamp"))
    replay.set_defaults(handler=_cmd_replay)

    explain = sub.add_parser("explain", help="explain a query's relevance analysis")
    explain.add_argument("--db", required=True, help="monitoring SQLite file")
    explain.add_argument("sql", help="the user query to analyze (not executed)")
    explain.add_argument("--no-constraints", action="store_true")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and print its per-operator profile "
        "(rows in/out, selectivity, wall ms)",
    )
    explain.add_argument(
        "--lineage",
        action="store_true",
        help="with --analyze, annotate each operator with its row-provenance "
        "fan-in and list the contributing sources",
    )
    explain.set_defaults(handler=_cmd_explain)

    inspect = sub.add_parser("inspect", help="summarize a monitoring database")
    inspect.add_argument("--db", required=True)
    inspect.set_defaults(handler=_cmd_inspect)

    watch = sub.add_parser("watch", help="evaluate watch rules against the database")
    watch.add_argument("--db", required=True, help="monitoring SQLite file")
    watch.add_argument("--rules", required=True, help="JSON rules file")
    watch.add_argument("--now", default=None, **_number("clock override (epoch)"))
    watch.set_defaults(handler=_cmd_watch)

    shell = sub.add_parser("shell", help="interactive recency-reporting shell")
    shell.add_argument("--db", required=True, help="monitoring SQLite file")
    shell.set_defaults(handler=_cmd_shell)

    stats = sub.add_parser("stats", help="run reports with telemetry and print stats")
    stats.add_argument("--db", required=True, help="monitoring SQLite file")
    stats.add_argument("sql", nargs="+", help="one or more user queries to report on")
    stats.add_argument("--method", choices=["focused", "naive"], default="focused")
    stats.add_argument("--repeat", type=int, default=1, help="reports per query")
    stats.add_argument(
        "--incremental",
        action="store_true",
        help="mirror the database into memory and serve repeated reports "
        "from incrementally maintained relevant-source sets",
    )
    stats.add_argument("--spans-jsonl", help="also dump finished spans to this file")
    stats.add_argument("--prometheus", help="also write Prometheus text format here")
    stats.set_defaults(handler=_cmd_stats)

    serve = sub.add_parser("serve", help="expose a monitoring DB via the observatory")
    serve.add_argument("--db", required=True, help="monitoring SQLite file")
    serve.add_argument("--port", type=int, default=9464, help="0 = ephemeral")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--duration",
        default=None,
        **_number("serve for this many wall seconds, then exit (default: forever)", 0),
    )
    serve.add_argument(
        "--workers", type=int, default=8, help="POST /v1/query reports run at once"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="requests that may wait for a free slot; the next one gets 429",
    )
    serve.add_argument(
        "--tenant-rate",
        default=200.0,
        **_number("per-tenant sustained requests/second (token-bucket refill)", 0),
    )
    serve.add_argument(
        "--tenant-burst",
        default=400.0,
        **_number("per-tenant burst allowance (token-bucket capacity)", 0, low_open=True),
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="per-tenant ceiling on admitted-but-unfinished requests",
    )
    serve.add_argument(
        "--deadline",
        default=5.0,
        **_number(
            "default per-request deadline in seconds (a request still "
            "waiting for a slot then gets HTTP 504)",
            0,
            low_open=True,
        ),
    )
    serve.add_argument(
        "--lineage",
        action="store_true",
        help="annotate every served row with its provenance block "
        "(contributing sources + staleness-derived quality)",
    )
    serve.set_defaults(handler=_cmd_serve)

    top = sub.add_parser("top", help="live dashboard polling an observatory server")
    top.add_argument("--url", required=True, help="observatory base URL or /status URL")
    top.add_argument("--interval", default=2.0, **_number("seconds between frames", 0))
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames then exit (default: until interrupted)",
    )
    top.add_argument(
        "--no-clear", action="store_true", help="append frames instead of clearing"
    )
    top.set_defaults(handler=_cmd_top)
    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _run_until_stopped(deployment, announce, tick=None, interval=None, duration=None) -> bool:
    """Announce readiness, then :meth:`Deployment.run` until SIGTERM, ctrl-C,
    ``duration`` wall seconds, or ``tick()`` returning ``False``; true when
    SIGTERM ended it. The handler goes in *before* ``announce`` is printed,
    so a supervisor that signals the moment it reads the readiness line still
    gets the deployment's teardown, never a hard kill. Outside the main
    thread (in-process tests) signals cannot be hooked; the run then ends by
    ``tick`` or ``duration`` only."""
    import signal

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: deployment.stop())
    except ValueError:
        pass  # not the main thread
    try:
        print(announce, flush=True)
        deployment.run(tick, interval, duration)
    except KeyboardInterrupt:
        pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return deployment.stopping.is_set()


def _read_text(path: str, what: str) -> str:
    """The text of the ``what`` file at ``path``; unreadable is a one-line
    :class:`TracError` (exit 1), never a traceback."""
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise TracError(f"cannot read {what} {path!r}: {exc}") from exc


def _load_fault_plan(path: Optional[str]):
    """The ``--faults`` plan, or ``None`` without the flag."""
    if not path:
        return None
    from repro.faults import plan_from_json

    return plan_from_json(_read_text(path, "fault plan"))


def _open_durability(args: argparse.Namespace):
    """``(manager, config)`` for ``--data-dir`` / ``--resume``: no manager
    without ``--data-dir``; ``config`` is the :class:`SimulationConfig` the
    newest checkpoint saved when resuming, else ``None``."""
    if not args.data_dir:
        if args.resume:
            raise TracError("--resume requires --data-dir")
        return None, None
    from repro.durable import DurabilityManager, DurabilityPolicy
    from repro.grid.simulator import SimulationConfig

    policy = DurabilityPolicy(
        fsync=args.fsync,
        fsync_interval=args.fsync_interval,
        checkpoint_interval=args.checkpoint_interval,
    )
    manager = DurabilityManager(args.data_dir, policy=policy, resume=args.resume)
    saved = manager.saved_config() if args.resume else None
    return manager, None if saved is None else SimulationConfig.from_dict(saved)


def _print_row_counts(backend) -> None:
    for table in ("activity", "routing", "sched_jobs", "run_jobs", "heartbeat"):
        print(f"  {table:<10} {backend.row_count(table):>8} rows")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.sources import SourceRegistry
    from repro.deploy import Deployment
    from repro.grid.simulator import GridSimulator, SimulationConfig

    if args.shards is not None:
        return _cmd_simulate_sharded(args)

    durability, config = _open_durability(args)
    if config is not None:
        print(f"resuming from {args.data_dir}: {config.num_machines} machines, seed {config.seed}")
    else:
        config = SimulationConfig(
            num_machines=args.machines,
            seed=args.seed,
            num_schedulers=args.schedulers,
            job_submit_probability=args.job_probability,
            machine_failure_probability=args.failure_probability,
        )
    fault_plan = _load_fault_plan(args.faults)
    observing = args.serve is not None or args.top or args.flight_dir is not None
    sources = SourceRegistry(args.slo_target, args.slo_budget) if observing else None

    # The live database is the memory engine (what POST /v1/query snapshots
    # while this loads it); --db is its export, written once at exit. A
    # resume recovers inside GridSimulator(...), so an observed run turns
    # telemetry on first; the deployment keeps that instance and turns it off.
    if observing:
        obs.enable()
    try:
        sim = GridSimulator(
            config,
            fault_plan=fault_plan,
            silence_timeout=args.silence_timeout,
            sources=sources,
            durability=durability,
        )
    except BaseException:
        if observing:
            obs.disable()
        raise
    remaining = args.duration
    if durability is not None and args.resume:
        remaining = max(0.0, args.duration - sim.now)
        if durability.recovered is not None and not durability.recovered.empty:
            summary = durability.recovered.summary()
            print(
                f"recovered epoch {summary['epoch']} at t={sim.now:.0f}s: "
                f"{summary['replayed_events']} event(s) and "
                f"{summary['replayed_heartbeats']} heartbeat(s) replayed from "
                f"{summary['segments']} WAL segment(s), "
                f"{summary['torn_segments']} torn"
            )

    deployment = Deployment(
        sim,
        port=args.serve,
        host=args.serve_host,
        flight_dir=(args.flight_dir or f"{args.db}.flight") if observing else None,
    )
    try:
        announce = (
            f"simulating {config.num_machines} machines for {remaining:.0f}s "
            f"(seed {config.seed})..."
        )
        if deployment.server is not None:
            announce = f"observatory serving on {deployment.server.url}\n{announce}"
        target = sim.now + remaining
        next_frame = 0.0

        def step() -> bool:
            nonlocal next_frame
            if not deployment.step(until=target):
                return False
            if args.top and sim.now >= next_frame:
                sys.stdout.write(render_top(sim.status()) + "\n")
                next_frame = sim.now + max(args.top_interval, config.tick)
            return True

        if _run_until_stopped(deployment, announce, step, interval=0):
            print(f"SIGTERM: stopping early at t={sim.now:.0f}s (flushing WAL, final checkpoint)")

        print(f"done at t={sim.now:.0f}s:")
        _print_row_counts(sim.backend)
        jobs = sim.all_jobs
        completed = sum(1 for job in jobs if not job.is_active)
        print(f"  jobs: {len(jobs)} submitted, {completed} completed")
        if sim.supervisors:
            print("supervision:")
            records = sim.sources.snapshot()
            for mid in sim.machine_ids:
                record = records[mid]
                line = (
                    f"  {mid:<6} {record.status:<12} retries={record.retries} "
                    f"restarts={record.restarts} breaker={record.breaker}"
                )
                if record.status == "degraded":
                    line += f"  ({record.reason})"
                print(line)
            if fault_plan is not None and fault_plan.injected:
                injected = ", ".join(
                    f"{kind}={count}" for kind, count in sorted(fault_plan.injected.items())
                )
                print(f"  faults injected: {injected}")
            degraded = sim.sources.degraded()
            if degraded:
                print(f"  degraded sources: {', '.join(degraded)}")
        if args.archive:
            from repro.grid.persist import archive_simulation

            paths = archive_simulation(sim, args.archive)
            print(f"  archived {len(paths)} log files to {args.archive}")
        if sources is not None:
            status = sources.slo_status()
            breached = status["breached"]
            verdict = f"BREACHED ({', '.join(breached)})" if breached else "ok"
            print(
                f"staleness SLO (p95 < {status['target_p95']:g}s, "
                f"budget {status['budget']:g}): {verdict}, "
                f"worst burn {status['worst_burn']:.2f}"
            )
        with contextlib.closing(SQLiteBackend(sim.catalog, args.db)) as exported:
            copy_tables(sim.backend, exported)
    finally:
        deployment.close()
    if durability is not None:
        dstats = durability.stats()
        print(
            f"durability: epoch {dstats['epoch']}, "
            f"{dstats['checkpoints_written']} checkpoint(s) "
            f"({dstats['checkpoint_failures']} failed), "
            f"{dstats['wal_records']} WAL record(s), "
            f"{dstats['wal_syncs']} fsync(s)"
        )
    recorder = deployment.recorder
    if recorder is not None:
        if recorder.dumps:
            print(f"flight recorder: {len(recorder.dumps)} dump(s)")
            for path in recorder.dumps:
                print(f"  {path}")
        else:
            print("flight recorder: no anomalies triggered")
    print(f"monitoring database written to {args.db}")
    return 0


def _cmd_shard_serve(args: argparse.Namespace) -> int:
    from repro.federation.process import format_ready_line
    from repro.federation.shard import ShardServer
    from repro.grid.simulator import SimulationConfig

    durability, config = _open_durability(args)
    if config is None:
        config = SimulationConfig(
            num_machines=args.machines,
            seed=args.seed,
            machine_id_start=args.machine_id_start,
        )

    shard = ShardServer(
        args.shard_id,
        config,
        host=args.host,
        port=args.port,
        durability=durability,
        fault_plan=_load_fault_plan(args.faults),
        step_interval=args.step_interval,
    )
    try:
        shard.start()
        # The announce line the launcher/chaos harness parses; the ``stop``
        # op ends the wait as SIGTERM does.
        _run_until_stopped(
            shard.deployment,
            format_ready_line(shard.shard_id, shard.host, shard.port, shard.sim.machine_ids),
            duration=args.duration,
        )
    finally:
        shard.close()  # drain the in-flight fragment, flush the WAL, checkpoint
    print(f"shard {shard.shard_id} stopped at t={shard.sim.now:.0f}s")
    return 0


#: ``trac simulate`` flags with no shard-side meaning: refused with --shards.
_UNSHARDED_FLAGS = (
    "top", "schedulers", "job_probability", "failure_probability", "silence_timeout",
    "slo_target", "slo_budget", "flight_dir", "archive",
)


def _cmd_simulate_sharded(args: argparse.Namespace) -> int:
    import os

    from repro.deploy import Deployment
    from repro.federation import FederationCoordinator, ShardRegistry
    from repro.federation.process import launch_shard

    defaults = _build_parser().parse_args(["simulate", "--db", args.db])
    for flag in _UNSHARDED_FLAGS:
        if getattr(args, flag) != getattr(defaults, flag):
            raise TracError(f"--{flag.replace('_', '-')} is not supported with --shards")
    if args.resume and not args.data_dir:
        raise TracError("--resume requires --data-dir")
    print(f"note: --shards mode does not write {args.db}; state lives per shard")

    shards_n = args.shards
    if args.machines < shards_n:
        raise TracError(
            f"need at least one machine per shard ({args.machines} machines, "
            f"{shards_n} shards)"
        )
    base, extra = divmod(args.machines, shards_n)
    counts = [base + (1 if k < extra else 0) for k in range(shards_n)]

    processes = []
    registry = ShardRegistry()
    deployment = None
    try:
        start_id = 1
        for k, count in enumerate(counts):
            data_dir = (
                os.path.join(args.data_dir, f"shard-{k}") if args.data_dir else None
            )
            proc = launch_shard(
                f"s{k}",
                machines=count,
                machine_id_start=start_id,
                seed=args.seed,
                data_dir=data_dir,
                resume=args.resume,
                fsync=args.fsync,
                faults=args.faults,
                extra_args=[
                    "--fsync-interval", str(args.fsync_interval),
                    "--checkpoint-interval", str(args.checkpoint_interval),
                ],
            )
            processes.append(proc)
            registry.register(proc.host, proc.port)
            start_id += count
        announce = (
            f"federation: {shards_n} shard(s), {args.machines} machines "
            f"({', '.join(f'{p.shard_id}:{len(p.machines)}' for p in processes)})"
        )

        coordinator = FederationCoordinator(registry, stale_fallback=True, seed=args.seed)
        deployment = Deployment(coordinator, port=args.serve, host=args.serve_host)
        if deployment.server is not None:
            announce += f"\nobservatory serving on {deployment.server.url}"

        report = None

        def tick() -> None:
            nonlocal report
            registry.refresh()
            report = coordinator.report("SELECT * FROM activity", method="naive")

        if _run_until_stopped(deployment, announce, tick, args.report_interval, args.duration):
            print("SIGTERM: stopping the federation")
        if report is not None:
            print(
                f"federated report: {report.shards_ok}/{report.shards_total} "
                f"shard(s), {len(report.relevant_source_ids)} relevant source(s)"
            )
            for line in report.notices():
                print(f"  {line}")
        status_doc = coordinator.federation_status()
        print(
            f"federation: reports={status_doc['reports_total']} "
            f"partial={status_doc['partial_reports']} "
            f"breakers={status_doc['breakers']}"
        )
        return 0
    finally:
        if deployment is not None:
            deployment.close()
        for proc in processes:
            proc.terminate()


def _cmd_recover(args: argparse.Namespace) -> int:
    import os

    from repro.durable import recover

    if not os.path.isdir(args.data_dir):
        raise TracError(f"no durability directory at {args.data_dir!r}")

    backend = dry = None
    if args.db:
        from repro.grid.simulator import monitoring_catalog

        # A dry scan first: the machine set comes from the journal itself.
        dry = recover(args.data_dir)
        if dry.empty:
            raise TracError(f"nothing to recover in {args.data_dir!r}")
        if dry.state is not None:
            machine_ids = list(dry.state["machine_ids"])
        else:
            machine_ids = sorted(dry.offsets)
        backend = SQLiteBackend(monitoring_catalog(machine_ids), args.db)

    try:
        recovered = recover(args.data_dir, backend=backend)
        if dry is not None:  # the dry scan already cut the torn tails it found
            recovered.torn_segments = dry.torn_segments
        summary = recovered.summary()
        print(f"durability directory: {args.data_dir}")
        print(f"  epoch               : {summary['epoch']}")
        print(f"  checkpoint          : {'yes' if summary['has_checkpoint'] else 'no'}")
        print(f"  WAL segments        : {summary['segments']}")
        print(f"  replayed events     : {summary['replayed_events']}")
        print(f"  replayed heartbeats : {summary['replayed_heartbeats']}")
        print(f"  skipped records     : {summary['skipped_records']}")
        print(f"  torn segments       : {summary['torn_segments']}")
        print(f"  invalid checkpoints : {summary['invalid_checkpoints']}")
        if recovered.state is not None:
            print(f"  checkpointed at t   : {recovered.state['now']:.0f}s")
        for source in sorted(recovered.offsets):
            recency = recovered.recency.get(source)
            recency_text = f"{recency:.0f}" if recency is not None else "-"
            print(
                f"  {source:<8} offset={recovered.offsets[source]:<6} "
                f"recency={recency_text}"
            )
        if recovered.empty:
            print("  (nothing recovered: empty directory)")
        if backend is not None:
            _print_row_counts(backend)
            print(f"monitoring database rebuilt at {args.db}")
        return 0
    finally:
        if backend is not None:
            backend.close()


def _cmd_report(args: argparse.Namespace) -> int:
    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        query_backend = backend
        if args.lineage:
            # SQLite runs the SQL natively and cannot attribute rows to
            # sources; lineage needs the mini engine, so copy first.
            query_backend = copy_tables(backend, MemoryBackend(backend.catalog))
        reporter = RecencyReporter(
            query_backend,
            z_threshold=args.z_threshold,
            create_temp_tables=True,
            use_constraints=not args.no_constraints,
            lineage=args.lineage,
        )
        report = reporter.report(args.sql, method=args.method)
        for notice in report.notices():
            print(notice)
        print()
        print(" | ".join(report.result.columns))
        print("-" * max(20, sum(len(c) + 3 for c in report.result.columns)))
        for row in report.result.rows:
            print(" | ".join(str(v) for v in row))
        print(f"({len(report.result.rows)} rows)")
        print()
        if report.provenance is not None:
            print("provenance       :")
            rows = zip(report.provenance["row_sources"], report.row_quality)
            for index, (sources, q) in enumerate(rows, 1):
                score = f"{q:.3f}" if q is not None else "unattributed"
                names = ", ".join(sources) if sources else "(none)"
                print(f"  row {index}: {names}  [quality {score}]")
            worst = report.provenance["quality"]["worst_row_quality"]
            if worst is not None:
                print(f"  worst row quality: {worst:.3f}")
        print(f"method           : {report.method}")
        print(f"relevant sources : {len(report.relevant_source_ids)}")
        print(f"provably minimal : {report.minimal}")
        timings = report.timings
        print(
            "timings          : "
            f"parse+gen {timings.parse_generate * 1000:.2f}ms, "
            f"user {timings.user_query * 1000:.2f}ms, "
            f"recency {timings.recency_query * 1000:.2f}ms, "
            f"stats {timings.statistics * 1000:.2f}ms"
        )
        if args.show_plan:
            from repro.core.explain import explain
            from repro.engine.cache import resolve_cached

            print("recency plan     :")
            print(explain(resolve_cached(args.sql, backend.catalog), report.plan))
        return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.grid.persist import discover_logs, replay_directory
    from repro.grid.simulator import monitoring_catalog

    logs = discover_logs(args.logs)
    if not logs:
        raise TracError(f"no *.log files in {args.logs}")
    with contextlib.closing(SQLiteBackend(monitoring_catalog(sorted(logs)), args.db)) as backend:
        sniffers = replay_directory(backend, args.logs, up_to_time=args.up_to)
        loaded = sum(s.records_loaded for s in sniffers.values())
        print(f"replayed {loaded} records from {len(sniffers)} logs into {args.db}")
        _print_row_counts(backend)
        return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain_sql

    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        if args.analyze:
            from repro.engine.profile import profile_query

            # SQLite runs its SQL natively: nothing to profile.
            db = copy_tables(backend, MemoryBackend(backend.catalog)).db
            print(profile_query(db, args.sql, lineage=args.lineage).render())
        else:
            print(
                explain_sql(
                    args.sql, backend.catalog, use_constraints=not args.no_constraints
                )
            )
        return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        print(f"monitoring database: {args.db}")
        print("tables:")
        for schema in backend.catalog:
            count = backend.row_count(schema.name)
            source = f"source={schema.source_column}" if schema.source_column else "system"
            print(f"  {schema.name:<12} {count:>8} rows   ({source})")
        heartbeats = dict(backend.heartbeat_rows())
        if not heartbeats:
            print("no heartbeats recorded")
            return 0
        oldest, newest = min(heartbeats.values()), max(heartbeats.values())
        print(f"heartbeats: {len(heartbeats)} sources")
        print(f"  oldest : {format_timestamp(oldest)}")
        print(f"  newest : {format_timestamp(newest)}")
        print(f"  spread : {format_interval(newest - oldest)}")
        rows = source_rows(heartbeats, newest)
        names = ", ".join(row["id"] for row in rows if row["state"] == "exceptional")
        if names:
            print(f"  exceptional (|z| >= {DEFAULT_Z_THRESHOLD}): {names}")
        else:
            print("  exceptional: none")
        return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.core.monitor import RecencyMonitor, rules_from_json

    rules = rules_from_json(_read_text(args.rules, "watch rules"))
    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        monitor = RecencyMonitor(backend)
        for rule in rules:
            monitor.add_rule(rule)
        alerts = monitor.check(now=args.now)
        if not alerts:
            print(f"all {len(rules)} rule(s) pass")
            return 0
        for alert in alerts:
            print(f"ALERT [{alert.kind}] {alert.message}")
        return 2  # distinct exit code: rules tripped


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import obs

    tel = obs.enable()
    backend = SQLiteBackend.open(args.db)
    try:
        maintainer = None
        query_backend = backend
        if args.incremental:
            # The maintainer reads Heartbeat positions: copy the database
            # into a MemoryBackend and report from there.
            from repro.incremental import IncrementalMaintainer

            query_backend = copy_tables(backend, MemoryBackend(backend.catalog))
            maintainer = IncrementalMaintainer(query_backend, telemetry=tel)
        reporter = RecencyReporter(
            query_backend,
            telemetry=tel,
            incremental=maintainer,
        )
        for sql in args.sql:
            for _ in range(max(1, args.repeat)):
                report = reporter.report(sql, method=args.method)
            print(
                f"-- {sql}\n   {len(report.result.rows)} rows, "
                f"{len(report.relevant_source_ids)} relevant source(s), "
                f"total {report.timings.total * 1000:.2f}ms"
            )
        print()
        print(obs.render_summary(tel, max_spans=1))
        from repro.engine.cache import get_cache

        cache_stats = get_cache().stats()
        print(
            f"\nresolved-query cache: {cache_stats['hits']} hit(s), "
            f"{cache_stats['misses']} miss(es), "
            f"{cache_stats['size']}/{cache_stats['maxsize']} entries"
        )
        if maintainer is not None:
            inc = maintainer.stats()
            print(
                f"incremental: {inc['hits']} hit(s), {inc['misses']} miss(es), "
                f"{inc['bypasses']} bypass(es), {inc['entries']} materialized "
                f"set(s), hit rate {inc['hit_rate'] * 100:.0f}%"
            )
        if args.spans_jsonl:
            with open(args.spans_jsonl, "w") as handle:
                handle.write(obs.to_jsonl(tel.tracer.finished_spans()) + "\n")
            print(f"\nspans written to {args.spans_jsonl}")
        if args.prometheus:
            with open(args.prometheus, "w") as handle:
                handle.write(obs.prometheus_text(tel.metrics))
            print(f"metrics written to {args.prometheus}")
        return 0
    finally:
        backend.close()
        obs.disable()


def _cmd_shell(args: argparse.Namespace) -> int:
    from repro.shell import run_shell

    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        run_shell(backend)
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.deploy import Deployment
    from repro.serve import ServeConfig

    # SQLite connections are single-threaded; the file is copied into the
    # memory engine, whose CoW snapshots carry concurrent load.
    with contextlib.closing(SQLiteBackend.open(args.db)) as backend:
        memory = copy_tables(backend, MemoryBackend(backend.catalog))
    config = ServeConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_inflight=args.max_inflight,
        default_deadline=args.deadline,
        lineage=args.lineage,
    )
    with Deployment(memory, port=args.port, host=args.host, config=config) as deployment:
        announce = (
            f"observatory serving {args.db} on {deployment.server.url} "
            f"(POST /v1/query, {args.workers} workers; ctrl-C to stop)"
        )
        if _run_until_stopped(deployment, announce, duration=args.duration):  # None: forever
            print("SIGTERM: draining in-flight queries and stopping")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    frames = run_top(
        lambda: fetch_status(args.url),
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )
    return 0 if frames > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
