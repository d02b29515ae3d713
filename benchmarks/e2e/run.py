#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload — what the driver of ``BENCHMARK.json`` calls.
    ``--trace 0`` measures the end-to-end metrics with no tracing;
    ``--trace 1`` is the separate traced pass that yields every per-layer
    metric. The last line of standard output is one JSON object with the
    keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 benchmarks/e2e/run.py --seed N [--quick] [--reverse] [--out FILE]``
    Every workload, untraced then traced, each pass in a fresh process;
    prints every metric by name with its unit and writes one result
    document (the input of ``compare.py``).

Metric names, units, directions and bounds are read from ``BENCHMARK.json``;
this file and the workload modules only produce values for them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import protocol
from protocol import OUT_DIR, ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import repro  # noqa: F401
except ImportError as exc:
    sys.exit(f"benchmarks/e2e/run.py must run from a checkout with src/repro: {exc}")

import probes  # noqa: E402
import wl_federated  # noqa: E402
import wl_ingest  # noqa: E402
import wl_report  # noqa: E402
import wl_serve  # noqa: E402
from spans import SpanRecorder  # noqa: E402

WORKLOADS = {
    "report_scan": wl_report.report_scan,
    "report_adhoc": wl_report.report_adhoc,
    "serve_http": wl_serve.ServeWorkload,
    "ingest_visible": wl_ingest.IngestWorkload,
    "federated": wl_federated.FederatedWorkload,
}

#: Layers only one workload enters. Every traced pass must still report
#: every per-layer metric, so a pass fills the layers its workload never
#: enters from a miniature run of the workload that owns them.
LAYER_OWNERS = ("serve_http", "ingest_visible", "federated")

SETUP_REPEATS = 5
#: Host-speed bursts taken before and after each set-up (see protocol.py).
SETUP_BURSTS = 7
QUICK_SECONDS = 6
#: Share of ``--seconds`` the traced pass spends in its loop (half of it
#: under spans, half as the untraced baseline beside them); the layer
#: probes that follow are fixed op counts.
TRACED_SHARE = 0.8
MINI_SECONDS = 0.6


# ---------------------------------------------------------------------------
# One pass of one workload
# ---------------------------------------------------------------------------


def untraced_pass(name: str, seed: int, seconds: float, scale: str) -> dict:
    """Set up (several times, timed), measure, check, tear down."""
    calibration = [protocol.calibration_ms()]
    setups: List[float] = []
    raw_setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        workload = WORKLOADS[name](seed, scale)
        bursts = [protocol.host_burst() for _ in range(SETUP_BURSTS)]
        start = time.perf_counter()
        workload.setup()
        raw_setups.append(time.perf_counter() - start)
        bursts += [protocol.host_burst() for _ in range(SETUP_BURSTS)]
        setups.append(raw_setups[-1] * protocol.host_factor(bursts))
        if attempt < SETUP_REPEATS - 1:
            workload.teardown()
    recorder = protocol.Recorder(workload.cpu_share)
    try:
        workload.measure(seconds, recorder)
        workload.finish(recorder)
    finally:
        workload.teardown()
    metrics = protocol.summarize(recorder)
    metrics["setup_s"] = protocol.median_over_segments(setups, raw_setups)
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb()}
    calibration.append(protocol.calibration_ms())
    return {
        "workload": name,
        "trace": 0,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": metrics,
        "calibration_ms": calibration,
        "config": workload.config,
    }


def traced_pass(name: str, seed: int, seconds: float, scale: str, out_dir: Optional[str]) -> dict:
    """The traced loop with its untraced baseline, the layer probes, and
    the miniature fill-ins for layers this workload never enters."""
    calibration = [protocol.calibration_ms()]
    workload = WORKLOADS[name](seed, scale)
    workload.setup()
    baseline = protocol.Recorder(workload.cpu_share)
    traced = protocol.Recorder(workload.cpu_share)
    spans = SpanRecorder()
    try:
        values = workload.trace(seconds * TRACED_SHARE, traced, baseline, spans)
        values.update(workload.finish(traced))
    finally:
        workload.teardown()
    traced_p50 = protocol.whole_pass_p50_ms(traced)
    baseline_p50 = protocol.whole_pass_p50_ms(baseline)
    values["bench.trace_overhead_ratio"] = traced_p50 / baseline_p50 - 1.0
    metrics = {key: {"value": value, "on_path": True} for key, value in values.items()}
    attempted = baseline.attempted + traced.attempted
    failed = baseline.failed + traced.failed
    # The tail over both interleaved populations: twice the samples, and
    # the tracing overhead above says how little the spans distort it.
    traced.ops.extend(baseline.ops)
    metrics["report_p95_ms"] = dict(protocol.summarize(traced)["report_p95_ms"], on_path=True)
    for owner in LAYER_OWNERS:
        if owner == name:
            continue
        mini = WORKLOADS[owner](seed, "mini")
        mini.setup()
        mini_recorder = protocol.Recorder()
        try:
            filled = mini.trace(MINI_SECONDS, mini_recorder, mini_recorder, SpanRecorder())
            filled.update(mini.finish(mini_recorder))
        finally:
            mini.teardown()
        attempted += mini_recorder.attempted
        failed += mini_recorder.failed
        for key, value in filled.items():
            metrics.setdefault(key, {"value": value, "on_path": False, "from": f"mini {owner}"})

    calibration.append(protocol.calibration_ms())
    metrics["bench.calibration_ms"] = {"value": statistics.fmean(calibration), "on_path": True}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        spans.write_jsonl(os.path.join(out_dir, f"trace-{name}.jsonl"))
    return {
        "workload": name,
        "trace": 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "calibration_ms": calibration,
        "attribution": attribution(spans, traced_p50),
        "baseline_p50_ms": baseline_p50,
        "config": workload.config,
    }


def attribution(spans: SpanRecorder, traced_p50_ms: float) -> dict:
    """Does the layer table add up? Shape-balanced median self time, summed
    over the caller-observed ``report`` spans and everything under them,
    against the caller-observed median."""
    under = set()
    for span in spans.spans:  # parents are always recorded before children
        if span.name == "report" or span.parent in under:
            under.add(span.id)
    names = {spans.spans[i].name for i in under}
    selfs = probes.self_time_metrics(spans, {n: n for n in names}, only=under)
    total = sum(selfs.values())
    return {
        "self_ms": selfs,
        "sum_self_ms": total,
        "traced_p50_ms": traced_p50_ms,
        "gap_ratio": total / traced_p50_ms - 1.0,
    }


def one_pass(args: argparse.Namespace, declaration: dict) -> int:
    scale = "quick" if args.quick else "full"
    if args.trace:
        detail = traced_pass(args.workload, args.seed, args.seconds, scale, args.out_dir)
        declared = declaration["per_layer"]
    else:
        detail = untraced_pass(args.workload, args.seed, args.seconds, scale)
        declared = declaration["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in detail["metrics"]]
    if missing:
        raise RuntimeError(f"{args.workload} produced no value for {missing}")
    for metric in declared:
        detail["metrics"][metric["name"]]["unit"] = metric["unit"]
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fp:
            json.dump(detail, fp)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": detail["metrics"][m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, one document
# ---------------------------------------------------------------------------


def git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_child(
    name: str, args: argparse.Namespace, trace: int, seconds: float, scratch: str
) -> dict:
    detail_path = os.path.join(scratch, f"{name}-{trace}.json")
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--detail", detail_path,
        "--out-dir", args.out_dir or OUT_DIR,
    ]  # fmt: skip
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if not os.path.exists(detail_path):
        raise RuntimeError(f"{name} (trace {trace}) produced no result:\n{done.stderr}")
    with open(detail_path, encoding="utf-8") as fp:
        return json.load(fp)


def document_entry(detail: dict, declared: List[dict]) -> Dict[str, dict]:
    """The declared metrics of one pass as document entries: a value, or an
    explicit ``null`` with the reason it could not be supported."""
    out: Dict[str, dict] = {}
    for metric in declared:
        entry = dict(detail["metrics"][metric["name"]])
        if "unsupported" in entry:
            entry["estimate"] = entry["value"]
            entry["value"] = None
            entry["reason"] = entry.pop("unsupported")
        out[metric["name"]] = entry
    return out


def all_workloads(args: argparse.Namespace, declaration: dict) -> int:
    seconds = QUICK_SECONDS if args.quick else args.seconds
    names = [w["name"] for w in declaration["workloads"]]
    if args.reverse:
        names.reverse()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="passes-", dir=OUT_DIR)
    document = {
        "env": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(),
            "seed": args.seed,
            "seconds": seconds,
            "segments": protocol.SEGMENTS,
            "quick": args.quick,
            "workload_order": names,
            "flush_policy": wl_ingest.FSYNC_POLICY,
        },
        "workloads": {},
    }
    failed = 0
    try:
        for name in names:
            untraced = run_child(name, args, 0, seconds, scratch)
            traced = run_child(name, args, 1, seconds, scratch)
            attempted = untraced["attempted"] + traced["attempted"]
            failures = untraced["failed"] + traced["failed"]
            failed += failures
            end_to_end = document_entry(untraced, declaration["end_to_end"])
            end_to_end["failed_share"] = {"value": failures / attempted, "unit": "ratio"}
            document["workloads"][name] = {
                "config": untraced["config"],
                "attempted": attempted,
                "failed": failures,
                "calibration_ms": untraced["calibration_ms"] + traced["calibration_ms"],
                "host_factor": untraced["metrics"]["host_factor"],
                "end_to_end": end_to_end,
                "per_layer": document_entry(traced, declaration["per_layer"]),
                "attribution": traced["attribution"],
            }
            print_workload(name, document["workloads"][name])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    document["env"]["loadavg_end"] = os.getloadavg()
    out = args.out or os.path.join(OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fp:
        json.dump(document, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"\nresult document: {out}")
    if failed:
        print(f"FAILED: {failed} operations were wrong, refused or timed out", file=sys.stderr)
    return 1 if failed else 0


def print_workload(name: str, entry: dict) -> None:
    print(f"\n== {name}  (attempted {entry['attempted']}, failed {entry['failed']})")
    for section in ("end_to_end", "per_layer"):
        for metric, item in entry[section].items():
            value = item["value"]
            shown = "null" if value is None else f"{value:.6g}"
            note = ""
            if "seg_min" in item:
                note = f"  [segments {item['seg_min']:.4g} .. {item['seg_max']:.4g}]"
            elif item.get("on_path") is False:
                note = f"  (off this workload's path: {item['from']})"
            elif value is None:
                note = f"  ({item['reason']})"
            print(f"  {metric:34s} {shown:>12s} {item['unit']:8s}{note}")
    gap = entry["attribution"]["gap_ratio"]
    print(f"  traced self times sum to {1 + gap:.3f} of the traced p50")


def main(argv: Optional[List[str]] = None) -> int:
    declaration = protocol.load_declaration()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one pass of it")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(declaration["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="1 s segments, a tenth of the ticks")
    parser.add_argument("--reverse", action="store_true", help="run the workloads in reverse order")
    parser.add_argument("--out", help="result document (all-workload mode)")
    parser.add_argument("--out-dir", help="where trace-<workload>.jsonl files go")
    parser.add_argument("--detail", help="also write this pass's full detail as JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        return one_pass(args, declaration)
    return all_workloads(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
