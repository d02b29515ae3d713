"""One-command paper reproduction with programmatic claim checking.

Runs the full evaluation (one sweep behind Figures 1 and 2, fpr, the Section
5.1 transcript values and the Section 4.2 case analysis) and grades every
qualitative claim of the paper as PASS/FAIL, emitting a markdown report::

    python -m repro.bench.paper --total-rows 50000 -o REPRODUCTION_REPORT.md

Timing-based claims use generous margins (an order of magnitude where the
real gap is three), so a PASS is meaningful and a FAIL indicates a genuine
structural regression, not scheduler noise.
"""

from __future__ import annotations

import argparse
import platform
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench import figures
from repro.bench.reporting import ascii_table, rows_from_dicts


class ClaimResult:
    __slots__ = ("claim", "passed", "evidence")

    def __init__(self, claim: str, passed: bool, evidence: str) -> None:
        self.claim = claim
        self.passed = passed
        self.evidence = evidence


def _cell(records: List[Dict[str, object]], query: str, ratio: int, method: str):
    for record in records:
        if (
            record["query"] == query
            and record["data_ratio"] == ratio
            and record["method"] == method
        ):
            return record
    raise KeyError(f"missing cell {query}/{ratio}/{method}")


def check_figure1(records: List[Dict[str, object]]) -> List[ClaimResult]:
    ratios = sorted({int(r["data_ratio"]) for r in records})  # type: ignore[arg-type]
    low, high = ratios[0], ratios[-1]
    out: List[ClaimResult] = []

    naive = float(_cell(records, "Q1", low, "naive")["t_report_s"])  # type: ignore[arg-type]
    hard = float(_cell(records, "Q1", low, "focused_hardcoded")["t_report_s"])  # type: ignore[arg-type]
    out.append(
        ClaimResult(
            "Naive >> Focused-hardcoded for selective Q1 at many sources",
            naive > 3 * hard,
            f"naive {naive * 1000:.2f}ms vs hardcoded {hard * 1000:.2f}ms "
            f"at ratio {low} (x{naive / hard:.1f})",
        )
    )

    q2_focused = float(_cell(records, "Q2", low, "focused")["t_report_s"])  # type: ignore[arg-type]
    q2_naive = float(_cell(records, "Q2", low, "naive")["t_report_s"])  # type: ignore[arg-type]
    out.append(
        ClaimResult(
            "Focused and Naive comparable for non-selective Q2",
            q2_focused < 5 * q2_naive and q2_naive < 5 * q2_focused,
            f"focused {q2_focused * 1000:.1f}ms vs naive {q2_naive * 1000:.1f}ms",
        )
    )

    collapse = [
        float(_cell(records, "Q1", high, method)["overhead_pct"])  # type: ignore[arg-type]
        for method in ("focused", "focused_hardcoded", "naive")
    ]
    out.append(
        ClaimResult(
            "All overheads collapse at high data ratio (Q1)",
            all(value < 300.0 for value in collapse),
            f"overheads at ratio {high}: "
            + ", ".join(f"{v:.1f}%" for v in collapse),
        )
    )

    q4_focused = float(_cell(records, "Q4", low, "focused")["t_report_s"])  # type: ignore[arg-type]
    q4_naive = float(_cell(records, "Q4", low, "naive")["t_report_s"])  # type: ignore[arg-type]
    out.append(
        ClaimResult(
            "Q4 at low ratio is the one case where Focused costs more than Naive",
            q4_focused > q4_naive,
            f"focused {q4_focused * 1000:.1f}ms vs naive {q4_naive * 1000:.1f}ms",
        )
    )

    relevant = int(_cell(records, "Q1", low, "focused")["relevant_sources"])  # type: ignore[arg-type]
    naive_relevant = int(_cell(records, "Q1", low, "naive")["relevant_sources"])  # type: ignore[arg-type]
    out.append(
        ClaimResult(
            "Focused reports 6 relevant sources for Q1; Naive reports all",
            relevant == 6 and naive_relevant > 6,
            f"focused {relevant}, naive {naive_relevant}",
        )
    )
    return out


def check_fpr(records: List[Dict[str, object]]) -> List[ClaimResult]:
    out: List[ClaimResult] = []
    focused_ok = all(record["fpr_focused"] == 0.0 for record in records)
    out.append(
        ClaimResult(
            "fpr(Focused) = 0 on all four test queries",
            focused_ok,
            "; ".join(f"{r['query']}: {r['fpr_focused']}" for r in records),
        )
    )
    selective = {r["query"]: float(r["fpr_naive"]) for r in records}  # type: ignore[arg-type]
    out.append(
        ClaimResult(
            "fpr(Naive) explodes for selective Q1/Q3, tiny for Q2/Q4",
            selective["Q1"] > 1 and selective["Q3"] > 1
            and selective["Q2"] < 0.2 and selective["Q4"] < 0.2,
            "; ".join(f"{q}: {v:.4f}" for q, v in sorted(selective.items())),
        )
    )
    return out


def check_transcript() -> List[ClaimResult]:
    """The Section 5.1 session values, recomputed from scratch."""
    from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
    from repro.core.report import RecencyReporter
    from repro.core.statistics import format_interval, format_timestamp

    base = 1_142_431_205.0
    machines = FiniteDomain({f"m{i}" for i in range(1, 12)})
    activity = TableSchema(
        "activity",
        [
            Column("mach_id", "TEXT", machines),
            Column("value", "TEXT", FiniteDomain({"idle", "busy"})),
            Column("event_time", "TIMESTAMP"),
        ],
        source_column="mach_id",
    )
    backend = MemoryBackend(Catalog([activity]))
    backend.insert_rows(
        "activity",
        [("m1", "idle", base - 900.0), ("m2", "busy", base - 2000.0), ("m3", "idle", base - 300.0)],
    )
    backend.upsert_heartbeat("m1", base + 20 * 60)
    backend.upsert_heartbeat("m2", base - (29 * 86400 + 20 * 3600 + 37 * 60 + 5))
    backend.upsert_heartbeat("m3", base + 40 * 60)
    for i in range(4, 12):
        backend.upsert_heartbeat(f"m{i}", base + (17 + i) * 60)

    report = RecencyReporter(backend).report(
        "SELECT mach_id, value FROM activity A WHERE value = 'idle'"
    )
    stats = report.statistics
    checks = [
        (sorted(r[0] for r in report.result.rows) == ["m1", "m3"], "answer m1, m3"),
        (stats.least_recent.source_id == "m1", "least recent m1"),
        (stats.most_recent.source_id == "m3", "most recent m3"),
        (format_interval(stats.inconsistency_bound) == "00:20:00", "bound 00:20:00"),
        ([s.source_id for s in report.exceptional_sources] == ["m2"], "exceptional m2"),
        (len(report.normal_sources) == 10, "10 normal sources"),
        (
            format_timestamp(report.exceptional_sources[0].recency)
            == "2006-02-13 17:23:00",
            "m2 at 2006-02-13 17:23:00",
        ),
    ]
    passed = all(ok for ok, _ in checks)
    return [
        ClaimResult(
            "Section 5.1 transcript reproduced value-for-value",
            passed,
            "; ".join(("OK " if ok else "FAIL ") + what for ok, what in checks),
        )
    ]


def check_semantics() -> List[ClaimResult]:
    """Section 4.2 cases (b)/(c) — exact relevant sets."""
    from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
    from repro.core.report import RecencyReporter

    machines = FiniteDomain({"sched", "remote", "other"})
    jobs = FiniteDomain({"myId"})
    s_jobs = TableSchema(
        "s_jobs",
        [
            Column("schedMachineId", "TEXT", machines),
            Column("jobId", "TEXT", jobs),
            Column("remoteMachineId", "TEXT", machines),
        ],
        source_column="schedMachineId",
    )
    r_jobs = TableSchema(
        "r_jobs",
        [Column("runningMachineId", "TEXT", machines), Column("jobId", "TEXT", jobs)],
        source_column="runningMachineId",
    )
    backend = MemoryBackend(Catalog([s_jobs, r_jobs]))
    for machine in ("sched", "remote", "other"):
        backend.upsert_heartbeat(machine, 1.0)
    backend.insert_rows("s_jobs", [("sched", "myId", "remote")])
    backend.insert_rows("r_jobs", [("other", "myId")])  # does not join

    q4 = (
        "SELECT R.runningMachineId FROM s_jobs S, r_jobs R "
        "WHERE S.schedMachineId = 'sched' AND S.jobId = 'myId' "
        "AND R.jobId = 'myId' AND R.runningMachineId = S.remoteMachineId"
    )
    reporter = RecencyReporter(backend)
    case_b = reporter.report(q4).relevant_source_ids

    backend.insert_rows("r_jobs", [("remote", "myId")])  # now it joins
    case_c = reporter.report(q4).relevant_source_ids

    ok = case_b == {"sched", "remote"} and case_c == {"sched", "remote"}
    return [
        ClaimResult(
            "Section 4.2 cases (b)/(c): {scheduler, remote machine} relevant",
            ok,
            f"case b: {sorted(case_b)}; case c: {sorted(case_c)}",
        )
    ]


def build_report(
    total_rows: int,
    runs: int,
    fpr_sources: int,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[str, bool]:
    """Run everything; return (markdown, all_passed)."""
    say = progress or (lambda message: None)
    say("running the Figure 1 / Figure 2 sweep...")
    fig1 = figures.figure1_series(total_rows, runs, "sqlite", say)
    fig2 = figures.figure2_records(fig1)
    say("running fpr experiment...")
    fpr = figures.fpr_results(num_sources=fpr_sources)

    claims: List[ClaimResult] = []
    claims.extend(check_figure1(fig1))
    claims.extend(check_fpr(fpr))
    claims.extend(check_transcript())
    claims.extend(check_semantics())
    all_passed = all(c.passed for c in claims)

    lines: List[str] = []
    lines.append("# Reproduction report")
    lines.append("")
    lines.append(
        f"Workload: `data_ratio x num_sources = {total_rows:,}` "
        f"(paper: 10,000,000); {runs} timing runs per cell; "
        f"fpr measured at {fpr_sources} sources against the brute-force oracle."
    )
    lines.append(
        f"Environment: Python {platform.python_version()} on "
        f"{platform.system()} {platform.machine()}, SQLite backend."
    )
    lines.append("")
    lines.append("## Claim checklist")
    lines.append("")
    lines.append("| status | claim | evidence |")
    lines.append("|---|---|---|")
    for claim in claims:
        status = "**PASS**" if claim.passed else "**FAIL**"
        lines.append(f"| {status} | {claim.claim} | {claim.evidence} |")
    lines.append("")
    fig1_headers = [
        "query", "data_ratio", "num_sources", "method", "overhead_pct", "relevant_sources"
    ]
    for title, headers, records in (
        ("Figure 1 data (overhead %, per query/ratio/method)", fig1_headers, fig1),
        ("Figure 2 data (response times, seconds)", figures.FIG2_HEADERS, fig2),
        ("False-positive rates", figures.FPR_HEADERS, fpr),
    ):
        lines += [f"## {title}", "", "```"]
        lines.append(ascii_table(headers, rows_from_dicts(records, headers)))
        lines += ["```", ""]
    verdict = "every claim PASSED" if all_passed else "SOME CLAIMS FAILED"
    lines.append(f"Overall: {verdict}.")
    return "\n".join(lines) + "\n", all_passed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Reproduce the paper, end to end.")
    parser.add_argument("--total-rows", type=int, default=50_000)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--fpr-sources", type=int, default=200)
    parser.add_argument("-o", "--output", default=None, help="write markdown here")
    args = parser.parse_args(argv)

    say = lambda message: print(f"  ... {message}", file=sys.stderr)  # noqa: E731
    report, all_passed = build_report(args.total_rows, args.runs, args.fpr_sources, say)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
