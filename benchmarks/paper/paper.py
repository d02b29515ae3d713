"""The reproduction report: every claim of the paper's evaluation, graded
from the sweep's CSV files.

``python benchmarks/paper/figures.py all --csv-dir results/`` measures; this
script only reads. It grades each qualitative claim PASS/FAIL from
``results/figure1.csv``, ``figure2.csv`` and ``fpr.csv``, re-runs the two
value checks that time nothing (the Section 5.1 transcript and the Section
4.2 cases), and renders REPRODUCTION_REPORT.md and the marked blocks of
EXPERIMENTS.md. The output is a pure function of the CSV rows, so
``--check`` gives the same answer on any machine; tier-1 runs it.

Timing claims use generous margins (an order of magnitude where the real
gap is three), so a PASS is meaningful and a FAIL indicates a genuine
structural regression, not scheduler noise.

Run:  python benchmarks/paper/paper.py            # print the report; exit 1 if a claim fails
      python benchmarks/paper/paper.py --check    # exit 1 when a document is stale
      python benchmarks/paper/paper.py --write    # rewrite both documents
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from figures import FIG1_HEADERS, FIG2_HEADERS, FPR_HEADERS
from paper_tables import ascii_table, read_csv, rows_from_dicts
from repro import Catalog, Column, FiniteDomain, MemoryBackend, TableSchema
from repro.core.report import RecencyReporter
from repro.core.statistics import format_interval, format_timestamp

ROOT = Path(__file__).resolve().parents[2]
RESULTS = ROOT / "results"
REPORT = ROOT / "REPRODUCTION_REPORT.md"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"

#: A block of EXPERIMENTS.md that --write fills: the marker names the block.
_BLOCK = re.compile(r"(<!-- paper-report:(\w+) -->\n).*?(<!-- /paper-report -->)", re.S)

#: The report's Figure 1 table: each cell's columns up to the phase breakdown.
FIG1_COLUMNS = FIG1_HEADERS[: FIG1_HEADERS.index("relevant_sources") + 1]


class ClaimResult(NamedTuple):
    claim: str
    passed: bool
    evidence: str


def check_figure1(records: List[Dict[str, object]]) -> List[ClaimResult]:
    cells = {(r["query"], r["data_ratio"], r["method"]): r for r in records}
    low, high = min(r for _, r, _ in cells), max(r for _, r, _ in cells)

    def ms(query: str, method: str, ratio: object = low) -> float:
        return 1000 * float(cells[query, ratio, method]["t_report_s"])  # type: ignore[arg-type]

    naive, hard = ms("Q1", "naive"), ms("Q1", "focused_hardcoded")
    q2_focused, q2_naive = ms("Q2", "focused"), ms("Q2", "naive")
    q4_focused, q4_naive = ms("Q4", "focused"), ms("Q4", "naive")
    # Every other (query, ratio) cell where Focused costs more than Naive.
    others = [
        f"{query} at ratio {ratio}"
        for query, ratio in sorted({(query, ratio) for query, ratio, _ in cells})
        if (query, ratio) != ("Q4", low) and ms(query, "focused", ratio) > ms(query, "naive", ratio)
    ]
    collapse = [
        float(cells["Q1", high, method]["overhead_pct"])  # type: ignore[arg-type]
        for method in ("focused", "focused_hardcoded", "naive")
    ]
    relevant, naive_relevant = (
        int(cells["Q1", low, method]["relevant_sources"])  # type: ignore[call-overload]
        for method in ("focused", "naive")
    )
    return [
        ClaimResult(
            "Naive >> Focused-hardcoded for selective Q1 at many sources",
            naive > 3 * hard,
            f"naive {naive:.2f}ms vs hardcoded {hard:.2f}ms at ratio {low} (x{naive / hard:.1f})",
        ),
        ClaimResult(
            "Focused and Naive comparable for non-selective Q2",
            q2_focused < 5 * q2_naive and q2_naive < 5 * q2_focused,
            f"focused {q2_focused:.1f}ms vs naive {q2_naive:.1f}ms",
        ),
        ClaimResult(
            "All overheads collapse at high data ratio (Q1)",
            all(value < 300.0 for value in collapse),
            f"overheads at ratio {high}: " + ", ".join(f"{v:.1f}%" for v in collapse),
        ),
        ClaimResult(
            "Q4 at low ratio is the one case where Focused costs more than Naive",
            q4_focused > q4_naive and not others,
            f"focused {q4_focused:.1f}ms vs naive {q4_naive:.1f}ms; "
            f"Focused also costs more at: {', '.join(others) or 'no other cell'}",
        ),
        ClaimResult(
            "Focused reports 6 relevant sources for Q1; Naive reports all",
            relevant == 6 and naive_relevant > 6,
            f"focused {relevant}, naive {naive_relevant}",
        ),
    ]


def check_fpr(records: List[Dict[str, object]]) -> List[ClaimResult]:
    naive = {r["query"]: float(r["fpr_naive"]) for r in records}  # type: ignore[arg-type]
    return [
        ClaimResult(
            "fpr(Focused) = 0 on all four test queries",
            all(record["fpr_focused"] == 0.0 for record in records),
            "; ".join(f"{r['query']}: {r['fpr_focused']}" for r in records),
        ),
        ClaimResult(
            "fpr(Naive) explodes for selective Q1/Q3, tiny for Q2/Q4",
            naive["Q1"] > 1 and naive["Q3"] > 1 and naive["Q2"] < 0.2 and naive["Q4"] < 0.2,
            "; ".join(f"{q}: {v:.4f}" for q, v in sorted(naive.items())),
        ),
    ]


def check_transcript() -> List[ClaimResult]:
    """The Section 5.1 session values, recomputed from scratch."""

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


def _one(records: List[Dict[str, object]], column: str) -> str:
    return " / ".join(sorted({str(record[column]) for record in records}))


def build_report(
    fig1: List[Dict[str, object]],
    fig2: List[Dict[str, object]],
    fpr: List[Dict[str, object]],
) -> Tuple[str, Dict[str, str], bool]:
    """The report's markdown, the blocks EXPERIMENTS.md quotes from it by
    name, and whether every claim passed."""
    claims = check_figure1(fig1) + check_fpr(fpr) + check_transcript() + check_semantics()
    all_passed = all(c.passed for c in claims)
    checklist = ["| status | claim | evidence |", "|---|---|---|"]
    for claim in claims:
        status = "**PASS**" if claim.passed else "**FAIL**"
        checklist.append(f"| {status} | {claim.claim} | {claim.evidence} |")
    blocks = {"claims": "\n".join(checklist)}
    sections: List[str] = []
    for name, title, headers, records in (
        ("figure1", "Figure 1 data (per query/ratio/method; times in seconds)", FIG1_COLUMNS, fig1),
        ("figure2", "Figure 2 data (response times, seconds)", FIG2_HEADERS, fig2),
        ("fpr", "False-positive rates", FPR_HEADERS, fpr),
    ):
        blocks[name] = f"```\n{ascii_table(headers, rows_from_dicts(records, headers))}\n```"
        sections += [f"## {title}", "", blocks[name], ""]

    totals = {int(r["data_ratio"]) * int(r["num_sources"]) for r in fig1}  # type: ignore[call-overload]
    verdict = "every claim PASSED" if all_passed else "SOME CLAIMS FAILED"
    lines = [
        "# Reproduction report",
        "",
        "Generated by `python benchmarks/paper/paper.py --write` from `results/*.csv`,",
        "which `python benchmarks/paper/figures.py all --csv-dir results/` writes.",
        f"Workload: `data_ratio x num_sources = {' / '.join(f'{t:,}' for t in sorted(totals))}` "
        f"(paper: 10,000,000) on the {_one(fig1, 'backend')} backend; "
        f"{_one(fig1, 'runs')} timing runs per cell, the first dropped and the rest averaged; "
        "fpr measured against the brute-force oracle (`relevant_exact` is its |S(Q)|).",
        "",
        "## Claim checklist",
        "",
        blocks["claims"],
        "",
        *sections,
        f"Overall: {verdict}.",
    ]
    return "\n".join(lines) + "\n", blocks, all_passed


def splice(doc: str, blocks: Dict[str, str]) -> str:
    """``doc`` with every marked block's body replaced by ``blocks[name]``."""
    return _BLOCK.sub(lambda m: f"{m.group(1)}{blocks[m.group(2)]}\n{m.group(3)}", doc)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="exit 1 when a document is stale")
    mode.add_argument("--write", action="store_true", help="rewrite the documents in place")
    args = parser.parse_args(argv)
    fig1, fig2, fpr = (
        read_csv(str(RESULTS / name)) for name in ("figure1.csv", "figure2.csv", "fpr.csv")
    )
    report, blocks, all_passed = build_report(fig1, fig2, fpr)
    if not (args.check or args.write):
        print(report, end="")
        return 0 if all_passed else 1
    stale = []
    for path, text in ((REPORT, report), (EXPERIMENTS, splice(EXPERIMENTS.read_text(), blocks))):
        if path.read_text() != text:
            stale.append(path.name)
            if args.write:
                path.write_text(text)
    if stale and args.check:
        print(
            f"stale: {', '.join(stale)}; run: python benchmarks/paper/paper.py --write",
            file=sys.stderr,
        )
        return 1
    print(f"{'rewritten' if stale else 'current'}: {REPORT.name}, {EXPERIMENTS.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
