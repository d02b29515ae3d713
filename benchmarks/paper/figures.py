"""Series builders for every figure/table of the paper's evaluation.

* :func:`figure1_series` — the one sweep over ``data_ratio x num_sources =
  total``, and Figure 1: response-time overhead of the Focused,
  Focused-hardcoded and Naive methods for Q1–Q4;
* :func:`figure2_records` — Figure 2: absolute response times for the
  selective queries Q1 and Q3 with and without recency reporting, projected
  from the sweep's Focused cells (each cell is measured once);
* :func:`fpr_results` — the false-positive-rate numbers at the end of
  Section 5.2: measured exactly against the brute-force oracle at a small
  scale, plus the paper-scale closed forms.

Run as a script (``all`` with ``--csv-dir results/`` is the one command
behind the committed ``results/*.csv``: SQLite, 200,000 rows, 11 runs per
cell; ``paper.py --write`` renders the documents from those files)::

    python benchmarks/paper/figures.py all --csv-dir results/
    python benchmarks/paper/figures.py fig1 --total-rows 2000 --runs 2 --plot
    python benchmarks/paper/figures.py fig2
    python benchmarks/paper/figures.py fpr
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from paper_harness import RUNS, false_positive_rate, measure_methods, naive_fpr
from paper_tables import ascii_chart, ascii_table, rows_from_dicts, write_csv
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.core.bruteforce import brute_force_relevant_sources
from repro.core.report import RecencyReporter
from repro.sqlparser.parser import parse_query
from repro.sqlparser.resolver import resolve
from repro.workload import WorkloadConfig, loaded_backend, paper_queries
from repro.workload.sweep import SweepConfig, sweep_points

#: Default Activity row total for the sweep (the paper used 10,000,000).
DEFAULT_TOTAL_ROWS = 200_000

_BACKENDS: Dict[str, Callable] = {"sqlite": SQLiteBackend, "memory": MemoryBackend}

#: The cells Figure 2 plots: the selective queries under the auto-generated
#: Focused report (what ``fig2`` alone has to sweep), and its columns with
#: the Figure 1 column each is read from.
FIG2_QUERIES = ("Q1", "Q3")
FIG2_METHOD = "focused"
_FIG2_COLUMNS = {
    "query": "query",
    "data_ratio": "data_ratio",
    "num_sources": "num_sources",
    "without_report_s": "t_plain_s",
    "with_report_s": "t_report_s",
}


def figure1_series(
    total_rows: int = DEFAULT_TOTAL_ROWS,
    runs: int = RUNS,
    backend_kind: str = "sqlite",
    progress: Optional[Callable[[str], None]] = None,
    queries: Optional[Sequence[str]] = None,
    methods: Optional[List[str]] = None,
) -> List[Dict[str, object]]:
    """The sweep: one record per (query, sweep point, method), each sweep
    point generated and loaded once. ``queries`` / ``methods`` narrow it
    (default: Q1–Q4, all three methods — the rows of Figure 1)."""
    say = progress or (lambda message: None)
    records: List[Dict[str, object]] = []
    for config in sweep_points(SweepConfig(total_rows=total_rows)):
        say(f"sweep: ratio={config.data_ratio} sources={config.num_sources}")
        backend = loaded_backend(config, _BACKENDS[backend_kind])
        reporter = RecencyReporter(backend)
        point = {"data_ratio": config.data_ratio, "num_sources": config.num_sources}
        for name, sql in paper_queries(config.num_sources).items():
            if queries is not None and name not in queries:
                continue
            for m in measure_methods(reporter, sql, runs=runs, methods=methods).values():
                records.append(
                    {"query": name, **point, **m.to_dict(), "backend": backend_kind, "runs": runs}
                )
        backend.close()
    return records


def figure2_records(fig1_records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Rows of Figure 2: absolute response times for Q1 and Q3, with and
    without the (auto-generated, Focused) recency report — the sweep's own
    cells, renamed."""
    return [
        {column: record[cell] for column, cell in _FIG2_COLUMNS.items()}
        for record in fig1_records
        if record["query"] in FIG2_QUERIES and record["method"] == FIG2_METHOD
    ]


def fpr_results(
    num_sources: int = 200,
    data_ratio: int = 10,
    paper_sources: int = 100_000,
) -> List[Dict[str, object]]:
    """The fpr table: measured (brute-force ground truth) at a small scale
    plus the paper-scale closed forms.

    The measured part uses the memory backend because the brute-force
    oracle runs on the mini engine; the Focused sets come from the full
    reporting pipeline, so this is an end-to-end precision check.
    """
    backend = loaded_backend(
        WorkloadConfig(num_sources=num_sources, data_ratio=data_ratio), MemoryBackend
    )
    reporter = RecencyReporter(backend)

    records: List[Dict[str, object]] = []
    for name, sql in paper_queries(num_sources).items():
        resolved = resolve(parse_query(sql), backend.catalog)
        exact = brute_force_relevant_sources(backend.db, resolved)
        focused = reporter.report(sql, method="focused").relevant_source_ids
        naive = reporter.report(sql, method="naive").relevant_source_ids
        # Paper-scale closed form: Q1/Q3 have 6 relevant sources; Q2/Q4 have
        # all but the 6 excluded ones.
        paper_relevant = 6 if name in ("Q1", "Q3") else paper_sources - 6
        records.append(
            {
                "query": name,
                "relevant_exact": len(exact),
                "fpr_focused": false_positive_rate(focused, exact),
                "fpr_naive": false_positive_rate(naive, exact),
                "paper_scale_fpr_naive": naive_fpr(paper_sources, paper_relevant),
            }
        )
    return records


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

FIG1_HEADERS = [
    "query",
    "data_ratio",
    "num_sources",
    "method",
    "t_plain_s",
    "t_report_s",
    "overhead_pct",
    "relevant_sources",
    "phase_parse_generate_s",
    "phase_user_query_s",
    "phase_recency_query_s",
    "phase_statistics_s",
    "cache_query_hits",
    "cache_query_misses",
    "cache_plan_hits",
    "backend",
    "runs",
]
FIG2_HEADERS = list(_FIG2_COLUMNS)
FPR_HEADERS = [
    "query",
    "relevant_exact",
    "fpr_focused",
    "fpr_naive",
    "paper_scale_fpr_naive",
]


def _emit(
    args: argparse.Namespace,
    name: str,
    title: str,
    records: List[Dict[str, object]],
    headers: List[str],
    plot: Optional[Callable[[List[Dict[str, object]]], str]] = None,
) -> None:
    """Print one table; write it as ``<name>.csv`` under ``--csv-dir`` and
    print its chart under ``--plot``."""
    print(f"\n== {title} ==")
    print(ascii_table(headers, rows_from_dicts(records, headers)))
    if args.csv_dir:
        os.makedirs(args.csv_dir, exist_ok=True)
        path = os.path.join(args.csv_dir, f"{name}.csv")
        write_csv(path, headers, rows_from_dicts(records, headers))
        print(f"(written to {path})")
    if args.plot and plot is not None:
        print()
        print(plot(records))


def plot_figure1(records: List[Dict[str, object]]) -> str:
    """Render Figure 1 as one log-log ASCII panel per query, matching the
    paper's four-panel layout."""
    panels: List[str] = []
    for query in ("Q1", "Q2", "Q3", "Q4"):
        series: Dict[str, List[Tuple[float, float]]] = {}
        for record in records:
            if record["query"] != query:
                continue
            method = str(record["method"])
            # Clamp at a tiny positive floor so log scale accepts ~0/negative
            # (noise) overheads.
            overhead = max(float(record["overhead_pct"]), 0.01)  # type: ignore[arg-type]
            series.setdefault(method, []).append(
                (float(record["data_ratio"]), overhead)  # type: ignore[arg-type]
            )
        panels.append(
            ascii_chart(
                series,
                title=f"{query}: overhead (%) vs data ratio (log-log)",
                log_x=True,
                log_y=True,
            )
        )
    return "\n\n".join(panels)


def plot_figure2(records: List[Dict[str, object]]) -> str:
    panels: List[str] = []
    for query in FIG2_QUERIES:
        series: Dict[str, List[Tuple[float, float]]] = {"without": [], "with": []}
        for record in records:
            if record["query"] != query:
                continue
            ratio = float(record["data_ratio"])  # type: ignore[arg-type]
            series["without"].append((ratio, float(record["without_report_s"])))  # type: ignore[arg-type]
            series["with"].append((ratio, float(record["with_report_s"])))  # type: ignore[arg-type]
        panels.append(
            ascii_chart(
                series,
                title=f"{query}: response time (s) vs data ratio (log-log)",
                log_x=True,
                log_y=True,
            )
        )
    return "\n\n".join(panels)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures/tables.")
    parser.add_argument("target", choices=["fig1", "fig2", "fpr", "all"])
    parser.add_argument("--total-rows", type=int, default=DEFAULT_TOTAL_ROWS)
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--backend", choices=sorted(_BACKENDS), default="sqlite")
    parser.add_argument("--fpr-sources", type=int, default=200)
    parser.add_argument("--csv-dir", default=None)
    parser.add_argument("--plot", action="store_true", help="also render ASCII charts")
    args = parser.parse_args(argv)

    say = lambda message: print(f"  ... {message}", file=sys.stderr)  # noqa: E731

    if args.target != "fpr":
        # One sweep behind both figures; fig2 alone needs only its own cells.
        cells = {"queries": FIG2_QUERIES, "methods": [FIG2_METHOD]} if args.target == "fig2" else {}
        sweep = figure1_series(args.total_rows, args.runs, args.backend, say, **cells)
    if args.target in ("fig1", "all"):
        title = "Figure 1: recency-reporting overhead (%) vs data ratio"
        _emit(args, "figure1", title, sweep, FIG1_HEADERS, plot_figure1)
    if args.target in ("fig2", "all"):
        title = "Figure 2: response times for Q1/Q3 with and without recency report"
        _emit(args, "figure2", title, figure2_records(sweep), FIG2_HEADERS, plot_figure2)
    if args.target in ("fpr", "all"):
        title = "False positive rates (measured vs paper-scale closed form)"
        _emit(args, "fpr", title, fpr_results(num_sources=args.fpr_sources), FPR_HEADERS)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
