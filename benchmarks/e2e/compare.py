#!/usr/bin/env python3
"""Compare two result documents of ``run.py``: ``compare.py BASE.json NEW.json``.

One row per (end-to-end metric, workload) with the base value, the new
value, the relative change, the metric's bound from ``BENCHMARK.json`` and
a verdict:

``better`` / ``worse``
    the new value is better / worse than the base by more than the bound;
``same``
    the change is within the bound;
``unresolved``
    the values sit within the bound of each other, but the spread between
    the segments of one of the runs is wider than the bound, so "no change"
    cannot be told from a change the noise hides.

``failed_share`` is compared in absolute terms (worse when it grows by more
than 0.001). Exit status is 1 when any row is ``worse``, else 0 — the same
code twice must exit 0 in both directions.

``--layers`` adds the per-layer metrics (no bound, no verdict): a changed
count-unit value between two runs of the same code is worth a look, since
counts are meant to repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from protocol import load_declaration

FAILED_SHARE_SLACK = 0.001


def relative_spread(entry: dict) -> Optional[float]:
    """Segment max minus min as a share of the value, when recorded."""
    if "seg_min" not in entry or not entry["value"]:
        return None
    return (entry["seg_max"] - entry["seg_min"]) / abs(entry["value"])


def relative_change(base: dict, new: dict) -> Optional[float]:
    """``new`` against ``base`` as a share of ``base``; ``None`` when either
    is ``null`` or the base is 0."""
    if not base["value"] or new["value"] is None:
        return None
    return (new["value"] - base["value"]) / abs(base["value"])


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    change = relative_change(base, new)
    if change is None:
        return "unresolved"
    gain = change if better == "higher" else -change
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    spreads = [s for s in (relative_spread(base), relative_spread(new)) if s is not None]
    if spreads and max(spreads) > bound:
        return "unresolved"
    return "same"


def fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.5g}"


def fmt_change(change: Optional[float]) -> str:
    return "n/a" if change is None else f"{change:+.1%}"


def compare(base: dict, new: dict, declaration: dict, layers: bool) -> List[List[str]]:
    rows: List[List[str]] = []
    for workload in (w["name"] for w in declaration["workloads"]):
        if workload not in base["workloads"] or workload not in new["workloads"]:
            continue
        b, n = base["workloads"][workload], new["workloads"][workload]
        for metric in declaration["end_to_end"]:
            be, ne = b["end_to_end"][metric["name"]], n["end_to_end"][metric["name"]]
            rows.append(
                [
                    workload,
                    metric["name"],
                    fmt(be["value"]),
                    fmt(ne["value"]),
                    fmt_change(relative_change(be, ne)),
                    f"{metric['bound']:.0%}",
                    verdict(be, ne, metric["better"], metric["bound"]),
                ]
            )
        grew = n["end_to_end"]["failed_share"]["value"] - b["end_to_end"]["failed_share"]["value"]
        rows.append(
            [
                workload,
                "failed_share",
                fmt(b["end_to_end"]["failed_share"]["value"]),
                fmt(n["end_to_end"]["failed_share"]["value"]),
                f"{grew:+.4f}",
                f"+{FAILED_SHARE_SLACK} abs",
                "worse" if grew > FAILED_SHARE_SLACK else "same",
            ]
        )
        if layers:
            for metric in declaration["per_layer"]:
                be, ne = b["per_layer"][metric["name"]], n["per_layer"][metric["name"]]
                if not be.get("on_path", True):
                    continue  # filled in from a miniature run of another workload
                delta = fmt_change(relative_change(be, ne))
                rows.append(
                    [workload, metric["name"], fmt(be["value"]), fmt(ne["value"]), delta, "-", "-"]
                )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--layers", action="store_true", help="also list per-layer metrics")
    args = parser.parse_args(argv)
    declaration = load_declaration()
    with open(args.base, encoding="utf-8") as fp:
        base = json.load(fp)
    with open(args.new, encoding="utf-8") as fp:
        new = json.load(fp)
    header = ["workload", "metric", "base", "new", "delta", "bound", "verdict"]
    rows = compare(base, new, declaration, args.layers)
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    worse = [row for row in rows if row[-1] == "worse"]
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"\n{len(worse)} worse, {unresolved} unresolved, {len(rows)} rows")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
