"""Plain-text tables and charts, and the CSV files the sweep's records live in."""

from __future__ import annotations

import csv
import math
from typing import Dict, List, Sequence, Tuple


def format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.5f}"
    return str(value)


def ascii_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render rows as a boxed, column-aligned plain-text table."""
    formatted = [[format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in formatted:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    divider = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [divider]
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append(divider)
    for row in formatted:
        lines.append("| " + " | ".join(c.rjust(w) for c, w in zip(row, widths)) + " |")
    lines.append(divider)
    return "\n".join(lines)


def write_csv(path: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Dump results to CSV (for external plotting)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        writer.writerows(rows)


def _parsed(cell: str) -> object:
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def read_csv(path: str) -> List[Dict[str, object]]:
    """The records :func:`write_csv` wrote, numbers parsed back: a float
    written as its ``repr`` reads back as the same float."""
    with open(path, newline="") as handle:
        return [{k: _parsed(v) for k, v in row.items()} for row in csv.DictReader(handle)]


def rows_from_dicts(records: Sequence[Dict[str, object]], headers: Sequence[str]) -> List[List[object]]:
    """Project a list of dicts onto an ordered header list."""
    return [[record.get(h, "") for h in headers] for record in records]


#: Marker characters assigned to series, in declaration order.
_MARKERS = "ox+*#@%&"


def ascii_chart(
    series: Dict[str, List[Tuple[float, float]]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    log_x: bool = False,
    log_y: bool = False,
) -> str:
    """Render named (x, y) series as a character-grid chart.

    Matching the paper's figures, both axes can be logarithmic (Figure 1
    plots overhead against a data ratio swept by factors of ten). Points
    from different series landing on the same cell show the later series'
    marker. Returns a multi-line string.
    """
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"

    def tx(value: float) -> float:
        if log_x:
            return math.log10(max(value, 1e-12))
        return value

    def ty(value: float) -> float:
        if log_y:
            return math.log10(max(value, 1e-12))
        return value

    xs = [tx(x) for x, _ in points]
    ys = [ty(y) for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (name, pts) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in pts:
            column = round((tx(x) - x_lo) / x_span * (width - 1))
            row = round((ty(y) - y_lo) / y_span * (height - 1))
            grid[height - 1 - row][column] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    y_top = f"{10 ** y_hi:.3g}" if log_y else f"{y_hi:.3g}"
    y_bottom = f"{10 ** y_lo:.3g}" if log_y else f"{y_lo:.3g}"
    label_width = max(len(y_top), len(y_bottom))
    for i, row_cells in enumerate(grid):
        if i == 0:
            label = y_top.rjust(label_width)
        elif i == height - 1:
            label = y_bottom.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row_cells)}|")
    x_left = f"{10 ** x_lo:.3g}" if log_x else f"{x_lo:.3g}"
    x_right = f"{10 ** x_hi:.3g}" if log_x else f"{x_hi:.3g}"
    axis = "-" * width
    lines.append(f"{' ' * label_width} +{axis}+")
    gap = max(1, width - len(x_left) - len(x_right))
    lines.append(f"{' ' * label_width}  {x_left}{' ' * gap}{x_right}")
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"{' ' * label_width}  legend: {legend}")
    return "\n".join(lines)
