"""Exporters: Prometheus text format and a human-readable summary table.

(Span dumps are JSON lines through :mod:`repro.obs.events`' ``to_jsonl`` /
``from_jsonl``, one :meth:`Span.to_dict` per line.)

* :func:`prometheus_text` / :func:`parse_prometheus_text` — the Prometheus
  exposition format (``# HELP``/``# TYPE`` comments, label escaping,
  cumulative ``_bucket``/``_sum``/``_count`` series for histograms). The
  parser understands exactly what the renderer emits, giving tests a
  round-trip check.
* :func:`render_summary` — counters, gauges, histograms and per-span-name
  aggregates as aligned plain-text tables (what ``trac stats`` and the
  shell's ``.stats`` print).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import TracError
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.trace import Span

# -- Prometheus text format -------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry) -> str:
    """Render every instrument of ``registry`` in the exposition format."""
    lines: List[str] = []
    seen_header: set = set()
    for instrument in registry.collect():
        name = instrument.name
        if name not in seen_header:
            seen_header.add(name)
            help_text = registry.help_text(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
        labels = list(instrument.labels)
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(f"{name}{_render_labels(labels)} {_format_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            exemplars = instrument.exemplars()
            for bound, count in instrument.bucket_counts():
                bucket_labels = labels + [("le", _format_value(bound))]
                line = f"{name}_bucket{_render_labels(bucket_labels)} {count}"
                exemplar = exemplars.get(bound)
                if exemplar is not None:
                    trace_id, value = exemplar
                    # OpenMetrics exemplar: `# {labels} value` after the sample.
                    line += (
                        f' # {{trace_id="{_escape_label_value(trace_id)}"}}'
                        f" {_format_value(value)}"
                    )
                lines.append(line)
            lines.append(f"{name}_sum{_render_labels(labels)} {_format_value(instrument.sum)}")
            lines.append(f"{name}_count{_render_labels(labels)} {instrument.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_labels(text: str) -> Tuple[Tuple[str, str], ...]:
    """Parse ``k="v",...`` (the bit between braces) honouring escapes."""
    pairs: List[Tuple[str, str]] = []
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq]
        if text[eq + 1] != '"':
            raise TracError(f"malformed label value near {text[eq:]!r}")
        j = eq + 2
        value_chars: List[str] = []
        while True:
            ch = text[j]
            if ch == "\\":
                nxt = text[j + 1]
                value_chars.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            elif ch == '"':
                j += 1
                break
            else:
                value_chars.append(ch)
                j += 1
        pairs.append((key, "".join(value_chars)))
        if j < len(text) and text[j] == ",":
            j += 1
        i = j
    return tuple(pairs)


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse sample lines back into ``{(name, labels): value}``.

    Comments (``# HELP``/``# TYPE``) are skipped. Covers the subset of the
    format :func:`prometheus_text` emits; the tests read the exposition
    back with it (round trips, ``trac stats --prometheus``, ``/metrics``).
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # Drop a trailing OpenMetrics exemplar (` # {...} value`). Only cut
        # when what remains still ends in a sample value, so a label value
        # that happens to contain " # {" cannot be truncated.
        exemplar_at = stripped.rfind(" # {")
        if exemplar_at != -1:
            head = stripped[:exemplar_at].rstrip()
            tail_value = head.rsplit(" ", 1)[-1]
            try:
                float(tail_value.replace("+Inf", "inf").replace("-Inf", "-inf"))
            except ValueError:
                pass
            else:
                stripped = head
        try:
            if "{" in stripped:
                name, rest = stripped.split("{", 1)
                label_text, value_text = rest.rsplit("} ", 1)
                labels = _parse_labels(label_text)
            else:
                name, value_text = stripped.rsplit(" ", 1)
                labels = ()
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except (ValueError, IndexError) as exc:
            raise TracError(f"malformed Prometheus line {number}: {stripped!r}") from exc
        samples[(name, labels)] = value
    return samples


# -- structured snapshot ----------------------------------------------------


def metrics_snapshot(registry) -> List[Dict[str, object]]:
    """Every instrument of ``registry`` as a JSON-serializable dict.

    The flight recorder and ``/status`` endpoint embed this; unlike the
    Prometheus text form it keeps histogram buckets structured.
    """
    out: List[Dict[str, object]] = []
    for instrument in registry.collect():
        entry: Dict[str, object] = {
            "name": instrument.name,
            "kind": instrument.kind,
            "labels": dict(instrument.labels),
        }
        if isinstance(instrument, (Counter, Gauge)):
            entry["value"] = instrument.value
        elif isinstance(instrument, Histogram):
            entry["count"] = instrument.count
            entry["sum"] = instrument.sum
            entry["buckets"] = [
                [_format_value(bound), count]
                for bound, count in instrument.bucket_counts()
            ]
        out.append(entry)
    return out


# -- human-readable summary -------------------------------------------------


def aligned(
    headers: Sequence[str], rows: Sequence[Sequence[str]], indent: str = "", sep: str = "  "
) -> List[str]:
    """``headers``, a dashed rule and ``rows`` as lines of left-aligned
    columns ``sep`` apart (under a `` | `` separator the rule is joined
    psql-style, ``-+-``). Trailing padding is the caller's to strip."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [indent + sep.join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append(indent + sep.replace(" | ", "-+-").join("-" * w for w in widths))
    lines.extend(indent + sep.join(c.ljust(w) for c, w in zip(row, widths)) for row in rows)
    return lines


def _labels_str(labels: Sequence[Tuple[str, str]]) -> str:
    return ",".join(f"{k}={v}" for k, v in labels) or "-"


def span_name_aggregates(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per-span-name count/total/mean/min/max durations (seconds)."""
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        agg = out.setdefault(
            span.name,
            {"count": 0.0, "total": 0.0, "min": math.inf, "max": 0.0},
        )
        agg["count"] += 1
        agg["total"] += span.duration
        agg["min"] = min(agg["min"], span.duration)
        agg["max"] = max(agg["max"], span.duration)
    for agg in out.values():
        agg["mean"] = agg["total"] / agg["count"] if agg["count"] else 0.0
        if agg["min"] is math.inf:
            agg["min"] = 0.0
    return out


def render_summary(telemetry, max_spans: int = 0) -> str:
    """Counters, gauges, histograms and span aggregates as plain text.

    ``max_spans`` > 0 additionally renders the most recent ``max_spans``
    finished spans as an indented tree fragment.
    """
    if not telemetry.enabled:
        return "telemetry is disabled (enable with TRAC_TELEMETRY=1 or repro.obs.enable())"
    lines: List[str] = []

    counters = [i for i in telemetry.metrics.collect() if isinstance(i, Counter)]
    gauges = [i for i in telemetry.metrics.collect() if isinstance(i, Gauge)]
    histograms = [i for i in telemetry.metrics.collect() if isinstance(i, Histogram)]

    if counters or gauges:
        lines.append("counters and gauges:")
        rows = [
            (i.name, _labels_str(i.labels), _format_value(i.value))
            for i in counters + gauges
        ]
        lines.extend(aligned(("name", "labels", "value"), rows, "  "))

    if histograms:
        lines.append("")
        lines.append("histograms:")
        rows = []
        for h in histograms:
            rows.append(
                (
                    h.name,
                    _labels_str(h.labels),
                    str(h.count),
                    f"{h.mean:.6f}",
                    f"{h.sum:.6f}",
                )
            )
        lines.extend(aligned(("name", "labels", "count", "mean", "sum"), rows, "  "))

    spans = telemetry.tracer.finished_spans()
    if spans:
        lines.append("")
        lines.append("spans (by name):")
        rows = []
        for name, agg in sorted(span_name_aggregates(spans).items()):
            rows.append(
                (
                    name,
                    str(int(agg["count"])),
                    f"{agg['total'] * 1000:.3f}",
                    f"{agg['mean'] * 1000:.3f}",
                    f"{agg['min'] * 1000:.3f}",
                    f"{agg['max'] * 1000:.3f}",
                )
            )
        lines.extend(
            aligned(("span", "count", "total_ms", "mean_ms", "min_ms", "max_ms"), rows, "  ")
        )

    if max_spans > 0 and spans:
        lines.append("")
        lines.append(f"most recent spans (up to {max_spans}):")
        for root in telemetry.tracer.roots()[-max_spans:]:
            for span, depth in telemetry.tracer.walk(root):
                indent = "  " * (depth + 1)
                attrs = (
                    " " + json.dumps(span.attributes, sort_keys=True, default=str)
                    if span.attributes
                    else ""
                )
                lines.append(
                    f"{indent}{span.name}  {span.duration * 1000:.3f}ms{attrs}"
                )

    if not lines:
        return "telemetry is enabled but nothing has been recorded yet"
    return "\n".join(lines)
