"""The ``trac top`` dashboard: live per-source recency at a glance.

A terminal dashboard in the spirit of ``top``: one row per source showing
its state, last reported recency, current age, the z-score against the
fleet, SLO burn, the quality score (``qual``), a unicode sparkline of the
recent lag series, the ingest-poll latency distribution (p50/p95
milliseconds), and the supervisor's retry/restart/breaker counters. It
renders from a plain **status document** — the JSON the observatory server
serves at ``/status`` — so the one renderer works in-process and
out-of-process (``trac top --url`` fetching over HTTP via
:func:`fetch_status`).

**Status rows.** :func:`source_rows` is the only producer of the
document's ``sources``: a deployment supplies where recency comes from and
its clock, ``z`` / ``state`` / ``quality`` are the report's own z-score
split and quality model — the page says what a report would — and every
other column is read from the source's record in the deployment's
:class:`~repro.core.sources.SourceRegistry`, when it has one.

The renderer is a pure function of the status document (easy to test,
no terminal required); :func:`run_top` adds the poll/clear/redraw loop.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Collection, List, Mapping, Optional, Sequence

from repro.core.quality import QualityModel
from repro.core.sources import DEGRADED
from repro.core.statistics import format_interval, sorted_columns, split_columns
from repro.errors import TracError
from repro.obs.export import aligned

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Columns of the lag sparkline ``trac top`` draws per source.
SPARK_WIDTH = 16

#: ANSI: clear screen and home the cursor.
CLEAR = "\x1b[2J\x1b[H"

_STATE_ORDER = {"degraded": 0, "restarting": 1, "backing_off": 2, "healthy": 3}


def sparkline(values: Sequence[float], width: int = SPARK_WIDTH) -> str:
    """Render ``values`` (most recent last) as a fixed-width sparkline.

    The last ``width`` values are scaled to the min..max of that window;
    a flat series renders as all-low, an empty one as spaces.
    """
    if width <= 0:
        return ""
    tail = list(values)[-width:]
    if not tail:
        return " " * width
    lo, hi = min(tail), max(tail)
    span = hi - lo
    chars: List[str] = []
    for v in tail:
        if span <= 0:
            chars.append(SPARK_CHARS[0])
        else:
            idx = int((v - lo) / span * (len(SPARK_CHARS) - 1))
            chars.append(SPARK_CHARS[idx])
    return "".join(chars).rjust(width)


# -- status documents -------------------------------------------------------


def source_rows(
    recency: Mapping[str, float],
    now: float,
    sources=None,
    unknown: Collection[str] = (),
) -> List[dict]:
    """The ``sources`` rows of a ``/status`` document, whatever the deployment.

    ``recency`` maps every source that has reported to its recency; ``now``
    is the deployment's clock (the newest heartbeat where it has none).
    ``z`` comes from the report's own ``split_columns`` (positive is staler)
    and ``quality`` from its ``QualityModel.score_sources`` at ``now``.
    ``sources`` is the deployment's registry, read once: ``state`` is the
    record's status when a supervisor ever marked the source (the row then
    carries the entry as ``health``), else ``exceptional`` / ``healthy`` from
    the split, or ``unknown`` for the ids in ``unknown`` (a dead shard's).
    A record adds the columns it has something to say in: its SLO standing
    once lag was sampled, its supervisor's counters once supervised, its
    poll-latency ring.
    """
    known = sources.snapshot() if sources is not None else {}
    reported = sorted_columns(recency)
    split = split_columns(*reported)
    outliers = set(split.exceptional_ids)
    degraded = {sid for sid, record in known.items() if record.status == DEGRADED}
    model = QualityModel(sources.half_life) if sources is not None else QualityModel()
    scores = model.score_sources(*reported, outliers, degraded, now=now)
    rows: List[dict] = []
    for sid in sorted(set(recency).union(known)):
        record, score, rec = known.get(sid), scores.get(sid), recency.get(sid)
        verdict = "unknown" if sid in unknown else "exceptional" if sid in outliers else "healthy"
        row = {
            "id": sid,
            "state": verdict,
            "recency": rec,
            "age": score["staleness"] if score is not None else None,
            "z": (split.mean - rec) / split.stddev if rec is not None and split.stddev else 0.0,
            "quality": score["quality"] if score is not None else None,
        }
        if record is not None:
            if record.status is not None:
                row.update(state=record.status, health=record.health())
            if record.lags:
                standing = sources.standing(record)
                row.update(lag=standing["latest"], lag_p95=standing["p95"], burn=standing["burn"])
                row["lag_series"] = [lag for _, lag in record.lags]
            if record.breaker is not None:
                row.update(
                    retries=record.retries, restarts=record.restarts, breaker=record.breaker
                )
            row["poll_ms_series"] = list(record.poll_ms)
        rows.append(row)
    return rows


def fetch_status(url: str, timeout: float = 5.0) -> dict:
    """GET the ``/status`` document from an observatory server."""
    from urllib.request import urlopen  # not paid by the simulator, which imports source_rows

    target = url.rstrip("/")
    if not target.endswith("/status"):
        target += "/status"
    try:
        with urlopen(target, timeout=timeout) as response:
            body = response.read().decode("utf-8")
    except OSError as exc:
        raise TracError(f"cannot reach observatory at {target}: {exc}") from exc
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise TracError(f"observatory at {target} returned non-JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TracError(f"observatory at {target} returned a non-object document")
    return doc


# -- rendering --------------------------------------------------------------


def _fmt_poll_ms(series: Sequence[float]) -> str:
    """Summarise a poll-latency series as ``p50/p95`` milliseconds.

    Old status documents (pre-tracing) have no ``poll_ms_series`` key;
    they render as ``-`` rather than erroring, keeping ``trac top``
    backward compatible with older observatories.
    """
    values = sorted(series)
    if not values:
        return "-"
    p50 = values[int(0.50 * (len(values) - 1))]
    p95 = values[int(0.95 * (len(values) - 1))]
    return f"{p50:.2f}/{p95:.2f}"


def render_top(status: dict) -> str:
    """Render one dashboard frame from a status document."""
    lines: List[str] = []
    now = status.get("now")
    slo = status.get("slo")
    header = "trac top"
    if now is not None:
        header += f" — t={now:g}s"
    incremental = status.get("incremental")
    if incremental:
        # Older observatories don't send this block; omit the segment then.
        hit_rate = incremental.get("hit_rate", 0.0) or 0.0
        header += f" — inc {hit_rate * 100:.0f}% hit ({incremental.get('entries', 0)} sets)"
    if slo:
        breached = slo.get("breached") or []
        verdict = (
            f"SLO BREACHED ({', '.join(breached)})" if breached else "SLO ok"
        )
        header += (
            f" — p95<{slo.get('target_p95'):g}s budget={slo.get('budget'):g} "
            f"worst_burn={slo.get('worst_burn', 0.0):.2f} — {verdict}"
        )
    lines.append(header)

    serving = status.get("serving")
    if serving:
        # The observatory injects this block when a query service is wired
        # (req/s and p99 come from the trac_serve_request_seconds histogram).
        requests = serving.get("requests") or {}
        p99 = serving.get("p99_ms")
        rejected = (
            requests.get("rejected_quota", 0)
            + requests.get("rejected_inflight", 0)
            + requests.get("rejected_queue", 0)
        )
        p99_text = f"{p99:.1f}ms" if p99 is not None else "-"
        lines.append(
            f"serve: {serving.get('req_per_s', 0.0):g} req/s"
            f"  p99={p99_text}"
            f"  ok={requests.get('ok', 0)}"
            f"  429={rejected}"
            f"  deadline={requests.get('deadline', 0)}"
            f"  err={requests.get('error', 0)}"
            f"  inflight={serving.get('inflight', 0)}"
            f"  queue={serving.get('queue_depth', 0)}/{serving.get('queue_capacity', 0)}"
        )

    federation = status.get("federation")
    if federation:
        # The sharded simulate path injects this block; missing shards and
        # open breakers are the partial-report early warning.
        missing = federation.get("missing") or []
        open_breakers = sorted(
            sid
            for sid, state in (federation.get("breakers") or {}).items()
            if state != "closed"
        )
        line = (
            f"shards: {federation.get('shards_ok', 0)}"
            f"/{federation.get('shards_total', 0)} ok"
            f"  reports={federation.get('reports_total', 0)}"
            f"  partial={federation.get('partial_reports', 0)}"
        )
        if missing:
            line += f"  MISSING: {', '.join(missing)}"
        if open_breakers:
            line += f"  breakers: {', '.join(open_breakers)}"
        lines.append(line)

    sources = status.get("sources") or []
    if not sources:
        lines.append("  (no sources reporting yet)")
        return "\n".join(lines) + "\n"

    headers = (
        "source", "state", "recency", "age", "z", "burn", "qual",
        "lag " + "·" * (SPARK_WIDTH - 4), "poll ms", "retry", "restart", "breaker",
    )
    rows: List[tuple] = []
    ordered = sorted(
        sources,
        key=lambda s: (_STATE_ORDER.get(s.get("state", "healthy"), 9), s.get("id", "")),
    )
    for src in ordered:
        recency, age = src.get("recency"), src.get("age")
        burn, quality = src.get("burn"), src.get("quality")
        rows.append(
            (
                str(src.get("id", "?")),
                str(src.get("state", "?")),
                f"{recency:g}" if recency is not None else "-",
                format_interval(age) if age is not None else "-",
                f"{src.get('z', 0.0):+.2f}",
                f"{burn:.2f}" if burn is not None else "-",
                f"{quality:.2f}" if quality is not None else "-",
                sparkline(src.get("lag_series") or []),
                _fmt_poll_ms(src.get("poll_ms_series") or []),
                str(src.get("retries", 0)),
                str(src.get("restarts", 0)),
                str(src.get("breaker", "-")),
            )
        )
    lines.extend(line.rstrip() for line in aligned(headers, rows))
    return "\n".join(lines) + "\n"


def run_top(
    fetch: Callable[[], dict],
    interval: float = 2.0,
    iterations: Optional[int] = None,
    write: Optional[Callable[[str], object]] = None,
    clear: bool = True,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """The poll/redraw loop behind ``trac top``.

    ``fetch`` returns a status document each frame; ``iterations=None``
    loops until interrupted. Returns the number of frames rendered.
    """
    if write is None:
        write = sys.stdout.write
    frames = 0
    try:
        while iterations is None or frames < iterations:
            try:
                status = fetch()
            except TracError as exc:
                write(f"trac top: {exc}\n")
                break
            if clear:
                write(CLEAR)
            write(render_top(status))
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
