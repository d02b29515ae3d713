"""``repro.obs`` — self-instrumentation for the TRAC reproduction.

The paper's whole point is *reporting* on a system you cannot fully
control; this package applies the same discipline to the reproduction
itself. Three layers, no third-party dependencies:

* :mod:`repro.obs.trace` — hierarchical spans (a context-manager API,
  monotonic clocks, per-span attributes) collected by a
  thread-safe in-process :class:`Tracer`, carrying 128-bit trace ids
  that cross process boundaries as W3C ``traceparent`` headers
  (:class:`SpanContext`, :func:`inject_context`, :func:`extract_context`);
* :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  histograms in a :class:`MetricsRegistry`;
* :mod:`repro.obs.export` — Prometheus text exposition and the
  human-readable :func:`render_summary` table;
* :mod:`repro.obs.events` — the structured, trace-correlated event log
  (ring-buffered, with listener fan-out) and the JSON-lines writer and
  parser that dump events and spans alike;
* :mod:`repro.obs.flight` — the anomaly flight recorder (timestamped
  JSON dumps of recent events + spans + metrics on trigger events);
* :mod:`repro.obs.server` — a dependency-free threaded HTTP server
  exposing ``/metrics``, ``/healthz``, ``/spans``, ``/events`` and
  ``/status`` (not imported here, to keep ``import repro`` light; a
  :class:`repro.deploy.Deployment` starts it);
* :mod:`repro.obs.dashboard` — the ``trac top`` ANSI dashboard.

:mod:`repro.obs.instrument` glues it together: a :class:`Telemetry`
facade, a process-wide default (``Telemetry(enabled=False)`` unless
enabled), the instrument table (``instrument.INSTRUMENTS`` — every metric
declared once with kind, labels, help and buckets) and the recorders the
instrumented subsystems call: ``tel.count``, ``tel.observe``, ``tel.set``
and ``tel.emit``.

Telemetry is **off by default** and the disabled path costs one attribute
load plus a branch — every recording site sits under ``if tel.enabled:``
(bounded by ``tools/check_telemetry_overhead.py``).
Enable it per process::

    from repro import obs
    tel = obs.enable()          # or: export TRAC_TELEMETRY=1
    ... run reports ...
    print(obs.render_summary(tel))

or per component, by passing ``telemetry=Telemetry()`` to
:class:`~repro.core.report.RecencyReporter`, a backend, or
:class:`~repro.core.monitor.RecencyMonitor`. See docs/OBSERVABILITY.md.
"""

from repro.obs.trace import Tracer, extract_context, inject_context
from repro.obs.metrics import MetricsRegistry
from repro.obs.instrument import (
    NULL_TELEMETRY,
    Telemetry,
    disable,
    enable,
    get_default,
    resolve,
    set_default,
)
from repro.obs.export import (
    metrics_snapshot,
    parse_prometheus_text,
    prometheus_text,
    render_summary,
    span_name_aggregates,
)
from repro.obs.events import from_jsonl, to_jsonl, write_jsonl


__all__ = [
    "Tracer",
    "inject_context",
    "extract_context",
    "MetricsRegistry",
    "Telemetry",
    "NULL_TELEMETRY",
    "enable",
    "disable",
    "get_default",
    "set_default",
    "resolve",
    "prometheus_text",
    "parse_prometheus_text",
    "render_summary",
    "span_name_aggregates",
    "to_jsonl",
    "from_jsonl",
    "write_jsonl",
    "metrics_snapshot",
]
