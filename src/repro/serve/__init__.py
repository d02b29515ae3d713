"""``repro.serve``: the concurrent multi-tenant query-serving front end.

TRAC's recency reports reach users through here: ``POST /v1/query`` on the
observatory server hands SQL + tenant id to a :class:`QueryService`, which
admits it through per-tenant quotas (:mod:`repro.serve.quota`) and a slot
gate (:mod:`repro.serve.pool`), runs it on the thread that read it against
a per-request copy-on-write snapshot, and returns rows + recency report + trace id in
one consistent response. ``tools/loadgen.py`` is the open-loop load
generator the latency guard (``tools/check_serve_latency.py``) drives
against it.
"""

from repro.serve.service import QueryService, ServeConfig

__all__ = ["QueryService", "ServeConfig"]
