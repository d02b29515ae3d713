"""``repro.serve``: the concurrent multi-tenant query-serving front end.

TRAC's recency reports reach users through here: ``POST /v1/query`` on the
observatory server hands SQL + tenant id to a :class:`QueryService`, which
admits it through per-tenant quotas (:mod:`repro.serve.quota`) and a slot
gate (:mod:`repro.serve.pool`), runs it on the thread that read it against
a per-request copy-on-write snapshot, and returns rows + recency report + trace id in
one consistent response. :mod:`repro.serve.loadgen` is the open-loop load
generator the CI latency guard drives against it.
"""

from repro.serve.loadgen import LoadgenConfig, LoadResult, run_load
from repro.serve.pool import DeadlineExceeded, QueueFull, WorkerPool
from repro.serve.quota import QuotaExceeded, TenantQuotas, TokenBucket
from repro.serve.service import (
    DEFAULT_TENANT,
    QueryService,
    ServeConfig,
)

__all__ = [
    "QueryService",
    "ServeConfig",
    "DEFAULT_TENANT",
    "WorkerPool",
    "QueueFull",
    "DeadlineExceeded",
    "TenantQuotas",
    "TokenBucket",
    "QuotaExceeded",
    "LoadgenConfig",
    "LoadResult",
    "run_load",
]
