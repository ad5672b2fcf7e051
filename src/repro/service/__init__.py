"""Query service: plan, limit, execute, and serve GP-SSN query batches.

* :mod:`repro.service.batch` — batch planning (dedupe identical
  queries, shard unique queries by issuer locality) and the stable
  content-derived :func:`query_request_id` correlation ids;
* :mod:`repro.service.limits` — per-query timeout + bounded retry and
  the ``result | timeout | error`` :class:`QueryOutcome` envelope;
* :mod:`repro.service.executor` — :class:`BatchQueryExecutor` with the
  ``serial`` / ``process`` backends and the picklable
  :class:`NetworkSnapshot` that gives every worker warm state;
* :mod:`repro.service.protocol` — the JSONL query/outcome wire format
  shared by ``gpssn batch`` and the daemon;
* :mod:`repro.service.server` — the ``gpssn serve`` daemon: a warm
  executor with admission control plus the live observability plane
  (``/metrics``, ``/healthz``, ``/readyz``, ``/status``, request
  tracing);
* :mod:`repro.service.dashboard` — the ``/status`` page renderer.
"""

from .batch import (
    BatchPlan,
    PlanItem,
    plan_batch,
    query_key,
    query_request_id,
)
from .executor import (
    BACKENDS,
    BatchQueryExecutor,
    NetworkSnapshot,
    ShardResult,
    WorkerState,
)
from .limits import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    ExecutionLimits,
    QueryOutcome,
    QueryTimeoutError,
    call_with_timeout,
    run_with_limits,
)
from .protocol import (
    BATCH_LINE_KEYS,
    ProtocolError,
    outcome_lines,
    parse_query_doc,
    parse_query_lines,
)

__all__ = [
    "BACKENDS",
    "BATCH_LINE_KEYS",
    "BatchPlan",
    "BatchQueryExecutor",
    "ExecutionLimits",
    "NetworkSnapshot",
    "PlanItem",
    "ProtocolError",
    "QueryOutcome",
    "QueryTimeoutError",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "ShardResult",
    "WorkerState",
    "call_with_timeout",
    "outcome_lines",
    "parse_query_doc",
    "parse_query_lines",
    "plan_batch",
    "query_key",
    "query_request_id",
    "run_with_limits",
]
