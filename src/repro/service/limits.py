"""Per-query execution limits and the outcome envelope.

A batch must survive its worst query: one pathological issuer (a huge
candidate set, a degenerate parameter combination) cannot be allowed to
stall the whole run. :func:`run_with_limits` wraps a single query
callable with

* a **timeout** — enforced pre-emptively via ``SIGALRM`` where that is
  possible (the main thread of a POSIX process, which covers a serial
  batch and every process-pool worker) and checked post-hoc elsewhere
  (the serve daemon's handler threads cannot be interrupted mid-query,
  so an overrunning query is completed but its result discarded and
  reported as a timeout). Either way the caller sees the same canonical outcome, so
  backends stay byte-comparable;
* a **bounded retry** — unexpected exceptions are retried up to
  ``retries`` times. Deterministic failures (:class:`GPSSNError`
  subclasses: unknown users, infeasible parameters) and timeouts are
  never retried: re-running them reproduces the failure and doubles the
  stall.

Every query — success or failure — lands in one :class:`QueryOutcome`
envelope (``result | timeout | error``), so a batch always returns
exactly one outcome per input query.
"""

from __future__ import annotations

import math
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from ..core.query import GPSSNAnswer, QueryStatistics
from ..exceptions import GPSSNError

#: Outcome statuses (the three arms of the envelope).
STATUS_OK = "ok"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class ExecutionLimits:
    """Per-query budget applied by every executor backend.

    ``timeout_sec=None`` disables the timeout; ``retries=0`` means one
    attempt only.
    """

    timeout_sec: Optional[float] = None
    retries: int = 0

    def __post_init__(self) -> None:
        if self.timeout_sec is not None and self.timeout_sec <= 0:
            raise ValueError(
                f"timeout_sec must be > 0 or None, got {self.timeout_sec}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")


class QueryTimeoutError(Exception):
    """Raised inside a worker when a query exceeds its time budget."""


@dataclass
class QueryOutcome:
    """The envelope one batch query resolves to.

    ``status`` is one of :data:`STATUS_OK` / :data:`STATUS_TIMEOUT` /
    :data:`STATUS_ERROR`; exactly the ``ok`` arm carries an answer.
    ``duration_sec`` and ``worker`` are measurement metadata — they vary
    run to run and are excluded from the canonical serialization so
    outcomes stay byte-comparable across backends and worker counts.
    ``request_id`` is the stable correlation id of the query (derived
    from the query content, see
    :func:`repro.service.batch.query_request_id`): the same query
    carries the same id whether it was answered by ``gpssn batch`` or
    by the ``gpssn serve`` daemon, so their logs correlate the same way.
    """

    index: int
    status: str = STATUS_OK
    answer: Optional[GPSSNAnswer] = None
    error_kind: str = ""
    error: str = ""
    attempts: int = 1
    duration_sec: float = 0.0
    worker: int = -1
    request_id: str = ""
    stats: Optional[QueryStatistics] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def replicated(self, index: int) -> "QueryOutcome":
        """A copy of this outcome re-addressed to a duplicate query.

        The ``request_id`` is kept: it identifies the query *content*,
        which is by construction identical for every duplicate position.
        """
        return QueryOutcome(
            index=index, status=self.status, answer=self.answer,
            error_kind=self.error_kind, error=self.error,
            attempts=self.attempts, duration_sec=self.duration_sec,
            worker=self.worker, request_id=self.request_id,
            stats=self.stats,
        )

    def to_dict(self, timing: bool = False) -> dict:
        """Plain-data form (JSONL line payload).

        The default is deterministic: identical queries answered by any
        backend at any worker count serialize identically (the
        ``request_id`` is content-derived, so it is deterministic too).
        ``timing`` adds the run-variant measurement fields.
        """
        doc: dict = {"index": self.index, "status": self.status}
        if self.request_id:
            doc["request_id"] = self.request_id
        if self.status == STATUS_OK and self.answer is not None:
            doc["found"] = self.answer.found
            if self.answer.found:
                doc["users"] = sorted(self.answer.users)
                doc["pois"] = sorted(self.answer.pois)
                doc["max_distance"] = (
                    None if math.isinf(self.answer.max_distance)
                    else round(self.answer.max_distance, 9)
                )
        elif self.status == STATUS_ERROR:
            doc["error_kind"] = self.error_kind
            doc["error"] = self.error
        if timing:
            doc["attempts"] = self.attempts
            doc["duration_sec"] = self.duration_sec
            doc["worker"] = self.worker
        return doc


def _alarm_supported() -> bool:
    """Pre-emptive timeouts need SIGALRM + the process's main thread."""
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


def _call_posthoc(fn: Callable[[], object], timeout_sec: float):
    """Run ``fn()`` to completion, then enforce the budget after the fact."""
    started = time.perf_counter()
    result = fn()
    if time.perf_counter() - started > timeout_sec:
        raise QueryTimeoutError(
            f"query exceeded {timeout_sec}s (detected post-hoc)"
        )
    return result


def call_with_timeout(fn: Callable[[], object], timeout_sec: Optional[float]):
    """Run ``fn()`` under the timeout; raises :class:`QueryTimeoutError`.

    Pre-emptive (``SIGALRM``) when the caller is the main thread of a
    POSIX process; otherwise the call runs to completion and the
    overrun is detected afterwards — the result is discarded either
    way. The ``gpssn serve`` daemon answers queries on handler threads,
    so its requests always take the post-hoc path; as a belt-and-braces
    measure the signal setup itself falling over (CPython raises
    ``ValueError`` for signal calls off the main thread — possible when
    ``threading.main_thread()`` misidentifies the main thread, e.g.
    under embedded interpreters) also falls back post-hoc instead of
    failing the query.
    """
    if timeout_sec is None:
        return fn()
    if not _alarm_supported():
        return _call_posthoc(fn, timeout_sec)

    def _raise_timeout(signum, frame):
        raise QueryTimeoutError(f"query exceeded {timeout_sec}s")

    try:
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
    except ValueError:
        return _call_posthoc(fn, timeout_sec)
    signal.setitimer(signal.ITIMER_REAL, timeout_sec)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_with_limits(
    fn: Callable[[], Tuple[GPSSNAnswer, QueryStatistics]],
    limits: ExecutionLimits,
    index: int,
    worker: int = -1,
    request_id: str = "",
) -> QueryOutcome:
    """Execute one query callable under ``limits``; never raises.

    ``fn`` returns ``(answer, stats)`` (the processor's contract). The
    returned envelope records the terminal status, the number of
    attempts consumed, and the total wall time across attempts;
    ``request_id`` is stamped on the envelope verbatim.
    """
    started = time.perf_counter()
    attempts = 0
    while True:
        attempts += 1
        try:
            answer, stats = call_with_timeout(fn, limits.timeout_sec)
            return QueryOutcome(
                index=index, status=STATUS_OK, answer=answer, stats=stats,
                attempts=attempts,
                duration_sec=time.perf_counter() - started, worker=worker,
                request_id=request_id,
            )
        except QueryTimeoutError as exc:
            return QueryOutcome(
                index=index, status=STATUS_TIMEOUT,
                error_kind=type(exc).__name__, error=str(exc),
                attempts=attempts,
                duration_sec=time.perf_counter() - started, worker=worker,
                request_id=request_id,
            )
        except GPSSNError as exc:
            # Deterministic domain failures: retrying reproduces them.
            return QueryOutcome(
                index=index, status=STATUS_ERROR,
                error_kind=type(exc).__name__, error=str(exc),
                attempts=attempts,
                duration_sec=time.perf_counter() - started, worker=worker,
                request_id=request_id,
            )
        except Exception as exc:  # noqa: BLE001 - envelope boundary
            if attempts <= limits.retries:
                continue
            return QueryOutcome(
                index=index, status=STATUS_ERROR,
                error_kind=type(exc).__name__, error=str(exc),
                attempts=attempts,
                duration_sec=time.perf_counter() - started, worker=worker,
                request_id=request_id,
            )
