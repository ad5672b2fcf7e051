"""The ``gpssn serve`` daemon: a warm batch executor behind a live
observability plane.

This is the step from "batch tool" to "system serving traffic": one
:class:`~repro.service.executor.BatchQueryExecutor` held open behind an
HTTP front end with the operational surface a long-lived service needs.
Every request runs through it as one shard: on the ``serial`` backend
inline on its handler thread, one request at a time on the one warm
in-process worker; on ``process`` in the warm pool, one request per
worker process.

``POST /query``
    JSONL body, one query object per line — the *same* schema as
    ``gpssn batch`` (see :mod:`repro.service.protocol`) — answered with
    one canonical JSONL outcome per line. Byte-identical to what
    ``gpssn batch``/``gpssn query`` produce for the same bundle, which
    CI enforces. ``?trace=1`` runs the request with span + funnel
    capture and stores the trace for ``GET /trace/<request_id>``.

``GET /metrics``
    Prometheus text exposition over a point-in-time
    :class:`~repro.obs.registry.MetricsSnapshot` of the long-lived
    registry: monotone counters (never reset mid-flight), queue-depth
    gauge, ``process_uptime_seconds``, rolling-window latency
    histograms (p50/p95/p99 over recent traffic), and — with
    ``--explain`` — per-rule pruning funnel counters.

``GET /healthz`` / ``GET /readyz``
    Liveness (the process answers) vs readiness (the frozen arena is
    attached and every worker is warm). Readiness flips to 503 again
    during shutdown so load balancers drain before the port closes.

``GET /status``
    The dashboard: pruning funnel, per-phase latency breakdown,
    admission/backpressure counters, and recent slow queries — HTML by
    default, ``?format=text`` for terminals
    (:mod:`repro.service.dashboard`).

Every request carries a correlation ``request_id`` (honoring an
``X-Request-Id`` header) that is threaded through the structured JSONL
access log, the recorded spans of traced requests, error responses, and
the ``X-Request-Id`` response header; each query line additionally
carries its content-derived
:func:`~repro.service.batch.query_request_id`, the same id ``gpssn
batch`` emits — a slow query can be chased from access log to span tree
to funnel rule counts, across entry points.

Admission control bounds the damage a traffic spike can do: at most
``workers + max_queue`` requests are in the house at once; the rest see
``429`` with ``Retry-After`` instead of stacking up unboundedly. Every
query runs under the per-request timeout envelope of
:mod:`repro.service.limits` — serial requests run on handler threads
and use its post-hoc path, so timeouts degrade to ``timeout`` outcomes
without signals.

Stdlib only (``http.server`` threading front end); no new hard deps.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from ..exceptions import InvalidParameterError
from ..network import SpatialSocialNetwork
from ..obs import (
    ExplainRecorder,
    MetricsRegistry,
    ProfileReport,
    Recorder,
    SamplingProfiler,
    TraceContext,
    process_rss_bytes,
    prometheus_text,
)
from .batch import BatchPlan, plan_batch
from .executor import (
    BACKENDS,
    BatchQueryExecutor,
    NetworkSnapshot,
    fan_out_outcomes,
)
from .limits import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ExecutionLimits,
    QueryOutcome,
)
from .protocol import ProtocolError, outcome_lines, parse_query_lines

__all__ = [
    "GPSSNHTTPServer",
    "GPSSNService",
    "ProfilerBusyError",
    "ServerConfig",
    "ServiceOverloadedError",
    "create_server",
    "serve",
]


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``gpssn serve`` needs beyond the bundle itself."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Process-pool size; the serial backend always runs one worker.
    workers: int = 2
    backend: str = "serial"
    #: Requests allowed to wait beyond the ones actively executing;
    #: request workers + max_queue + 1 and you get a 429.
    max_queue: int = 16
    #: Per-query time budget (the limits envelope); None = unlimited.
    timeout_sec: Optional[float] = 30.0
    retries: int = 0
    #: Reject larger POST bodies with 413 before parsing.
    max_body_bytes: int = 4 * 1024 * 1024
    default_max_groups: Optional[int] = None
    #: Structured JSONL access log path (None = in-memory ring only).
    access_log_path: Optional[str] = None
    #: Queries slower than this land in the slow-query ring on /status.
    slow_query_sec: float = 0.25
    recent_ring_size: int = 64
    trace_ring_size: int = 32
    #: Rolling-window width for the /metrics latency percentiles.
    window_sec: float = 300.0
    #: Per-rule funnel accounting in every worker. Works on *every*
    #: backend: workers keep private funnels whose tallies ride each
    #: shard's metrics delta back to the parent's merged recorder.
    explain: bool = False
    #: Span capture in workers so outcomes carry per-phase times.
    phase_timing: bool = True
    #: Head-sample this fraction of requests for tracing (deterministic
    #: in the request id; ``?trace=1`` always traces regardless).
    trace_sample_rate: float = 0.0
    #: Expose ``GET /debug/profile?seconds=N`` (the sampling profiler).
    profile_endpoint: bool = False

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown serve backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.max_queue < 0:
            raise InvalidParameterError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )
        if not self.window_sec > 0:
            raise InvalidParameterError(
                f"window_sec must be > 0, got {self.window_sec}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise InvalidParameterError(
                f"trace_sample_rate must be in [0, 1], got "
                f"{self.trace_sample_rate}"
            )


class ServiceOverloadedError(Exception):
    """Admission control refused the request (the 429 arm)."""


class DynamicUnavailableError(Exception):
    """Dynamic endpoints need a live network (not a frozen arena)."""


class ProfilerBusyError(Exception):
    """Another ``/debug/profile`` run is in progress (the 409 arm)."""


class _LockedExplain:
    """A thread-safe facade over the daemon's cumulative
    :class:`ExplainRecorder`, the source of ``/metrics``' per-rule counts.

    Handler threads absorb each finished shard's shipped funnel delta
    into it concurrently, and the dynamic plane's processor records into
    it directly; the recorder itself is plain dict-and-int bookkeeping,
    so every caller serializes here.
    """

    active = True

    def __init__(self) -> None:
        self._inner = ExplainRecorder()
        self._lock = threading.Lock()

    def visit(self, *args, **kwargs) -> None:
        with self._lock:
            self._inner.visit(*args, **kwargs)

    def prune(self, *args, **kwargs) -> None:
        with self._lock:
            self._inner.prune(*args, **kwargs)

    def survive(self, *args, **kwargs) -> None:
        with self._lock:
            self._inner.survive(*args, **kwargs)

    def prune_batch(self, *args, **kwargs) -> None:
        with self._lock:
            self._inner.prune_batch(*args, **kwargs)

    def clear(self) -> None:
        with self._lock:
            self._inner.clear()

    def iter_phases(self):
        with self._lock:
            return list(self._inner.iter_phases())

    def as_dict(self):
        with self._lock:
            return self._inner.as_dict()

    def rule_counts(self):
        with self._lock:
            return self._inner.rule_counts()

    def absorb(self, phases_doc):
        """Merge one worker's shipped funnel delta (delta plane)."""
        with self._lock:
            self._inner.absorb(phases_doc)


@dataclass
class RequestResult:
    """What one executed ``POST /query`` resolves to."""

    outcomes: List[QueryOutcome]
    duration_sec: float
    traced: bool = False


@dataclass
class _TraceRecord:
    """One traced request retained for ``GET /trace/<request_id>``."""

    request_id: str
    span_lines: List[str]
    explain: Dict[str, object]
    rule_counts: Dict[str, int]
    duration_sec: float
    num_queries: int


class GPSSNService:
    """The daemon engine: a warm executor + admission + the metrics plane.

    HTTP-agnostic on purpose — integration tests drive
    :meth:`execute` / :meth:`metrics_text` / :meth:`status_view`
    directly, and the handler stays a thin translation layer.
    """

    def __init__(
        self,
        network: Optional[SpatialSocialNetwork],
        config: Optional[ServerConfig] = None,
        build_args: Optional[Dict[str, object]] = None,
        snapshot: Optional[NetworkSnapshot] = None,
    ) -> None:
        if network is None and snapshot is None:
            raise InvalidParameterError(
                "GPSSNService needs a network or a prepared snapshot"
            )
        self.config = config or ServerConfig()
        cfg = self.config
        self.limits = ExecutionLimits(
            timeout_sec=cfg.timeout_sec, retries=cfg.retries
        )
        self.recorder = Recorder(
            metrics=MetricsRegistry(window_sec=cfg.window_sec)
        )
        self.registry = self.recorder.metrics
        self.started_monotonic = time.monotonic()
        self.started_wall = time.time()
        self._explain = _LockedExplain() if cfg.explain else None

        # The dynamic plane (POST /update, /subscribe) mutates this live
        # network through its own serial processor. The static /query
        # plane serves a frozen arena of it taken at warm-up, so updates
        # never change /query answers.
        self.network = network
        self.build_args = dict(build_args or {})
        self._dynamic_lock = threading.Lock()
        self._dynamic = None

        #: The arena every worker attaches; a live ``network`` is frozen
        #: to a temporary one at :meth:`warm` (removed by :meth:`close`).
        self.snapshot = snapshot
        self._temp_arena: Optional[str] = None
        # Runs every request, on either backend (made at warm-up).
        self._executor: Optional[BatchQueryExecutor] = None
        # The in-process worker's tracer, registered at warm-up so the
        # sampling profiler can attribute CPU samples to active spans.
        self._worker_tracers: List[object] = []
        self._profile_lock = threading.Lock()

        self.workers = 1 if cfg.backend == "serial" else cfg.workers
        #: Admitted requests may number at most workers + max_queue.
        self.capacity = self.workers + cfg.max_queue
        self._admission_lock = threading.Lock()
        self._inflight = 0

        self._ready = threading.Event()
        self._closing = False
        self._access_lock = threading.Lock()
        self._access_fp = (
            open(cfg.access_log_path, "a", encoding="utf-8")
            if cfg.access_log_path else None
        )
        self.recent: deque = deque(maxlen=cfg.recent_ring_size)
        self.slow: deque = deque(maxlen=cfg.recent_ring_size)
        self._traces: "deque[_TraceRecord]" = deque(
            maxlen=cfg.trace_ring_size
        )

        self.registry.set_gauge("service.workers", self.workers)
        self.registry.set_gauge("service.capacity", self.capacity)
        self.registry.set_gauge("service.queue_depth", 0)
        self.registry.set_gauge("service.ready", 0)

    # -- lifecycle ----------------------------------------------------------

    def _adopt_snapshot_gauges(
        self, recorder: Recorder, counters: bool = True
    ) -> None:
        """Copy a worker's snapshot-attach telemetry onto the service
        registry so ``/metrics`` and ``/status`` can surface it before
        the first shard delta arrives. ``counters=False`` skips the
        header-mismatch counter for the serial worker — its first delta
        ships the same count and would double it; the warm-probe
        recorder (which never ships a delta) keeps ``counters=True``."""
        for name in ("snapshot.attach_seconds", "snapshot.bytes_mapped"):
            value = recorder.metrics.gauges.get(name)
            if value is not None:
                self.registry.set_gauge(name, value)
        if not counters:
            return
        mismatch = recorder.metrics.counters.get("snapshot.header_mismatch")
        if mismatch:
            self.registry.inc("snapshot.header_mismatch", mismatch)

    def warm(self) -> "GPSSNService":
        """Build every worker's warm state (idempotent, blocking).

        A service made from a live network freezes it first, holding the
        dynamic-plane lock so no ``/update`` lands mid-freeze.
        """
        if self._ready.is_set():
            return self
        if self.snapshot is None:
            with self._dynamic_lock:
                self.snapshot = NetworkSnapshot.freeze_temporary(
                    self.network, self.build_args
                )
            self._temp_arena = self.snapshot.snapshot_path
        cfg = self.config
        if self._executor is None:
            self._executor = BatchQueryExecutor(
                None,
                workers=cfg.workers,
                backend=cfg.backend,
                limits=self.limits,
                worker_tracing=cfg.phase_timing,
                worker_explain=cfg.explain,
                snapshot=self.snapshot,
            )
        self._executor.warm()
        state = self._executor.local_state
        if state is not None:
            recorder = state.processor.recorder
            if getattr(recorder.tracer, "active", False):
                self._worker_tracers.append(recorder.tracer)
            self._adopt_snapshot_gauges(recorder, counters=False)
        else:
            # Pool workers attach in their own processes where we cannot
            # scrape; one local attach (cheap by design) makes the
            # gauges visible on the service registry too.
            probe = Recorder()
            self.snapshot.build_worker(probe)
            self._adopt_snapshot_gauges(probe)
        self._ready.set()
        self.registry.set_gauge("service.ready", 1)
        return self

    def warm_async(self) -> threading.Thread:
        """Warm in the background so the HTTP plane is up immediately;
        ``/readyz`` reports 503 until the thread finishes."""
        thread = threading.Thread(
            target=self.warm, name="gpssn-warm", daemon=True
        )
        thread.start()
        return thread

    @property
    def ready(self) -> bool:
        return self._ready.is_set() and not self._closing

    def drain(self) -> None:
        """Stop admitting new work; output files stay open so in-flight
        handlers can still log their requests."""
        self._closing = True
        self.registry.set_gauge("service.ready", 0)

    def close(self) -> None:
        self.drain()
        try:
            if self._executor is not None:
                self._executor.close()
        finally:
            if self._temp_arena is not None:
                os.unlink(self._temp_arena)
                self._temp_arena = None
        if self._access_fp is not None:
            with self._access_lock:
                self._access_fp.close()
                self._access_fp = None

    def __enter__(self) -> "GPSSNService":
        return self.warm()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def uptime_sec(self) -> float:
        return time.monotonic() - self.started_monotonic

    # -- admission ----------------------------------------------------------

    def admit(self) -> None:
        """Claim an admission slot or raise :class:`ServiceOverloadedError`."""
        with self._admission_lock:
            if self._inflight >= self.capacity:
                self.registry.inc("service.rejected")
                raise ServiceOverloadedError(
                    f"{self._inflight} requests in flight >= capacity "
                    f"{self.capacity} ({self.workers} workers + "
                    f"{self.config.max_queue} queue slots)"
                )
            self._inflight += 1
            self.registry.set_gauge("service.queue_depth", self._inflight)

    def release(self) -> None:
        with self._admission_lock:
            self._inflight = max(0, self._inflight - 1)
            self.registry.set_gauge("service.queue_depth", self._inflight)

    @property
    def queue_depth(self) -> int:
        with self._admission_lock:
            return self._inflight

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        entries: Sequence[Tuple],
        request_id: str,
        trace: bool = False,
    ) -> RequestResult:
        """Answer one admitted request's entries on the warm executor.

        The caller holds the admission slot; this blocks until a worker
        frees up (bounded by admission), runs the request's deduped
        plan as one shard, fans outcomes back out, and absorbs every
        outcome into the service registry.
        """
        self._ready.wait()
        started = time.perf_counter()
        plan = plan_batch(entries, 1)
        ctx = TraceContext.sampled(
            request_id, self.config.trace_sample_rate, force=trace
        )
        shard = self._executor.run_shard(list(plan.items), trace_ctx=ctx)
        item_outcomes = dict(enumerate(shard.outcomes))
        outcomes = fan_out_outcomes(plan, item_outcomes)
        duration = time.perf_counter() - started
        traced = False
        if shard.delta is not None:
            shard.delta.apply(self.registry, explain=self._explain)
            if shard.delta.trace is not None:
                # Request time outside the worker's shard: waiting for
                # the worker, shipping to it, and the issuer prewarm.
                shard_sec = shard.delta.trace.get("shard_sec", duration)
                queue_wait = max(duration - float(shard_sec), 0.0)
                self._store_trace(
                    plan, duration, queue_wait, shard.delta
                )
                traced = True
        self._absorb(plan, item_outcomes, outcomes, duration, request_id)
        return RequestResult(
            outcomes=outcomes, duration_sec=duration, traced=traced
        )

    def _store_trace(
        self,
        plan: BatchPlan,
        duration: float,
        queue_wait: float,
        delta,
    ) -> None:
        """Retain one merged end-to-end trace for ``GET /trace/<id>``."""
        trace_doc = delta.trace
        self._traces.append(_TraceRecord(
            request_id=trace_doc["request_id"],
            span_lines=self._merged_trace_lines(
                trace_doc, duration, queue_wait, delta.worker
            ),
            explain=trace_doc.get("funnel", {}),
            rule_counts=trace_doc.get("rule_counts", {}),
            duration_sec=duration,
            num_queries=plan.num_queries,
        ))

    def _merged_trace_lines(
        self,
        trace_doc: Dict[str, object],
        duration: float,
        queue_wait: float,
        worker_label: str,
    ) -> List[str]:
        """Stitch the worker's shipped span forest into one request tree.

        Synthetic parent spans carry the service-side story the worker
        cannot see — total request wall time, the queue/checkout wait,
        and the (amortized) snapshot attach cost — and the worker's
        spans hang off a ``dispatch`` node with their clocks shifted
        past the queue wait, so the rendered tree reads as one
        end-to-end timeline on every backend.
        """
        attach = self.registry.gauges.get(
            f"worker.{worker_label}.snapshot.attach_seconds",
            self.registry.gauges.get("snapshot.attach_seconds", 0.0),
        )
        synthetic = [
            {
                "id": 0, "parent": None, "name": "request",
                "start": 0.0, "duration": round(duration, 9),
                "attrs": {
                    "request_id": trace_doc["request_id"],
                    "backend": self.config.backend,
                    "worker": worker_label,
                },
            },
            {
                "id": 1, "parent": 0, "name": "queue.wait",
                "start": 0.0, "duration": round(queue_wait, 9),
            },
            {
                "id": 2, "parent": 0, "name": "worker.attach",
                "start": 0.0, "duration": round(float(attach), 9),
                "attrs": {"amortized": True},
            },
            {
                "id": 3, "parent": 0, "name": "dispatch",
                "start": round(queue_wait, 9),
                "duration": round(max(duration - queue_wait, 0.0), 9),
            },
        ]
        offset = len(synthetic)
        lines = [json.dumps(record) for record in synthetic]
        for raw in trace_doc.get("spans", ()):
            record = json.loads(raw)
            record["id"] += offset
            record["parent"] = (
                3 if record["parent"] is None else record["parent"] + offset
            )
            record["start"] = round(record["start"] + queue_wait, 9)
            lines.append(json.dumps(record))
        return lines

    def profile(
        self, seconds: float, interval_sec: float = 0.005
    ) -> "ProfileReport":
        """Run the sampling profiler against this process for ``seconds``.

        One run at a time (concurrent callers get
        :class:`ProfilerBusyError` and the HTTP layer's 409): the
        signal/thread timer and the per-phase attribution both assume a
        single active sampler.
        """
        if not self._profile_lock.acquire(blocking=False):
            raise ProfilerBusyError("another profiling run is in progress")
        try:
            profiler = SamplingProfiler(
                interval_sec=interval_sec, tracers=tuple(self._worker_tracers)
            )
            return profiler.run_for(seconds)
        finally:
            self._profile_lock.release()

    def trace(self, request_id: str) -> Optional[_TraceRecord]:
        for record in reversed(self._traces):
            if record.request_id == request_id:
                return record
        return None

    def _absorb(
        self,
        plan: BatchPlan,
        item_outcomes: Dict[int, QueryOutcome],
        outcomes: List[QueryOutcome],
        duration: float,
        request_id: str,
    ) -> None:
        """Feed one finished request into the long-lived registry."""
        m = self.registry
        m.inc("service.requests")
        m.inc("service.queries", len(outcomes))
        m.inc("service.dedup_saved", plan.duplicates_saved)
        m.observe_window("http.request_seconds", duration)
        slow_cutoff = self.config.slow_query_sec
        for outcome in item_outcomes.values():
            m.observe_window("service.query_seconds", outcome.duration_sec)
            m.observe("service.query_latency_sec", outcome.duration_sec)
            if outcome.status == STATUS_TIMEOUT:
                m.inc("service.timeouts")
            elif outcome.status == STATUS_ERROR:
                m.inc("service.errors")
            # query.*/pruning.*/phase.* tallies arrive on the shard's
            # metrics delta now — absorbing outcome.stats here as well
            # would double-count them.
            if outcome.duration_sec >= slow_cutoff:
                self.slow.append({
                    "request_id": request_id,
                    "query_id": outcome.request_id,
                    "user": plan.items[_item_index(plan, outcome)]
                    .query.query_user,
                    "status": outcome.status,
                    "duration_sec": round(outcome.duration_sec, 6),
                    "ts": time.time(),
                })

    # -- request/access accounting ------------------------------------------

    def log_request(
        self,
        request_id: str,
        method: str,
        path: str,
        status: int,
        duration_sec: float,
        num_queries: int = 0,
        query_ids: Sequence[str] = (),
        error: str = "",
    ) -> None:
        """One structured access-log record (JSONL file + recent ring)."""
        record = {
            "ts": round(time.time(), 6),
            "request_id": request_id,
            "method": method,
            "path": path,
            "status": status,
            "duration_sec": round(duration_sec, 6),
        }
        if num_queries:
            record["queries"] = num_queries
        if query_ids:
            record["query_ids"] = list(query_ids)
        if error:
            record["error"] = error
        self.registry.inc(f"http.status.{status}")
        self.recent.append(record)
        if self._access_fp is not None:
            line = json.dumps(record, sort_keys=True)
            with self._access_lock:
                if self._access_fp is not None:
                    self._access_fp.write(line + "\n")
                    self._access_fp.flush()

    # -- dynamic plane (standing queries over a mutating network) -----------

    def _dynamic_registry(self):
        """The lazily built continuous-query engine (caller holds the lock).

        Built over the *live* network with the service's processor
        recipe and the service registry as its metrics sink, so
        ``dynamic.*`` counters and the ``dynamic.bound_slack`` gauge
        surface on ``/metrics`` alongside the static plane's.
        """
        if self._dynamic is None:
            if self.network is None:
                raise DynamicUnavailableError(
                    "dynamic endpoints need a live network; this daemon "
                    "serves a frozen snapshot arena"
                )
            from ..core.algorithm import GPSSNQueryProcessor
            from ..dynamic import (
                ContinuousQueryRegistry,
                DynamicIndexMaintainer,
            )

            recorder = Recorder(metrics=self.registry, explain=self._explain)
            processor = GPSSNQueryProcessor(
                self.network, recorder=recorder, **self.build_args
            )
            self._dynamic = ContinuousQueryRegistry(
                DynamicIndexMaintainer(processor), limits=self.limits
            )
        return self._dynamic

    def subscribe(
        self, entries: Sequence[Tuple]
    ) -> Tuple[List[str], Dict[str, int]]:
        """Register standing queries; returns their initial outcome lines.

        The dynamic plane is serial by design — one lock serializes
        subscription, mutation application, and re-answering, which is
        what makes its output stream deterministic and byte-diffable
        against a cold batch run.
        """
        with self._dynamic_lock:
            registry = self._dynamic_registry()
            added = registry.subscribe(entries)
            lines = outcome_lines([sq.outcome for sq in added])
            report = {
                "subscribed": len(added),
                "total": len(registry.queries),
                "failed": sum(1 for sq in added if not sq.outcome.ok),
            }
        self.registry.inc("dynamic.subscriptions", float(len(added)))
        return lines, report

    def update(self, mutations: Sequence) -> Tuple[List[str], Dict[str, int]]:
        """Apply a mutation batch; returns every standing query's outcome.

        Lines come back in subscription order with subscription indices,
        so concatenating them reproduces exactly what a cold
        ``gpssn batch`` run over the subscribed query file against the
        mutated bundle would print.
        """
        with self._dynamic_lock:
            registry = self._dynamic_registry()
            report = dict(registry.apply_batch(mutations))
            lines = registry.outcome_lines()
            report["failed"] = sum(
                1 for sq in registry.queries if not sq.outcome.ok
            )
        return lines, report

    def dynamic_view(self) -> Optional[Dict[str, object]]:
        """The dynamic plane's status block (None until first use)."""
        with self._dynamic_lock:
            if self._dynamic is None:
                return None
            return self._dynamic.describe()

    # -- observability outputs ----------------------------------------------

    def metrics_text(self) -> str:
        """The Prometheus exposition for one scrape (snapshot-consistent)."""
        self.registry.set_gauge("service.queue_depth", self.queue_depth)
        self.registry.set_gauge("process.rss_bytes", process_rss_bytes())
        snapshot = self.registry.snapshot()
        return prometheus_text(
            snapshot, explain=self._explain, uptime_sec=self.uptime_sec
        )

    def status_view(self) -> Dict[str, object]:
        """The plain-data view the /status dashboard renders."""
        self.registry.set_gauge("process.rss_bytes", process_rss_bytes())
        snapshot = self.registry.snapshot()
        cfg = self.config
        return {
            "uptime_sec": self.uptime_sec,
            "started_wall": self.started_wall,
            "ready": self.ready,
            "backend": cfg.backend,
            "workers": self.workers,
            "capacity": self.capacity,
            "queue_depth": self.queue_depth,
            "counters": snapshot.counters,
            "gauges": snapshot.gauges,
            "histograms": snapshot.histograms,
            "windows": snapshot.windows,
            "window_totals": snapshot.window_totals,
            "window_sec": snapshot.window_sec,
            "slow_queries": list(self.slow),
            "recent_requests": list(self.recent),
            "traces": [
                {
                    "request_id": record.request_id,
                    "num_queries": record.num_queries,
                    "duration_sec": record.duration_sec,
                }
                for record in self._traces
            ],
            "explain": (
                self._explain.as_dict() if self._explain is not None else {}
            ),
            "dynamic": self.dynamic_view(),
        }


def _item_index(plan: BatchPlan, outcome: QueryOutcome) -> int:
    """The plan item an outcome answers (its first position's item)."""
    for idx, item in enumerate(plan.items):
        if outcome.index in item.positions:
            return idx
    return 0  # pragma: no cover - outcomes always come from plan items


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------


class GPSSNHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that owns one :class:`GPSSNService`."""

    # Non-daemon handler threads + block_on_close means server_close()
    # joins in-flight handlers, so their access-log writes land before
    # the service closes its files.
    daemon_threads = False

    def __init__(self, address, service: GPSSNService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def shutdown(self) -> None:  # graceful: drain readiness first
        self.service.drain()
        super().shutdown()

    def server_close(self) -> None:
        super().server_close()  # joins handler threads
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the service; every response carries the
    request's correlation id in ``X-Request-Id``."""

    server: GPSSNHTTPServer
    protocol_version = "HTTP/1.1"
    #: Socket timeout so an idle keep-alive client cannot wedge
    #: ``server_close()``'s handler-thread join indefinitely.
    timeout = 10

    # -- plumbing -----------------------------------------------------------

    @property
    def service(self) -> GPSSNService:
        return self.server.service

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the default stderr chatter; the structured access log
        is the record of truth."""

    def _request_id(self) -> str:
        supplied = self.headers.get("X-Request-Id", "").strip()
        if supplied and len(supplied) <= 128:
            return supplied
        return f"req-{uuid.uuid4().hex[:12]}"

    def _respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        request_id: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json_error(
        self,
        status: int,
        message: str,
        request_id: str,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        body = json.dumps(
            {"error": message, "request_id": request_id}, sort_keys=True
        ).encode("utf-8") + b"\n"
        self._respond(
            status, body, "application/json", request_id, extra_headers
        )

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        request_id = self._request_id()
        started = time.perf_counter()
        split = urlsplit(self.path)
        path, query = split.path.rstrip("/") or "/", parse_qs(split.query)
        status = 200
        error = ""
        try:
            if path == "/healthz":
                self._respond(200, b"ok\n", "text/plain", request_id)
            elif path == "/readyz":
                if self.service.ready:
                    self._respond(200, b"ready\n", "text/plain", request_id)
                else:
                    status = 503
                    self._respond(
                        503, b"warming\n", "text/plain", request_id
                    )
            elif path == "/metrics":
                body = self.service.metrics_text().encode("utf-8")
                self._respond(
                    200, body, "text/plain; version=0.0.4", request_id
                )
            elif path == "/status":
                from .dashboard import render_status_html, render_status_text

                view = self.service.status_view()
                if query.get("format", [""])[0] == "text":
                    body = render_status_text(view).encode("utf-8")
                    self._respond(200, body, "text/plain", request_id)
                else:
                    body = render_status_html(view).encode("utf-8")
                    self._respond(
                        200, body, "text/html; charset=utf-8", request_id
                    )
            elif path.startswith("/trace/"):
                record = self.service.trace(path[len("/trace/"):])
                if record is None:
                    status, error = 404, "unknown trace id"
                    self._respond_json_error(404, error, request_id)
                else:
                    payload = {
                        "request_id": record.request_id,
                        "spans": [
                            json.loads(line) for line in record.span_lines
                        ],
                        "explain": record.explain,
                        "rule_totals": record.rule_counts,
                    }
                    body = json.dumps(
                        payload, indent=2, sort_keys=True
                    ).encode("utf-8") + b"\n"
                    self._respond(200, body, "application/json", request_id)
            elif path == "/debug/profile":
                status, error = self._handle_profile(query, request_id)
            else:
                status, error = 404, f"no route for {path}"
                self._respond_json_error(404, error, request_id)
        except BrokenPipeError:  # pragma: no cover - client went away
            status, error = 499, "client disconnected"
        finally:
            self.service.log_request(
                request_id, "GET", path, status,
                time.perf_counter() - started, error=error,
            )

    def _handle_profile(
        self, query: Dict[str, List[str]], request_id: str
    ) -> Tuple[int, str]:
        """``GET /debug/profile``: run the sampling profiler in-process.

        Gated behind ``--profile`` (404 otherwise, indistinguishable
        from an unknown route); ``seconds`` is clamped to 60 and the
        sampling interval to [1, 100] ms so a stray request cannot pin
        the daemon. Returns ``(status, error)`` for the access log.
        """
        service = self.service
        if not service.config.profile_endpoint:
            error = "no route for /debug/profile (serve with --profile)"
            self._respond_json_error(404, error, request_id)
            return 404, error
        try:
            seconds = float(query.get("seconds", ["2"])[0])
            interval_ms = float(query.get("interval_ms", ["5"])[0])
        except ValueError:
            error = "seconds and interval_ms must be numbers"
            self._respond_json_error(400, error, request_id)
            return 400, error
        seconds = min(max(seconds, 0.05), 60.0)
        interval_sec = min(max(interval_ms, 1.0), 100.0) / 1000.0
        fmt = query.get("format", ["json"])[0]
        if fmt not in ("json", "collapsed", "flamegraph"):
            error = f"unknown profile format {fmt!r}"
            self._respond_json_error(400, error, request_id)
            return 400, error
        try:
            report = service.profile(seconds, interval_sec=interval_sec)
        except ProfilerBusyError as exc:
            error = str(exc)
            self._respond_json_error(
                409, error, request_id,
                extra_headers=(("Retry-After", str(int(seconds) + 1)),),
            )
            return 409, error
        if fmt == "collapsed":
            lines = report.collapsed_lines()
            body = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
            self._respond(200, body, "text/plain", request_id)
        elif fmt == "flamegraph":
            body = report.flamegraph_html().encode("utf-8")
            self._respond(
                200, body, "text/html; charset=utf-8", request_id
            )
        else:
            body = json.dumps(
                report.as_dict(), indent=2, sort_keys=True
            ).encode("utf-8") + b"\n"
            self._respond(200, body, "application/json", request_id)
        return 200, ""

    def _handle_dynamic(
        self, path: str, body: str, request_id: str
    ) -> Tuple[int, str, int]:
        """``POST /subscribe`` (query JSONL) and ``POST /update``
        (mutation JSONL): the standing-query plane.

        Both respond with outcome JSONL — the initial answers of the
        newly subscribed queries, or the post-mutation answers of *all*
        standing queries in subscription order. Returns
        ``(status, error, item_count)`` for the access log.
        """
        service = self.service
        if path == "/subscribe":
            try:
                entries = parse_query_lines(
                    body.splitlines(), service.config.default_max_groups
                )
            except ProtocolError as exc:
                error = exc.located("body")
                self._respond_json_error(400, error, request_id)
                return 400, error, 0
            items = len(entries)
        else:
            from ..dynamic.ops import parse_mutation_lines

            try:
                mutations = parse_mutation_lines(body.splitlines())
            except InvalidParameterError as exc:
                error = f"body: {exc}"
                self._respond_json_error(400, error, request_id)
                return 400, error, 0
            items = len(mutations)
        try:
            service.admit()
        except ServiceOverloadedError as exc:
            error = str(exc)
            self._respond_json_error(
                429, error, request_id,
                extra_headers=(("Retry-After", "1"),),
            )
            return 429, error, items
        try:
            if path == "/subscribe":
                lines, report = service.subscribe(entries)
                headers = [
                    ("X-Subscribed-Count", str(report["subscribed"])),
                    ("X-Standing-Count", str(report["total"])),
                ]
            else:
                lines, report = service.update(mutations)
                headers = [
                    ("X-Applied-Count", str(report["applied"])),
                    ("X-Skipped-Count", str(report["skipped"])),
                    ("X-Dirty-Count", str(report["dirty"])),
                ]
        except DynamicUnavailableError as exc:
            error = str(exc)
            self._respond_json_error(409, error, request_id)
            return 409, error, items
        finally:
            service.release()
        if report["failed"]:
            headers.append(("X-Failed-Count", str(report["failed"])))
        payload = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
        self._respond(
            200, payload, "application/jsonl", request_id, headers
        )
        return 200, "", items

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        request_id = self._request_id()
        started = time.perf_counter()
        split = urlsplit(self.path)
        path, query = split.path.rstrip("/") or "/", parse_qs(split.query)
        service = self.service
        status = 200
        error = ""
        num_queries = 0
        query_ids: List[str] = []
        try:
            if path not in ("/query", "/subscribe", "/update"):
                status, error = 404, f"no route for {path}"
                self._respond_json_error(404, error, request_id)
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if length < 0:
                status, error = 400, "missing or invalid Content-Length"
                self._respond_json_error(400, error, request_id)
                return
            if length > service.config.max_body_bytes:
                status, error = 413, (
                    f"body of {length} bytes exceeds the "
                    f"{service.config.max_body_bytes} byte limit"
                )
                self._respond_json_error(413, error, request_id)
                return
            body = self.rfile.read(length).decode("utf-8", errors="replace")
            if path in ("/subscribe", "/update"):
                status, error, num_queries = self._handle_dynamic(
                    path, body, request_id
                )
                return
            try:
                entries = parse_query_lines(
                    body.splitlines(),
                    service.config.default_max_groups,
                )
            except ProtocolError as exc:
                status, error = 400, exc.located("body")
                self._respond_json_error(400, error, request_id)
                return
            num_queries = len(entries)
            trace = query.get("trace", ["0"])[0] in ("1", "true", "yes")
            try:
                service.admit()
            except ServiceOverloadedError as exc:
                status, error = 429, str(exc)
                self._respond_json_error(
                    429, error, request_id,
                    extra_headers=(("Retry-After", "1"),),
                )
                return
            try:
                result = service.execute(entries, request_id, trace=trace)
            finally:
                service.release()
            query_ids = sorted({
                o.request_id for o in result.outcomes if o.request_id
            })
            lines = outcome_lines(result.outcomes)
            payload = ("\n".join(lines) + "\n").encode("utf-8")
            failed = sum(not o.ok for o in result.outcomes)
            headers = [("X-Query-Count", str(len(result.outcomes)))]
            if failed:
                headers.append(("X-Failed-Count", str(failed)))
            if result.traced:
                headers.append(
                    ("X-Trace-Url", f"/trace/{request_id}")
                )
            self._respond(
                200, payload, "application/jsonl", request_id, headers
            )
        except BrokenPipeError:  # pragma: no cover - client went away
            status, error = 499, "client disconnected"
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            status, error = 500, f"{type(exc).__name__}: {exc}"
            try:
                self._respond_json_error(500, error, request_id)
            except Exception:  # pragma: no cover - socket already gone
                pass
        finally:
            self.service.log_request(
                request_id, "POST", path, status,
                time.perf_counter() - started,
                num_queries=num_queries, query_ids=query_ids, error=error,
            )


def create_server(
    network: Optional[SpatialSocialNetwork],
    config: Optional[ServerConfig] = None,
    build_args: Optional[Dict[str, object]] = None,
    snapshot: Optional[NetworkSnapshot] = None,
) -> GPSSNHTTPServer:
    """Bind the daemon (without serving); ``server.server_address`` holds
    the resolved port when ``config.port`` is 0 (tests). Pass a
    ``snapshot`` (``NetworkSnapshot.from_frozen``) to serve an existing
    arena without an in-memory network."""
    config = config or ServerConfig()
    service = GPSSNService(network, config, build_args, snapshot=snapshot)
    return GPSSNHTTPServer((config.host, config.port), service)


def serve(
    network: Optional[SpatialSocialNetwork],
    config: Optional[ServerConfig] = None,
    build_args: Optional[Dict[str, object]] = None,
    ready_message=None,
    snapshot: Optional[NetworkSnapshot] = None,
) -> None:
    """Run the daemon until interrupted (the ``gpssn serve`` loop).

    SIGTERM takes the same graceful path as SIGINT: readiness drains,
    in-flight handlers finish, and the service closes its worker pool
    and deletes its temporary arena before ``serve`` returns. (Only
    the main thread can install the SIGTERM handler; elsewhere SIGTERM
    keeps its default action.)
    """
    server = create_server(network, config, build_args, snapshot=snapshot)
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, _interrupt_on_sigterm)
    try:
        server.service.warm_async()
        host, port = server.server_address[:2]
        if ready_message is not None:
            ready_message(host, port)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _interrupt_on_sigterm(signum, frame) -> None:
    """Turn the first SIGTERM into ``KeyboardInterrupt``; ignore repeats
    so they cannot cut the shutdown short."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise KeyboardInterrupt
