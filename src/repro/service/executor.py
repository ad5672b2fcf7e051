"""Concurrent batch execution of GP-SSN queries with warm worker state.

:class:`BatchQueryExecutor` turns the one-query-at-a-time processor
into a batch service. Three backends share one outcome contract:

``serial``
    The correctness oracle: replay the batch in input order on a single
    warm worker, no planning. Obviously right — every other backend is
    validated (and CI-diffed) against its byte-identical outcomes.

``thread``
    A thread pool. Each worker thread owns its *own* warm
    :class:`WorkerState` (network and indexes attached from the frozen
    arena, distance-oracle cache), so threads never share
    mutable query state; useful for low worker counts and for testing
    scheduling independence without process overhead.

``process``
    A process pool (``fork`` where available). The picklable
    :class:`NetworkSnapshot` (arena path + header hash) travels to each
    worker once, at pool warm-up; after that a worker answers every
    query of its shard against its warm state — the attach and the
    distance-oracle cache amortize across the shard.

Every worker starts the same way: it memmap-attaches a frozen, indexed
arena (:mod:`repro.io.snapshot`). An executor made from a live network
freezes it to a temporary arena at :meth:`BatchQueryExecutor.warm` and
removes the file at :meth:`BatchQueryExecutor.close`.

Batches are planned before dispatch (:mod:`repro.service.batch`):
identical queries are answered once and fanned back out, and the unique
queries are sharded by issuer locality with cuts snapped to issuer
boundaries — each shard prewarms its issuers' SSSP maps once, so
distinct queries from one issuer share a single Dijkstra run (reported
as ``service.sssp_shared``). Every query runs under the
per-query timeout/retry envelope of :mod:`repro.service.limits`, so one
pathological query degrades to a ``timeout`` outcome instead of
stalling the batch.

Answers are deterministic in (arena, query): all backends attach
workers to the *same* arena, so worker count and scheduling order never
change outcomes.

Worker telemetry is not lost to process boundaries: every shard comes
back as a :class:`ShardResult` whose
:class:`~repro.obs.delta.MetricsDelta` carries the worker's counters,
gauges, histogram sketches, pruning-funnel tallies, and (for traced
requests) a bounded span forest. The parent merges each delta into its
own recorder — once under the original names (so aggregate funnel
counts match a serial run exactly, on any backend) and once under
``worker.<label>.*`` for the per-worker plane.
"""

from __future__ import annotations

import concurrent.futures
import logging
import multiprocessing
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.algorithm import GPSSNQueryProcessor
from ..core.query import GPSSNQuery
from ..exceptions import InvalidParameterError
from ..io import snapshot as snapshot_io
from ..network import SpatialSocialNetwork
from ..obs import (
    ExplainRecorder,
    MetricsDelta,
    Recorder,
    TraceContext,
    Tracer,
)
from ..obs.exporters import spans_to_jsonl
from .batch import BatchPlan, PlanItem, plan_batch, query_request_id
from .limits import (
    STATUS_ERROR,
    STATUS_TIMEOUT,
    ExecutionLimits,
    QueryOutcome,
    run_with_limits,
)

#: The selectable executor backends.
BACKENDS: Tuple[str, ...] = ("serial", "thread", "process")

logger = logging.getLogger(__name__)


@dataclass
class NetworkSnapshot:
    """A picklable handle on a frozen arena: every worker's one way to start.

    ``snapshot_path`` points at a :func:`repro.io.snapshot.freeze` arena
    on disk and ``header_hash`` pins the exact file that was opened when
    the handle was made. Pickling ships only the path + hash; each worker
    ``np.memmap``-attaches the shared pages instead of rebuilding, so
    warm-up is O(1) in network size and the page cache is shared across
    the pool. ``build_args`` is the embedded processor's build recipe.
    """

    snapshot_path: str
    header_hash: str
    build_args: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_frozen(cls, path: Union[str, Path]) -> "NetworkSnapshot":
        """A handle on the arena at ``path``.

        Opens the file once to validate the format and record its header
        hash; workers re-open (O(1)) and check they see the same file.
        """
        frozen = snapshot_io.FrozenSnapshot.open(path)
        return cls(
            snapshot_path=str(path),
            header_hash=frozen.header_hash,
            build_args=frozen.build_args,
        )

    @classmethod
    def freeze_temporary(
        cls,
        network: SpatialSocialNetwork,
        build_args: Optional[Dict[str, object]] = None,
        processor: Optional[GPSSNQueryProcessor] = None,
    ) -> "NetworkSnapshot":
        """Freeze a live network (and ``processor``, or one built from
        ``build_args``) to a fresh temporary arena; the caller unlinks
        ``snapshot_path`` when done."""
        fd, path = tempfile.mkstemp(prefix="gpssn-", suffix=".gpsnap")
        os.close(fd)
        try:
            snapshot_io.freeze(
                network, path, processor=processor, build_args=build_args
            )
            return cls.from_frozen(path)
        except BaseException:
            os.unlink(path)
            raise

    def build_worker(
        self, recorder: Optional[Recorder] = None
    ) -> Tuple[SpatialSocialNetwork, GPSSNQueryProcessor]:
        """One worker's warm ``(network, processor)`` pair.

        Memmap-attaches the arena, timed into the
        ``snapshot.attach_seconds`` / ``snapshot.bytes_mapped`` gauges on
        ``recorder``. A file whose header changed since the handle was
        made is attached anyway and counted in
        ``snapshot.header_mismatch``.
        """
        recorder = recorder or Recorder()
        started = time.perf_counter()
        frozen = snapshot_io.FrozenSnapshot.open(self.snapshot_path)
        if frozen.header_hash != self.header_hash:
            logger.warning(
                "frozen snapshot %s changed since it was opened "
                "(header %s, expected %s); attaching the current file",
                self.snapshot_path,
                frozen.header_hash[:12], self.header_hash[:12],
            )
            recorder.metrics.inc("snapshot.header_mismatch")
        network, processor = frozen.attach()
        processor.recorder = recorder
        recorder.metrics.set_gauge(
            "snapshot.attach_seconds", time.perf_counter() - started
        )
        recorder.metrics.set_gauge(
            "snapshot.bytes_mapped", float(frozen.bytes_mapped)
        )
        return network, processor


class WorkerState:
    """Everything one worker keeps warm across the queries it handles.

    Built once per worker from the shared arena: the attached network
    (own distance engine + oracle cache) and the processor with both
    indexes. Every query the worker answers afterwards reuses all of
    it.
    """

    def __init__(
        self, snapshot: NetworkSnapshot, recorder: Optional[Recorder] = None
    ) -> None:
        self.network, self.processor = snapshot.build_worker(
            recorder or Recorder()
        )

    def run_item(
        self, item: PlanItem, limits: ExecutionLimits, worker: int
    ) -> QueryOutcome:
        """One planned query under the limits envelope (never raises)."""
        return run_with_limits(
            lambda: self.processor.answer(
                item.query, max_groups=item.max_groups
            ),
            limits,
            index=item.positions[0],
            worker=worker,
            request_id=item.request_id,
        )

    def prewarm_issuers(self, issuers: Sequence[int]) -> None:
        """Run each shard issuer's SSSP once before the shard executes.

        Every query of an issuer starts from the same source, so the
        maps built here are exactly the ones the queries would build on
        first touch — later same-issuer queries hit the warm oracle (and
        pair-kernel) caches instead of re-running Dijkstra. Purely a
        cache warm-up: answers are unaffected, so failures (e.g. an
        unknown issuer, rejected later by the query itself) are ignored.
        """
        kernel = self.processor._pair_kernel()
        social = self.network.social
        for uid in issuers:
            if not social.has_user(uid):
                continue
            try:
                kernel.member_row(uid)
            except Exception:  # pragma: no cover - warm-up must not fail
                continue

    def run_shard(
        self,
        items: Sequence[PlanItem],
        limits: ExecutionLimits,
        worker: int,
        trace_ctx: Optional[TraceContext] = None,
        collect: bool = True,
        label: Optional[str] = None,
    ) -> "ShardResult":
        """Answer one shard and ship its telemetry delta back.

        Prewarms the shard's issuers, runs every item under the limits
        envelope, then captures this worker's recorder into a
        :class:`~repro.obs.delta.MetricsDelta` (disjoint per shard —
        capture resets the registry and funnel). With a
        :class:`~repro.obs.context.TraceContext`, the shard runs under
        span + funnel capture and the delta carries the bounded span
        forest for the parent's ``/trace/<id>`` merge. ``collect=False``
        restores the pre-delta behavior (telemetry discarded, spans
        counted as dropped) for overhead baselines.
        """
        self.prewarm_issuers(
            list(dict.fromkeys(item.query.query_user for item in items))
        )
        trace_doc: Optional[dict] = None
        if trace_ctx is not None:
            outcomes, trace_doc = self._run_traced_items(
                items, limits, worker, trace_ctx
            )
        else:
            outcomes = [self.run_item(item, limits, worker) for item in items]
        if not collect:
            _drain_worker_tracer(self)
            return ShardResult(outcomes=outcomes)
        return ShardResult(
            outcomes=outcomes,
            delta=self.collect_delta(
                label if label is not None else str(worker), trace=trace_doc
            ),
        )

    def collect_delta(
        self, label: str, trace: Optional[dict] = None
    ) -> MetricsDelta:
        """Capture-and-reset this worker's telemetry since last capture.

        Unshipped span forests (phase-timing tracers accumulate one
        root per query) cannot ride a metrics delta wholesale; they are
        counted into ``obs.worker_spans_dropped`` *before* the capture
        so the tally itself ships, then cleared.
        """
        _drain_worker_tracer(self)
        return MetricsDelta.capture(
            self.processor.recorder, worker=label, trace=trace
        )

    def _run_traced_items(
        self,
        items: Sequence[PlanItem],
        limits: ExecutionLimits,
        worker: int,
        trace_ctx: TraceContext,
    ) -> Tuple[List[QueryOutcome], dict]:
        """Run items with span + funnel capture for one traced request.

        The capture recorder shares this worker's metrics registry (the
        delta stays complete) but swaps in a fresh tracer — and a fresh
        funnel when the worker is not already explaining — so the trace
        describes exactly this request.
        """
        processor = self.processor
        saved = processor.recorder
        explain = (
            saved.explain
            if getattr(saved.explain, "active", False)
            else ExplainRecorder()
        )
        capture = Recorder(
            tracer=Tracer(), metrics=saved.metrics, explain=explain
        )
        processor.recorder = capture
        shard_started = time.perf_counter()
        try:
            with capture.span("worker.shard") as span:
                span.set(
                    request_id=trace_ctx.request_id,
                    worker=worker,
                    pid=os.getpid(),
                    queries=len(items),
                )
                outcomes = [
                    self.run_item(item, limits, worker) for item in items
                ]
        finally:
            processor.recorder = saved
        lines = spans_to_jsonl(capture.tracer.roots)
        shipped = lines[:trace_ctx.max_spans]
        dropped = len(lines) - len(shipped)
        if dropped:
            saved.metrics.inc("obs.worker_spans_dropped", dropped)
        trace_doc = {
            "request_id": trace_ctx.request_id,
            "spans": shipped,
            "funnel": explain.as_dict(),
            "rule_counts": explain.rule_counts(),
            "shard_sec": time.perf_counter() - shard_started,
        }
        return outcomes, trace_doc


@dataclass
class ShardResult:
    """One shard's outcomes plus the worker's piggybacked telemetry."""

    outcomes: List[QueryOutcome]
    delta: Optional[MetricsDelta] = None


def fan_out_outcomes(
    plan: BatchPlan, item_outcomes: Dict[int, QueryOutcome]
) -> List[QueryOutcome]:
    """Re-address per-item outcomes to every original batch position.

    ``item_outcomes`` maps plan item indices to the one outcome computed
    for that unique query; duplicates get :meth:`QueryOutcome.replicated`
    copies. Shared by the batch executor's shard fan-out and the serve
    daemon's per-request dedupe.
    """
    outcomes: List[Optional[QueryOutcome]] = [None] * plan.num_queries
    for item_idx, outcome in item_outcomes.items():
        for position in plan.items[item_idx].positions:
            outcomes[position] = (
                outcome if position == outcome.index
                else outcome.replicated(position)
            )
    assert all(o is not None for o in outcomes)
    return outcomes  # type: ignore[return-value]


# -- process-pool plumbing (module level: must be picklable by reference) ---

_PROCESS_STATE: Optional[WorkerState] = None


def _worker_recorder(traced: bool, explain: bool = False) -> Recorder:
    """A worker's private recorder; ``traced`` turns span capture on so
    every outcome's ``stats.phase_times`` is populated (the daemon's
    per-phase latency breakdown); ``explain`` adds per-rule funnel
    accounting, shipped to the parent via the shard's metrics delta."""
    return Recorder(
        tracer=Tracer() if traced else None,
        explain=ExplainRecorder() if explain else None,
    )


def _drain_worker_tracer(state: WorkerState) -> None:
    """Count-and-drop a worker's accumulated span forest.

    Phase times were already copied into each outcome's stats; the
    trees themselves only ship for traced requests. Discarded roots are
    tallied into ``obs.worker_spans_dropped`` (they ride the next
    delta) instead of vanishing silently; no-op for null tracers.
    """
    recorder = state.processor.recorder
    tracer = recorder.tracer
    if getattr(tracer, "active", False) and tracer.roots:
        recorder.metrics.inc("obs.worker_spans_dropped", len(tracer.roots))
        tracer.clear()


def _process_worker_label() -> str:
    """The ``worker`` label of this pool process. Pool processes are
    anonymous (no stable index), so the pid names the series — which
    also makes per-process facts like attach time land on the process
    that actually paid them."""
    return f"pid{os.getpid()}"


def _process_initializer(
    snapshot: NetworkSnapshot, traced: bool = False, explain: bool = False
) -> None:
    """Build this worker process's warm state exactly once.

    A forked worker inherits its parent's signal handlers; SIGTERM is
    reset to its default action so that terminating the worker (or its
    whole process group) stops it rather than raising inside a query.
    """
    global _PROCESS_STATE
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _PROCESS_STATE = WorkerState(
        snapshot, recorder=_worker_recorder(traced, explain)
    )


def _process_warmup() -> bool:
    return _PROCESS_STATE is not None


def _process_run_shard(
    worker: int,
    items: List[PlanItem],
    limits: ExecutionLimits,
    trace_ctx: Optional[TraceContext] = None,
    collect: bool = True,
) -> ShardResult:
    assert _PROCESS_STATE is not None, "worker initializer did not run"
    return _PROCESS_STATE.run_shard(
        items, limits, worker,
        trace_ctx=trace_ctx, collect=collect,
        label=_process_worker_label(),
    )


def _fork_or_default_context():
    """Prefer ``fork``: workers inherit the parent's hash seed (identical
    set/dict iteration everywhere) and skip re-importing the world."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class BatchQueryExecutor:
    """Answer batches of GP-SSN queries on warm serial/thread/process
    backends (see the module docstring for the backend contract)."""

    def __init__(
        self,
        network: Optional[SpatialSocialNetwork],
        workers: int = 0,
        backend: str = "auto",
        limits: Optional[ExecutionLimits] = None,
        build_args: Optional[Dict[str, object]] = None,
        recorder: Optional[Recorder] = None,
        worker_tracing: bool = False,
        worker_explain: bool = False,
        telemetry: bool = True,
        snapshot: Optional[NetworkSnapshot] = None,
    ) -> None:
        if backend == "auto":
            backend = "serial" if workers <= 0 else "process"
        if backend not in BACKENDS:
            raise InvalidParameterError(
                f"unknown backend {backend!r}; expected one of "
                f"{BACKENDS + ('auto',)}"
            )
        if backend == "serial":
            workers = 1
        if workers < 1:
            raise InvalidParameterError(
                f"backend {backend!r} needs workers >= 1, got {workers}"
            )
        self.backend = backend
        self.workers = workers
        self.limits = limits or ExecutionLimits()
        self.recorder = recorder or Recorder()
        # Workers with span capture on report per-phase times in every
        # outcome's stats (the serve daemon's latency breakdown); off by
        # default so batch runs keep the zero-overhead null tracer.
        self.worker_tracing = worker_tracing
        # Per-rule funnel accounting in every worker; the tallies ship
        # back on each shard's delta, so it works on any backend.
        self.worker_explain = worker_explain
        # Delta shipping: workers capture their recorder per shard and
        # the parent merges into self.recorder.metrics (aggregate +
        # worker-labelled series). False = the pre-delta behavior, kept
        # for the telemetry-overhead benchmark baseline.
        self.telemetry = telemetry
        if snapshot is None and network is None:
            raise InvalidParameterError(
                "BatchQueryExecutor needs a network or a prepared snapshot"
            )
        #: The arena every worker attaches; a live ``network`` is frozen
        #: to a temporary one at :meth:`warm` (removed by :meth:`close`).
        self.snapshot = snapshot
        self._network = network
        self._build_args = build_args
        self._processor: Optional[GPSSNQueryProcessor] = None
        self._temp_arena: Optional[str] = None
        self._serial_state: Optional[WorkerState] = None
        self._thread_states: List[WorkerState] = []
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    @classmethod
    def from_processor(
        cls,
        processor: GPSSNQueryProcessor,
        workers: int = 0,
        backend: str = "auto",
        limits: Optional[ExecutionLimits] = None,
        recorder: Optional[Recorder] = None,
    ) -> "BatchQueryExecutor":
        """An executor whose workers attach ``processor`` itself, frozen
        at :meth:`warm` — its indexes are not rebuilt."""
        executor = cls(
            processor.network,
            workers=workers,
            backend=backend,
            limits=limits,
            recorder=recorder,
        )
        executor._processor = processor
        return executor

    @classmethod
    def from_frozen(
        cls,
        path: Union[str, Path],
        workers: int = 0,
        backend: str = "auto",
        limits: Optional[ExecutionLimits] = None,
        recorder: Optional[Recorder] = None,
        worker_tracing: bool = False,
        worker_explain: bool = False,
    ) -> "BatchQueryExecutor":
        """An executor whose workers memmap-attach the arena at ``path``."""
        return cls(
            None,
            workers=workers,
            backend=backend,
            limits=limits,
            recorder=recorder,
            worker_tracing=worker_tracing,
            worker_explain=worker_explain,
            snapshot=NetworkSnapshot.from_frozen(path),
        )

    # -- lifetime -----------------------------------------------------------

    def warm(self) -> "BatchQueryExecutor":
        """Build every worker's warm state now (idempotent).

        A long-running service pays this once at startup; benchmarks
        call it explicitly so measured runs see steady-state throughput.
        An executor made from a live network freezes it first.
        """
        snapshot = self._ensure_snapshot()
        if self.backend == "serial":
            if self._serial_state is None:
                self._serial_state = WorkerState(
                    snapshot,
                    recorder=_worker_recorder(
                        self.worker_tracing, self.worker_explain
                    ),
                )
        elif self.backend == "thread":
            while len(self._thread_states) < self.workers:
                self._thread_states.append(WorkerState(
                    snapshot,
                    recorder=_worker_recorder(
                        self.worker_tracing, self.worker_explain
                    ),
                ))
        else:
            pool = self._ensure_pool()
            pool.submit(_process_warmup).result()
        return self

    def close(self) -> None:
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        finally:
            if self._temp_arena is not None:
                os.unlink(self._temp_arena)
                self._temp_arena = None
                self.snapshot = None

    def _ensure_snapshot(self) -> NetworkSnapshot:
        """The arena workers attach, freezing the live network on first
        use."""
        if self.snapshot is None:
            self.snapshot = NetworkSnapshot.freeze_temporary(
                self._network, self._build_args, processor=self._processor
            )
            self._temp_arena = self.snapshot.snapshot_path
        return self.snapshot

    def __enter__(self) -> "BatchQueryExecutor":
        return self.warm()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_fork_or_default_context(),
                initializer=_process_initializer,
                initargs=(
                    self._ensure_snapshot(), self.worker_tracing,
                    self.worker_explain,
                ),
            )
        return self._pool

    # -- execution ----------------------------------------------------------

    def submit_shard(
        self,
        items: List[PlanItem],
        worker: int = 0,
        trace_ctx: Optional[TraceContext] = None,
    ) -> "concurrent.futures.Future":
        """Dispatch one shard of planned items asynchronously.

        Only meaningful on the ``process`` backend: the daemon's HTTP
        handler threads each submit their request's items here and block
        on the future, so concurrent requests share the one warm process
        pool without stepping on per-worker state (submissions are
        serialized by :class:`concurrent.futures.ProcessPoolExecutor`,
        which is thread-safe by contract). ``worker`` only labels the
        outcomes for metrics; the resolved value is a
        :class:`ShardResult` whose delta carries the worker's telemetry
        (and, with a ``trace_ctx``, its span forest).
        """
        if self.backend != "process":
            raise InvalidParameterError(
                f"submit_shard needs the process backend, got {self.backend!r}"
            )
        pool = self._ensure_pool()
        return pool.submit(
            _process_run_shard, worker, items, self.limits,
            trace_ctx, self.telemetry,
        )

    def run(
        self,
        queries: Sequence[GPSSNQuery],
        max_groups: Optional[int] = None,
    ) -> List[QueryOutcome]:
        """Answer ``queries`` (one shared refinement cap); see
        :meth:`run_entries` for per-query caps."""
        return self.run_entries([(q, max_groups) for q in queries])

    def run_entries(
        self,
        entries: Sequence[Tuple[GPSSNQuery, Optional[int]]],
    ) -> List[QueryOutcome]:
        """Answer ``(query, max_groups)`` entries; one outcome per entry,
        in input order, never raising for per-query failures."""
        if not entries:
            return []
        started = time.perf_counter()
        with self.recorder.span("service.batch") as span:
            if self.backend == "serial":
                shard_results = [self._run_serial(entries)]
                outcomes = shard_results[0].outcomes
                plan = None
            else:
                plan = plan_batch(entries, self.workers)
                if self.backend == "thread":
                    shard_results = self._run_thread(plan)
                else:
                    shard_results = self._run_process(plan)
                outcomes = self._fan_out(plan, shard_results)
            elapsed = time.perf_counter() - started
            span.set(
                backend=self.backend, workers=self.workers,
                queries=len(entries),
                unique=plan.num_unique if plan else len(entries),
            )
        for result in shard_results:
            if result.delta is not None:
                result.delta.apply(self.recorder.metrics)
        self._record_metrics(outcomes, plan, elapsed)
        return outcomes

    def _run_serial(
        self, entries: Sequence[Tuple[GPSSNQuery, Optional[int]]]
    ) -> ShardResult:
        self.warm()
        state = self._serial_state
        outcomes = [
            state.run_item(
                PlanItem(
                    query=query, max_groups=mg, positions=(i,),
                    request_id=query_request_id(query, mg),
                ),
                self.limits, worker=0,
            )
            for i, (query, mg) in enumerate(entries)
        ]
        if not self.telemetry:
            _drain_worker_tracer(state)
            return ShardResult(outcomes=outcomes)
        return ShardResult(
            outcomes=outcomes, delta=state.collect_delta("0")
        )

    def _run_thread(self, plan: BatchPlan) -> List[ShardResult]:
        self.warm()
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=len(plan.shards)
        ) as pool:
            futures = [
                pool.submit(
                    self._thread_states[w].run_shard,
                    [plan.items[i] for i in plan.shards[w]],
                    self.limits, w, None, self.telemetry,
                )
                for w in range(len(plan.shards))
            ]
            return [f.result() for f in futures]

    def _run_process(self, plan: BatchPlan) -> List[ShardResult]:
        pool = self._ensure_pool()
        futures = [
            pool.submit(
                _process_run_shard,
                w, [plan.items[i] for i in shard], self.limits,
                None, self.telemetry,
            )
            for w, shard in enumerate(plan.shards)
        ]
        return [f.result() for f in futures]

    def _fan_out(
        self, plan: BatchPlan, shard_results: List[ShardResult]
    ) -> List[QueryOutcome]:
        """Re-address per-item outcomes to every original batch position."""
        return fan_out_outcomes(
            plan,
            {
                item_idx: outcome
                for shard, result in zip(plan.shards, shard_results)
                for item_idx, outcome in zip(shard, result.outcomes)
            },
        )

    def _record_metrics(
        self,
        outcomes: List[QueryOutcome],
        plan: Optional[BatchPlan],
        elapsed: float,
    ) -> None:
        """Per-batch and per-worker service gauges/counters."""
        m = self.recorder.metrics
        m.inc("service.batches")
        m.inc("service.queries", len(outcomes))
        m.inc(
            "service.timeouts",
            sum(o.status == STATUS_TIMEOUT for o in outcomes),
        )
        m.inc(
            "service.errors",
            sum(o.status == STATUS_ERROR for o in outcomes),
        )
        if plan is not None:
            m.inc("service.dedup_saved", plan.duplicates_saved)
            m.inc("service.sssp_shared", plan.sssp_shared)
        per_worker: Dict[int, Tuple[int, float]] = {}
        seen_first: set = set()
        for outcome in outcomes:
            if outcome.index in seen_first:  # pragma: no cover - safety
                continue
            seen_first.add(outcome.index)
            m.observe("service.query_latency_sec", outcome.duration_sec)
            count, seconds = per_worker.get(outcome.worker, (0, 0.0))
            per_worker[outcome.worker] = (
                count + 1, seconds + outcome.duration_sec
            )
        for worker, (count, seconds) in sorted(per_worker.items()):
            m.set_gauge(f"service.worker.{worker}.queries", count)
            m.set_gauge(f"service.worker.{worker}.busy_sec", seconds)
            if seconds > 0:
                m.set_gauge(
                    f"service.worker.{worker}.throughput_qps",
                    count / seconds,
                )
        m.set_gauge("service.batch.seconds", elapsed)
        if elapsed > 0:
            m.set_gauge(
                "service.batch.throughput_qps", len(outcomes) / elapsed
            )
