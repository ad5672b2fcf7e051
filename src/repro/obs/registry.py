"""Named counters, gauges, and timing histograms behind one registry.

The :class:`MetricsRegistry` is deliberately minimal — dictionaries of
floats plus mergeable log-bucket histograms — because every number the paper
reports is either a monotone tally (pruned objects, page accesses) or a
per-query distribution (CPU time). The :class:`Recorder` bundles a
registry with a tracer and is the single object the query processor
threads through its phases; :meth:`Recorder.record_query` absorbs a
finished query's :class:`~repro.core.query.QueryStatistics` — including
every :class:`~repro.core.query.PruningCounters` field, verbatim — so
the scattered ad-hoc plumbing of earlier revisions now has one sink.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from .tracer import NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.query import QueryStatistics

__all__ = [
    "ALPHA",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Recorder",
    "WINDOW_SLOTS",
    "process_rss_bytes",
]


def process_rss_bytes() -> float:
    """This process's resident set size in bytes (0.0 if unknown).

    Reads ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` peak-RSS elsewhere. Used for the
    ``process.rss_bytes`` gauge and the frozen-snapshot scale benchmark,
    which measures how little incremental RSS a memmap-attached worker
    adds over the shared page cache.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) * 1024.0
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return float(usage) * (1.0 if usage > 1 << 32 else 1024.0)
    except Exception:  # pragma: no cover - platform without getrusage
        return 0.0


#: Relative accuracy of every reported quantile (DDSketch's alpha;
#: Masson et al., VLDB 2019): the nearest-rank quantile ``x`` of the
#: observed values is reported as some ``x'`` with ``|x' - x| <= ALPHA * x``.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)

#: Slots in a rolling window's ring. A window turns over one slot
#: (``window_sec / WINDOW_SLOTS`` seconds) at a time, so a scrape sees
#: between 90% and 100% of the last ``window_sec`` seconds.
WINDOW_SLOTS = 10


@dataclasses.dataclass(frozen=True)
class HistogramStats:
    """A consistent point-in-time summary of one :class:`Histogram`."""

    count: int
    sum: float
    p50: float
    p95: float
    p99: float
    max: float

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def _nearest_rank(
    items: List[Tuple[int, int]],
    zeros: int,
    count: int,
    low: float,
    high: float,
    percentiles: Sequence[float],
) -> List[float]:
    """Nearest-rank quantiles (``percentiles`` ascending) in one walk
    over the sorted ``(key, count)`` buckets, clamped to ``[low, high]``."""
    if not count:
        return [0.0] * len(percentiles)
    out: List[float] = []
    buckets = iter(items)
    seen, value = zeros, 0.0
    for p in percentiles:
        rank = max(1, math.ceil(p / 100.0 * count))
        while seen < rank:
            key, n = next(buckets)
            seen += n
            value = 2.0 * _GAMMA ** key / (_GAMMA + 1.0)
        out.append(min(max(value, low), high))
    return out


class Histogram:
    """A mergeable value histogram: exact count/sum/min/max plus
    log-bucket quantiles at relative accuracy :data:`ALPHA`.

    A positive value ``v`` lands in bucket ``ceil(log_gamma v)`` with
    ``gamma = (1 + ALPHA) / (1 - ALPHA)``; values <= 0 share one zero
    bucket. A quantile is ``2 gamma^k / (gamma + 1)`` for the bucket
    ``(gamma^(k-1), gamma^k]`` holding the nearest-rank observation — no
    point of that bucket is more than ``ALPHA`` away relatively — clamped
    to ``[min, max]``: within ``ALPHA`` of the exact value for any normal
    float, and exact when every observation is equal. Buckets are
    sparse, so memory grows with
    the logarithm of the value range (about 700 buckets per six
    decades), never with the observation count.

    Merging adds bucket counts, so a histogram merged from disjoint
    parts, in any order, reports the same quantiles as one fed every
    value directly: worker deltas, window slots and scrapes combine
    exactly.

    Thread-safe: observe, merge and reads serialize on a per-histogram
    lock, which pickling drops (a metrics delta ships histograms as is).
    """

    __slots__ = ("_buckets", "_zeros", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def _state(self) -> tuple:
        """A consistent copy of everything but the lock."""
        with self._lock:
            return (
                dict(self._buckets), self._zeros, self._count, self._sum,
                self._min, self._max,
            )

    __getstate__ = _state

    def __setstate__(self, state: tuple) -> None:
        (
            self._buckets, self._zeros, self._count, self._sum,
            self._min, self._max,
        ) = state
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram values must be finite, got {value}")
        key = math.ceil(math.log(value) / _LOG_GAMMA) if value > 0.0 else None
        with self._lock:
            if not self._count or value < self._min:
                self._min = value
            if not self._count or value > self._max:
                self._max = value
            self._count += 1
            self._sum += value
            if key is None:
                self._zeros += 1
            else:
                self._buckets[key] = self._buckets.get(key, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations to this histogram (exactly)."""
        buckets, zeros, count, total, low, high = other._state()
        if not count:
            return
        with self._lock:
            if not self._count or low < self._min:
                self._min = low
            if not self._count or high > self._max:
                self._max = high
            self._count += count
            self._sum += total
            self._zeros += zeros
            for key, n in buckets.items():
                self._buckets[key] = self._buckets.get(key, 0) + n

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def num_buckets(self) -> int:
        """Occupied buckets (the zero bucket included): the memory bound."""
        with self._lock:
            return len(self._buckets) + (1 if self._zeros else 0)

    def _quantiles(self, percentiles: Sequence[float]) -> tuple:
        buckets, zeros, count, total, low, high = self._state()
        values = _nearest_rank(
            sorted(buckets.items()), zeros, count, low, high, percentiles
        )
        return count, total, high, values

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100], within ``ALPHA``."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return self._quantiles((p,))[3][0]

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def stats(self) -> HistogramStats:
        """One consistent summary (count/sum/quantiles read atomically)."""
        count, total, high, (p50, p95, p99) = self._quantiles(
            (50.0, 95.0, 99.0)
        )
        return HistogramStats(
            count=count, sum=total, p50=p50, p95=p95, p99=p99,
            max=high if count else 0.0,
        )

    def __repr__(self) -> str:
        return f"Histogram(n={self.count}, p50={self.p50:.4g}, max={self.max:.4g})"


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, scrape-consistent image of a :class:`MetricsRegistry`.

    This is what a long-lived service hands to the Prometheus exporter:
    counters stay monotone (no mid-flight :meth:`MetricsRegistry.reset`
    zeroing a scraper's deltas), and all values were read under the
    registry lock, so one exposition never mixes two moments in time.
    Each rolling window appears twice: ``windows`` summarizes its last
    ``window_sec`` seconds, ``window_totals`` its whole lifetime (the
    monotone ``_count``/``_sum``).
    """

    counters: Dict[str, float]
    gauges: Dict[str, float]
    histograms: Dict[str, HistogramStats]
    windows: Dict[str, HistogramStats]
    window_totals: Dict[str, HistogramStats]
    window_sec: float


class MetricsRegistry:
    """Named counters (monotone), gauges (last value), and histograms.

    :meth:`observe` feeds lifetime :class:`Histogram`\\ s (the
    benchmark/CLI shape). :meth:`observe_window` feeds a rolling window,
    whose percentiles describe only recent traffic (the daemon's latency
    p50/p95/p99): ``windows[name]`` is a ring of :data:`WINDOW_SLOTS`
    ``(slot, Histogram)`` entries that a scrape merges, and
    ``window_totals[name]`` a lifetime :class:`Histogram` for the
    monotone ``_count``/``_sum``. A value observed at time ``t`` lands
    in slot ``floor(t / slot_sec)``; ``clock`` (``time.monotonic``) is a
    plain attribute a test may replace. All mutation paths are
    thread-safe; a scraping thread should read through :meth:`snapshot`
    rather than the live dicts.
    """

    def __init__(self, window_sec: float = 300.0) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.windows: Dict[str, List[Optional[Tuple[int, Histogram]]]] = {}
        self.window_totals: Dict[str, Histogram] = {}
        self.window_sec = window_sec
        self.clock: Callable[[], float] = time.monotonic
        self._lock = threading.RLock()

    def inc(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = float(value)

    def _histogram(self, name: str) -> Histogram:
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
        return hist

    def observe(self, name: str, value: float) -> None:
        self._histogram(name).observe(value)

    def absorb_histogram(self, name: str, hist: Histogram) -> None:
        """Merge ``hist`` into the named histogram — the parent-side arm
        of worker delta shipping."""
        self._histogram(name).merge(hist)

    def _slot(self) -> int:
        return math.floor(self.clock() * WINDOW_SLOTS / self.window_sec)

    def observe_window(self, name: str, value: float) -> None:
        """Record into the named rolling window (see the class doc)."""
        slot = self._slot()
        with self._lock:
            ring = self.windows.get(name)
            if ring is None:
                ring = self.windows[name] = [None] * WINDOW_SLOTS
                self.window_totals[name] = Histogram()
            entry = ring[slot % WINDOW_SLOTS]
            if entry is None or entry[0] != slot:
                entry = ring[slot % WINDOW_SLOTS] = (slot, Histogram())
            total = self.window_totals[name]
        entry[1].observe(value)
        total.observe(value)

    def counter(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0.0)

    def drain(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, Histogram]]:
        """Atomically hand over counters/gauges/histograms and reset.

        The capture side of worker delta shipping: the returned
        histograms are *removed* from the registry (fresh ones are
        created on next observe), so the caller may read them without
        racing the worker's next chunk. Rolling windows stay — workers
        never populate them; they are parent-side latency state.
        """
        with self._lock:
            counters = self.counters
            gauges = self.gauges
            histograms = self.histograms
            self.counters = {}
            self.gauges = {}
            self.histograms = {}
        return counters, gauges, histograms

    def reset(self) -> None:
        """Zero everything — for short-lived runs (CLI, tests) only.

        A long-lived service must never reset mid-flight: a scraper
        computing counter deltas would see them go backwards. Daemons
        expose :meth:`snapshot` instead and let counters stay monotone
        for the whole process lifetime.
        """
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.windows.clear()
            self.window_totals.clear()

    def snapshot(self) -> MetricsSnapshot:
        """A frozen scrape-consistent copy (see :class:`MetricsSnapshot`)."""
        oldest = self._slot() - WINDOW_SLOTS
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            histograms = list(self.histograms.items())
            rings = [
                (name, [e[1] for e in ring if e is not None and e[0] > oldest])
                for name, ring in self.windows.items()
            ]
            totals = list(self.window_totals.items())
        windows: Dict[str, HistogramStats] = {}
        for name, live in rings:
            merged = Histogram()
            for hist in live:
                merged.merge(hist)
            windows[name] = merged.stats()
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            histograms={name: h.stats() for name, h in histograms},
            windows=windows,
            window_totals={name: h.stats() for name, h in totals},
            window_sec=self.window_sec,
        )

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """A plain-data snapshot (JSON-serializable)."""
        snap = self.snapshot()
        doc: Dict[str, Dict[str, float]] = {
            "counters": snap.counters,
            "gauges": snap.gauges,
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.sum,
                    "mean": h.mean,
                    "p50": h.p50,
                    "p95": h.p95,
                    "max": h.max,
                }
                for name, h in snap.histograms.items()
            },
        }
        if snap.windows:
            doc["windows"] = {
                name: {
                    "window_sec": snap.window_sec,
                    "count": w.count,
                    "sum": w.sum,
                    "p50": w.p50,
                    "p95": w.p95,
                    "p99": w.p99,
                    "max": w.max,
                    "total_count": snap.window_totals[name].count,
                    "total_sum": snap.window_totals[name].sum,
                }
                for name, w in snap.windows.items()
            }
        return doc


class Recorder:
    """One tracer + metrics registry + explain funnel, threaded through
    the processor.

    The default construction (``Recorder()``) pairs a
    :class:`NullTracer` and a :class:`~repro.obs.funnel.NullExplain`
    with a live registry: per-phase span timing and per-rule funnel
    accounting are off (zero hot-path overhead) while the cheap
    end-of-query metric absorption stays on. Pass ``tracer=Tracer()`` to
    capture spans, or use :meth:`explaining` for the full EXPLAIN
    ANALYZE configuration (spans + funnel).
    """

    __slots__ = ("tracer", "metrics", "explain")

    def __init__(
        self,
        tracer: Optional[object] = None,
        metrics: Optional[MetricsRegistry] = None,
        explain: Optional[object] = None,
    ) -> None:
        # Imported here, not at module top: funnel reuses Histogram from
        # this module, so the default-wiring import runs the other way.
        from .funnel import NULL_EXPLAIN

        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.explain = explain if explain is not None else NULL_EXPLAIN

    @classmethod
    def traced(cls) -> "Recorder":
        """A recorder with an active span tracer."""
        return cls(tracer=Tracer())

    @classmethod
    def explaining(cls) -> "Recorder":
        """A recorder with span tracing *and* funnel accounting on."""
        from .funnel import ExplainRecorder

        return cls(tracer=Tracer(), explain=ExplainRecorder())

    @property
    def active(self) -> bool:
        """True when span tracing is on."""
        return bool(getattr(self.tracer, "active", False))

    @property
    def explaining_active(self) -> bool:
        """True when funnel (explain) accounting is on."""
        return bool(getattr(self.explain, "active", False))

    def span(self, name: str):
        return self.tracer.span(name)

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.metrics.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)

    def record_query(self, stats: "QueryStatistics") -> None:
        """Absorb one finished query's statistics into the registry.

        Every :class:`PruningCounters` field lands under ``pruning.*``
        unchanged (the fig7a-d powers recompute bit-identically from
        these), the scalar measurements under ``query.*`` histograms,
        and the Dijkstra/oracle tallies under ``dijkstra.*`` counters.
        """
        m = self.metrics
        m.inc("query.count")
        m.observe("query.cpu_time_sec", stats.cpu_time_sec)
        m.observe("query.page_accesses", stats.page_accesses)
        m.observe("query.candidate_users", stats.candidate_users)
        m.observe("query.candidate_pois", stats.candidate_pois)
        m.observe("query.groups_refined", stats.groups_refined)
        m.inc("dijkstra.searches", stats.dijkstra_searches)
        m.inc("dijkstra.cache_hits", stats.dijkstra_cache_hits)
        for field in dataclasses.fields(stats.pruning):
            m.inc(f"pruning.{field.name}", getattr(stats.pruning, field.name))
        for phase, seconds in stats.phase_times.items():
            m.observe(f"phase.{phase}", seconds)
