"""Serializable telemetry deltas shipped from workers to the parent.

The batch executor's workers (the serial state and each pool process)
each own a *private*
:class:`~repro.obs.registry.Recorder`: counters, histograms, and the
pruning funnel accumulate in the worker and — before this module —
died with the shard (``_drain_worker_tracer`` silently discarded
everything). A :class:`MetricsDelta` closes that gap: after each shard
(or daemon request) the worker *captures* its recorder — snapshot the
registry and funnel, then reset them — and piggybacks the plain-data
delta on the result envelope. Captures are therefore **disjoint**:
merging deltas is pure summation, and applying them to the parent's
long-lived :class:`~repro.obs.registry.MetricsRegistry` reproduces
exactly the counts a serial run would have recorded directly.

Shapes:

* ``histograms`` — the worker's :class:`~repro.obs.registry.Histogram`
  objects themselves. A histogram pickles without its lock and merges
  by bucket addition, so the parent's quantiles equal a serial run's.
* ``funnel`` — one dict per explain phase carrying
  ``visited``/``survived`` and per-rule prune tallies with margin
  histograms, absorbable by
  :meth:`~repro.obs.funnel.ExplainRecorder.absorb`.
* ``trace`` — at most one sampled span forest (JSONL lines, bounded by
  :data:`MAX_TRACE_SPANS`) keyed by the originating request id, for the
  daemon's end-to-end ``/trace/<id>`` merge.

Everything here is plain data (dataclasses of dicts, lists, floats and
histograms), so a delta pickles across the process-pool boundary.

Application is two-fold: every counter/gauge/histogram lands once under
its own name (the aggregate the funnel dashboards and regression gates
read — identical across the serial and process backends) and once under
``worker.<label>.<name>`` (the per-worker series ``/status`` renders
and the Prometheus exporter exposes as ``gpssn_worker_*{worker="..."}``
families).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .funnel import ExplainRecorder
from .registry import Histogram, MetricsRegistry, Recorder

__all__ = [
    "MAX_TRACE_SPANS",
    "MetricsDelta",
    "WORKER_PREFIX",
    "split_worker_metric",
]

#: Hard ceiling on span-forest lines one delta may carry. ``spans_to_
#: jsonl`` emits parents before children, so a prefix is still a valid
#: forest; anything past the cap is counted as dropped, never silent.
MAX_TRACE_SPANS = 512

#: Registry-name prefix encoding the ``worker`` label. The exporter and
#: dashboard treat ``worker.<label>.<metric>`` as a labelled series of
#: ``<metric>``; keeping the label *outside* the metric name means the
#: unlabelled aggregates (``pruning.*`` etc.) never double-count.
WORKER_PREFIX = "worker."


def split_worker_metric(name: str) -> Optional[tuple]:
    """``("<metric>", "<label>")`` for ``worker.<label>.<metric>`` names,
    else ``None``."""
    if not name.startswith(WORKER_PREFIX):
        return None
    label, _, metric = name[len(WORKER_PREFIX):].partition(".")
    if not label or not metric:
        return None
    return metric, label


def _funnel_doc(explain) -> Dict[str, dict]:
    """Plain-data image of an explain recorder's phase funnels."""
    doc: Dict[str, dict] = {}
    for funnel in explain.iter_phases():
        rules: Dict[str, dict] = {}
        for rule, stats in funnel.rules.items():
            entry: Dict[str, object] = {"pruned": stats.pruned}
            if stats.margins.count:
                entry["margins"] = stats.margins
            rules[rule] = entry
        doc[funnel.name] = {
            "visited": funnel.visited,
            "survived": funnel.survived,
            "rules": rules,
        }
    return doc


@dataclass
class MetricsDelta:
    """One worker's telemetry since its previous capture (plain data)."""

    worker: Optional[str] = None
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    #: phase -> {visited, survived, rules: {rule: {pruned, margins}}}
    funnel: Dict[str, dict] = field(default_factory=dict)
    #: At most one sampled trace: {"request_id", "spans", "funnel",
    #: "rule_counts", "shard_sec"} (see executor._run_traced_items).
    trace: Optional[dict] = None

    @classmethod
    def capture(
        cls,
        recorder: Recorder,
        worker: Optional[str] = None,
        trace: Optional[dict] = None,
    ) -> "MetricsDelta":
        """Capture-and-reset ``recorder``'s registry + funnel.

        After this returns, the recorder is empty again, so successive
        captures are disjoint and their merge/apply is exact summation.
        The funnel is read from ``recorder.explain`` when active and
        cleared the same way.
        """
        counters, gauges, histograms = recorder.metrics.drain()
        funnel: Dict[str, dict] = {}
        explain = recorder.explain
        if getattr(explain, "active", False):
            funnel = _funnel_doc(explain)
            explain.clear()
        return cls(
            worker=worker,
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            funnel=funnel,
            trace=trace,
        )

    @property
    def empty(self) -> bool:
        return not (
            self.counters or self.gauges or self.histograms
            or self.funnel or self.trace
        )

    def merge(self, other: "MetricsDelta") -> "MetricsDelta":
        """A new delta equal to both inputs' work combined.

        Counter merge is addition, gauge merge is last-writer-wins
        (``other``), histogram merge adds buckets, funnel merge sums
        tallies; at most one trace survives (the first — traces are
        head-sampled, not aggregated). Associative except for gauge
        ordering. Neither input is modified.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        gauges = dict(self.gauges)
        gauges.update(other.gauges)
        histograms: Dict[str, Histogram] = {}
        for source in (self.histograms, other.histograms):
            for name, hist in source.items():
                histograms.setdefault(name, Histogram()).merge(hist)
        funnel = _merge_funnels(self.funnel, other.funnel)
        return MetricsDelta(
            worker=self.worker if self.worker == other.worker else None,
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            funnel=funnel,
            trace=self.trace if self.trace is not None else other.trace,
        )

    def apply(
        self,
        registry: MetricsRegistry,
        explain=None,
        labelled: bool = True,
    ) -> None:
        """Fold this delta into a parent registry (and funnel recorder).

        Every metric lands under its own name — the aggregate that must
        match a serial run exactly — and, when ``labelled`` and the
        delta carries a worker label, again under
        ``worker.<label>.<name>`` for the per-worker plane. ``explain``
        (an :class:`~repro.obs.funnel.ExplainRecorder` or compatible
        ``absorb`` target) receives the funnel delta.
        """
        label = self.worker if labelled else None
        for name, value in self.counters.items():
            registry.inc(name, value)
            if label is not None:
                registry.inc(f"{WORKER_PREFIX}{label}.{name}", value)
        for name, value in self.gauges.items():
            registry.set_gauge(name, value)
            if label is not None:
                registry.set_gauge(f"{WORKER_PREFIX}{label}.{name}", value)
        for name, hist in self.histograms.items():
            registry.absorb_histogram(name, hist)
            if label is not None:
                registry.absorb_histogram(
                    f"{WORKER_PREFIX}{label}.{name}", hist
                )
        if explain is not None and self.funnel:
            explain.absorb(self.funnel)

    def to_explain(self) -> ExplainRecorder:
        """A standalone funnel recorder holding this delta's funnel."""
        explain = ExplainRecorder()
        explain.absorb(self.funnel)
        return explain


def _merge_funnels(
    a: Dict[str, dict], b: Dict[str, dict]
) -> Dict[str, dict]:
    if not a:
        return {k: dict(v) for k, v in b.items()}
    if not b:
        return {k: dict(v) for k, v in a.items()}
    merged: Dict[str, dict] = {}
    for phase in list(a) + [p for p in b if p not in a]:
        pa, pb = a.get(phase), b.get(phase)
        if pa is None or pb is None:
            merged[phase] = dict(pa or pb)
            continue
        rules: Dict[str, dict] = {}
        for rule in list(pa["rules"]) + [
            r for r in pb["rules"] if r not in pa["rules"]
        ]:
            ra, rb = pa["rules"].get(rule), pb["rules"].get(rule)
            if ra is None or rb is None:
                rules[rule] = dict(ra or rb)
                continue
            entry: Dict[str, object] = {
                "pruned": ra["pruned"] + rb["pruned"]
            }
            if "margins" in ra or "margins" in rb:
                margins = entry["margins"] = Histogram()
                for side in (ra, rb):
                    if "margins" in side:
                        margins.merge(side["margins"])
            rules[rule] = entry
        merged[phase] = {
            "visited": pa["visited"] + pb["visited"],
            "survived": pa["survived"] + pb["survived"],
            "rules": rules,
        }
    return merged
