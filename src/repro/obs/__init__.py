"""Observability: hierarchical span tracing plus a metrics registry.

The GP-SSN pipeline's headline numbers are all *measurements* — CPU
time, page accesses, pruning power — and this package is the single
place they flow through:

* :mod:`repro.obs.tracer` — a hierarchical span tracer with a
  context-manager API (:class:`Tracer`) and a zero-overhead
  :class:`NullTracer` default, so the hot path pays nothing unless a
  caller opts in;
* :mod:`repro.obs.registry` — named counters, gauges, timing
  histograms and rolling windows (:class:`MetricsRegistry`), all on one
  mergeable log-bucket :class:`Histogram`, bundled with a tracer behind
  one :class:`Recorder` object that the query processor threads through
  its phases;
* :mod:`repro.obs.exporters` — JSON-lines trace dumps, Prometheus-style
  text, and human-readable per-phase tables;
* :mod:`repro.obs.funnel` / :mod:`repro.obs.explain` — the EXPLAIN
  ANALYZE layer: per-rule pruning funnels (visited → pruned → survived,
  with bound-tightness margins) recorded at every pruning site, a
  zero-overhead :class:`NullExplain` default, and the tree-of-phases
  report renderer;
* :mod:`repro.obs.delta` / :mod:`repro.obs.context` — the cross-process
  telemetry plane: capture-and-reset :class:`MetricsDelta` envelopes
  workers ship back with their results (counters, gauges, mergeable
  histograms, funnel deltas, sampled span forests) and the picklable
  :class:`TraceContext` that carries head-sampled trace decisions
  across the pool boundary;
* :mod:`repro.obs.profiler` — a stdlib-only sampling profiler
  (``sys._current_frames`` / ``SIGPROF``) with collapsed-stack and
  flamegraph-HTML export plus per-phase CPU attribution keyed off the
  tracer's active spans.
"""

from .registry import (
    Histogram,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
    Recorder,
    process_rss_bytes,
)
from .tracer import NullTracer, Span, Tracer, aggregate_spans
from .exporters import (
    explain_to_json,
    format_stats_line,
    phase_table,
    prometheus_text,
    spans_to_jsonl,
    write_trace_jsonl,
)
from .funnel import NULL_EXPLAIN, ExplainRecorder, NullExplain, PhaseFunnel
from .explain import RULES, explain_report, rule_info
from .context import TraceContext, head_sample
from .delta import MetricsDelta, split_worker_metric
from .profiler import ProfileReport, SamplingProfiler

__all__ = [
    "ExplainRecorder",
    "MetricsDelta",
    "ProfileReport",
    "SamplingProfiler",
    "TraceContext",
    "head_sample",
    "split_worker_metric",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_EXPLAIN",
    "NullExplain",
    "NullTracer",
    "PhaseFunnel",
    "RULES",
    "Recorder",
    "Span",
    "Tracer",
    "aggregate_spans",
    "explain_report",
    "explain_to_json",
    "format_stats_line",
    "phase_table",
    "process_rss_bytes",
    "prometheus_text",
    "rule_info",
    "spans_to_jsonl",
    "write_trace_jsonl",
]
