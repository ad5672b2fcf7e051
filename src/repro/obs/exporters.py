"""Exporters for recorded traces and metrics.

Three output shapes cover the consumers we have:

* :func:`write_trace_jsonl` / :func:`spans_to_jsonl` — one JSON object
  per span (id/parent links encode the tree), for offline analysis and
  the ``gpssn query --trace`` flag;
* :func:`prometheus_text` — the Prometheus text exposition format for a
  :class:`~repro.obs.registry.MetricsSnapshot` (``/metrics`` and
  ``--metrics-out``);
* :func:`phase_table` — a human-readable per-phase timing table, shared
  by the CLI and the experiment harness.

:func:`format_stats_line` is the one place the CLI's
``[cpu … ms, … page accesses, …]`` summary is built, so interactive
output and harness reports cannot drift apart.
"""

from __future__ import annotations

import json
import re
from typing import IO, Dict, List, Optional, Sequence, Union

from .delta import split_worker_metric
from .registry import MetricsSnapshot
from .tracer import Span, aggregate_spans

__all__ = [
    "explain_to_json",
    "format_stats_line",
    "phase_table",
    "prometheus_text",
    "spans_to_jsonl",
    "write_trace_jsonl",
]


def format_stats_line(stats) -> str:
    """The one-line query summary printed after every CLI query."""
    return (
        f"[cpu {stats.cpu_time_sec * 1000:.1f} ms, "
        f"{stats.page_accesses} page accesses, "
        f"{stats.groups_refined} groups refined]"
    )


# ---------------------------------------------------------------------------
# JSON-lines trace dump
# ---------------------------------------------------------------------------


def spans_to_jsonl(roots: Sequence[Span]) -> List[str]:
    """Serialize a span forest to JSON lines (parents before children).

    Each line carries ``id``, ``parent`` (``None`` for roots), ``name``,
    ``start`` (seconds, relative to the earliest root so traces are
    stable across runs), ``duration`` (seconds), and any attributes.
    """
    lines: List[str] = []
    if not roots:
        return lines
    epoch = min(root.start for root in roots)
    next_id = 0

    def emit(span: Span, parent_id: Optional[int]) -> None:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        record: Dict[str, object] = {
            "id": span_id,
            "parent": parent_id,
            "name": span.name,
            "start": round(span.start - epoch, 9),
            "duration": round(span.duration, 9),
        }
        if span.attributes:
            record["attrs"] = span.attributes
        lines.append(json.dumps(record))
        for child in span.children:
            emit(child, span_id)

    for root in roots:
        emit(root, None)
    return lines


def write_trace_jsonl(roots: Sequence[Span], out: Union[str, IO[str]]) -> int:
    """Write the span forest to ``out`` (path or file); returns span count."""
    lines = spans_to_jsonl(roots)
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(out, "write"):
        out.write(text)  # type: ignore[union-attr]
    else:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    return len(lines)


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "gpssn_" + _NAME_RE.sub("_", name)


# Prometheus label *values* may hold any UTF-8 but backslash, double
# quote, and newline must be escaped in the text format; the same
# permissive-input stance as _prom_name takes for metric names.
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def _prom_label_value(value: str) -> str:
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


#: Metric-name prefixes -> HELP text; matched longest-prefix-first, with
#: a generic fallback so every exported family carries a HELP line.
METRIC_HELP = {
    "query.": "Per-query measurement of the GP-SSN pipeline",
    "pruning.": "Pruning tally absorbed from QueryStatistics",
    "phase.": "Per-phase wall time in seconds",
    "dijkstra.": "Distance-oracle Dijkstra statistics",
    "dist_engine.": "Distance-engine internal statistics",
    "traverse.": "Algorithm-2 traversal statistics",
    "refine.": "Algorithm-2 refinement statistics",
    "explain.": "Pruning-funnel (EXPLAIN ANALYZE) statistics",
    "service.": "Query service (batch executor and serve daemon) statistics",
    "http.": "gpssn serve HTTP request statistics",
    "snapshot.": "Frozen-snapshot (memmap arena) attach statistics",
    "process.": "Process-level resource gauges",
    "obs.": "Observability-plane internals (delta shipping, span drops)",
}
_DEFAULT_HELP = "GP-SSN metric"


def _prom_help(name: str) -> str:
    best = _DEFAULT_HELP
    best_len = -1
    for prefix, text in METRIC_HELP.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best = text
            best_len = len(prefix)
    return best


def prometheus_text(
    snapshot: MetricsSnapshot, explain=None, uptime_sec: Optional[float] = None
) -> str:
    """Prometheus text exposition of a registry snapshot.

    Counters and gauges map 1:1; each histogram becomes ``_count`` /
    ``_sum`` plus ``quantile`` gauges for p50/p95/p99 and a ``_max``
    gauge. Rolling windows export their quantiles over the window while
    ``_count``/``_sum`` come from the window's lifetime totals and stay
    monotone (the shape a scraper's delta math needs). Every family gets
    ``# HELP`` and ``# TYPE`` headers. Passing an active
    :class:`~repro.obs.funnel.ExplainRecorder` appends the per-rule
    prune counters with ``phase``/``rule`` labels; ``uptime_sec`` adds
    the conventional ``process_uptime_seconds`` gauge.

    ``snapshot`` is the frozen :class:`MetricsSnapshot` taken by
    :meth:`~repro.obs.registry.MetricsRegistry.snapshot`, so one
    exposition never mixes two moments in time.
    """
    out: List[str] = []

    def header(prom: str, name: str, kind: str) -> None:
        out.append(f"# HELP {prom} {_prom_help(name)}")
        out.append(f"# TYPE {prom} {kind}")

    def split_labelled(names) -> tuple:
        """Partition registry names into plain names and per-worker
        families (``metric -> [(label, name)]``, both levels sorted) so
        every ``gpssn_worker_*`` family renders as one contiguous block
        with a single HELP/TYPE header."""
        plain: List[str] = []
        families: Dict[str, List[tuple]] = {}
        for name in sorted(names):
            parts = split_worker_metric(name)
            if parts is None:
                plain.append(name)
            else:
                metric, label = parts
                families.setdefault(metric, []).append((label, name))
        for series in families.values():
            series.sort()
        return plain, families

    def worker_header(metric: str, kind: str) -> str:
        prom = "gpssn_worker_" + _NAME_RE.sub("_", metric)
        out.append(f"# HELP {prom} {_prom_help(metric)} (per worker)")
        out.append(f"# TYPE {prom} {kind}")
        return prom

    if uptime_sec is not None:
        out.append(
            "# HELP process_uptime_seconds Seconds since service start"
        )
        out.append("# TYPE process_uptime_seconds gauge")
        out.append(f"process_uptime_seconds {float(uptime_sec):g}")
    plain_counters, worker_counters = split_labelled(snapshot.counters)
    for name in plain_counters:
        prom = _prom_name(name)
        header(prom, name, "counter")
        out.append(f"{prom} {snapshot.counters[name]:g}")
    for metric in sorted(worker_counters):
        prom = worker_header(metric, "counter")
        for label, name in worker_counters[metric]:
            out.append(
                f'{prom}{{worker="{_prom_label_value(label)}"}} '
                f"{snapshot.counters[name]:g}"
            )
    plain_gauges, worker_gauges = split_labelled(snapshot.gauges)
    for name in plain_gauges:
        prom = _prom_name(name)
        header(prom, name, "gauge")
        out.append(f"{prom} {snapshot.gauges[name]:g}")
    for metric in sorted(worker_gauges):
        prom = worker_header(metric, "gauge")
        for label, name in worker_gauges[metric]:
            out.append(
                f'{prom}{{worker="{_prom_label_value(label)}"}} '
                f"{snapshot.gauges[name]:g}"
            )
    plain_hists, worker_hists = split_labelled(snapshot.histograms)
    for name in plain_hists:
        hist = snapshot.histograms[name]
        prom = _prom_name(name)
        header(prom, name, "summary")
        out.append(f'{prom}{{quantile="0.5"}} {hist.p50:g}')
        out.append(f'{prom}{{quantile="0.95"}} {hist.p95:g}')
        out.append(f'{prom}{{quantile="0.99"}} {hist.p99:g}')
        out.append(f"{prom}_count {hist.count}")
        out.append(f"{prom}_sum {hist.sum:g}")
        header(f"{prom}_max", name, "gauge")
        out.append(f"{prom}_max {hist.max:g}")
    for metric in sorted(worker_hists):
        prom = worker_header(metric, "summary")
        for label, name in worker_hists[metric]:
            hist = snapshot.histograms[name]
            worker = f'worker="{_prom_label_value(label)}"'
            out.append(f'{prom}{{{worker},quantile="0.5"}} {hist.p50:g}')
            out.append(f'{prom}{{{worker},quantile="0.95"}} {hist.p95:g}')
            out.append(f'{prom}{{{worker},quantile="0.99"}} {hist.p99:g}')
            out.append(f"{prom}_count{{{worker}}} {hist.count}")
            out.append(f"{prom}_sum{{{worker}}} {hist.sum:g}")
    for name in sorted(snapshot.windows):
        window = snapshot.windows[name]
        total = snapshot.window_totals[name]
        prom = _prom_name(name)
        header(prom, name, "summary")
        out.append(f'{prom}{{quantile="0.5"}} {window.p50:g}')
        out.append(f'{prom}{{quantile="0.95"}} {window.p95:g}')
        out.append(f'{prom}{{quantile="0.99"}} {window.p99:g}')
        out.append(f"{prom}_count {total.count}")
        out.append(f"{prom}_sum {total.sum:g}")
        header(f"{prom}_window_seconds", name, "gauge")
        out.append(f"{prom}_window_seconds {snapshot.window_sec:g}")
    if explain is not None and getattr(explain, "active", False):
        prom = "gpssn_explain_pruned_total"
        out.append(f"# HELP {prom} Candidates pruned per explain rule")
        out.append(f"# TYPE {prom} counter")
        for funnel in explain.iter_phases():
            for rule in sorted(funnel.rules):
                out.append(
                    f'{prom}{{phase="{_prom_label_value(funnel.name)}"'
                    f',rule="{_prom_label_value(rule)}"}} '
                    f"{funnel.rules[rule].pruned}"
                )
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Explain (pruning funnel) JSON export
# ---------------------------------------------------------------------------


def explain_to_json(explain, stats=None, indent: Optional[int] = 2) -> str:
    """Serialize a recorded pruning funnel as a JSON document.

    The payload carries a ``schema`` tag, the per-phase funnels (with
    margin summaries), per-rule totals across phases, and the registry
    metadata (lemma/figure/margin unit) of every referenced rule.
    ``stats`` optionally embeds the query's cost summary.
    """
    from .explain import rule_info

    phases = explain.as_dict()
    referenced = sorted({
        rule for funnel in phases.values() for rule in funnel["rules"]
    })
    payload: Dict[str, object] = {
        "schema": "gpssn.explain/1",
        "phases": phases,
        "rule_totals": explain.rule_counts(),
        "rules": {rule: rule_info(rule) for rule in referenced},
    }
    if stats is not None:
        payload["stats"] = {
            "cpu_time_sec": stats.cpu_time_sec,
            "page_accesses": stats.page_accesses,
            "candidate_users": stats.candidate_users,
            "candidate_pois": stats.candidate_pois,
            "groups_refined": stats.groups_refined,
        }
    return json.dumps(payload, indent=indent, sort_keys=True)


# ---------------------------------------------------------------------------
# Per-phase timing table
# ---------------------------------------------------------------------------


def phase_table(
    roots: Sequence[Span],
    title: str = "Per-phase timing",
    relative_to: str = "query",
) -> str:
    """Render the span forest as an aggregated per-phase table.

    One row per span name with call count, total/mean milliseconds, and
    the share of the total ``relative_to`` span time (the per-query root
    by convention), sorted by descending total.
    """
    # Imported here, not at module top: the processor imports this
    # package, and ``repro.experiments`` imports the processor — the
    # cycle only resolves after both modules finish loading.
    from ..experiments.reporting import format_table

    stats = aggregate_spans(roots, relative_to=relative_to)
    headers = ["phase", "calls", "total (ms)", "mean (ms)", "max (ms)", "share"]
    rows = []
    ordered = sorted(
        stats.items(), key=lambda item: item[1]["total_sec"], reverse=True
    )
    for name, entry in ordered:
        share = entry.get("share")
        rows.append([
            name,
            int(entry["count"]),
            round(entry["total_sec"] * 1000, 3),
            round(entry["mean_sec"] * 1000, 3),
            round(entry["max_sec"] * 1000, 3),
            f"{share:.1%}" if share is not None else "-",
        ])
    return format_table(headers, rows, title=title)
