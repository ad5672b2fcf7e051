"""End-to-end and per-layer metrics computed from a workload's passes.

End-to-end metrics come from an untraced pass; per-layer metrics from a
traced pass (its spans, the ``QueryStatistics`` every outcome carries,
and the service's update reports). Per-layer times and counts are means
per measured request, so the layers' ``*.self_ms`` add up to
``service.request_ms``. Every time is reported at the reference speed
(:mod:`perfbench.speed`): end-to-end request times each by the probes
around it, per-layer times by the median probe of the pass.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from . import speed
from .tracing import REQUEST_ROOTS, SpanIndex

MB = 1024.0 * 1024.0

#: ``name -> unit`` of the end-to-end metrics (untraced runs).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: ``name -> unit`` of the per-layer metrics (traced runs).
PER_LAYER: Dict[str, str] = {
    "service.request_ms": "ms",
    "service.overhead_ms": "ms",
    "service.self_ms": "ms",
    "service.worker_busy_ratio": "ratio",
    "service.rejected": "count",
    "io.freeze_s": "s",
    "io.attach_s": "s",
    "io.arena_mb": "MB",
    "index.build_s": "s",
    "index.page_accesses": "count",
    "core.traverse_ms": "ms",
    "core.refine_ms": "ms",
    "core.self_ms": "ms",
    "core.candidate_users": "count",
    "core.candidate_pois": "count",
    "core.groups_refined": "count",
    "core.pairs_examined": "count",
    "core.pair_pruning_power": "ratio",
    "roadnet.sssp_calls": "count",
    "roadnet.cache_hit_ratio": "ratio",
    "roadnet.sssp_ms": "ms",
    "roadnet.oracle_ms": "ms",
    "roadnet.self_ms": "ms",
    "roadnet.p2p_calls": "count",
    "roadnet.p2p_ms": "ms",
    "dynamic.maintain_ms": "ms",
    "dynamic.reanswer_ms": "ms",
    "dynamic.self_ms": "ms",
    "dynamic.skip_ratio": "ratio",
    "dynamic.compactions": "count",
    "dynamic.compact_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Layers whose self time is reported, in call order.
LAYERS = ("service", "dynamic", "core", "roadnet")


def percentile_ms(latencies_s: List[float], q: float) -> float:
    return float(np.percentile(latencies_s, q)) * 1000.0


def end_to_end(m) -> Dict[str, float]:
    latencies = m.scaled_latencies_s
    return {
        "setup_s": statistics.median(m.setup_s),
        "request_p50_ms": percentile_ms(latencies, 50),
        "request_p95_ms": percentile_ms(latencies, 95),
        # One closed-loop client: requests answered per second of waiting.
        "requests_per_s": m.ok / sum(latencies),
        "peak_rss_mb": m.peak_rss_mb,
    }


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def per_layer(m, spans, untraced_p50_ms: float
              ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics of a traced pass, plus each layer's self ms per
    request (the "where the time goes" table)."""
    # Span and outcome times are scaled by the pass's median probe.
    scale = speed.scaled(1.0, statistics.median(m.probes))
    idx = SpanIndex(spans)
    n = len(m.request_ids)
    wanted = set(m.request_ids)
    roots = [
        s for s in idx.spans
        if s.parent is None and s.name in REQUEST_ROOTS
        and s.request_id in wanted
    ]
    under = idx.under_requests(wanted)
    setup = [s for s in idx.spans if idx.root_of(s).name not in REQUEST_ROOTS]

    def total(name: str) -> float:
        return sum(s.duration for s in under if s.name == name)

    root_sec = sum(s.duration for s in roots)
    # Time attributed to a layer other than the service: the topmost
    # spans of the other layers below the request roots.
    covered = sum(
        s.duration for s in under
        if s.layer != "service" and idx.by_id[s.parent].layer == "service"
    )
    answers = [s for s in under if s.name == "core.answer"]
    if m.outcomes:
        stats = [o.stats for o in m.outcomes if o.stats is not None]
        worker_sec = sum(o.duration_sec for o in m.outcomes)
    else:
        stats = [s.stats for s in answers]
        worker_sec = covered
    layer_sec: Dict[str, float] = defaultdict(float)
    for span in under:
        layer_sec[span.layer] += idx.self_sec(span)
    for root in roots:
        layer_sec["service"] += idx.self_sec(root)
    if m.outcomes and not answers:
        # Out-of-process workers: their query time is known only from
        # the outcomes, and all of it is spent answering.
        layer_sec["core"] += worker_sec
        layer_sec["service"] -= worker_sec
        covered = worker_sec
    searches = sum(s.dijkstra_searches for s in stats)
    hits = sum(s.dijkstra_cache_hits for s in stats)
    oracle_sec = sum(
        s.duration for s in under
        if s.name == "roadnet.oracle"
        and idx.by_id[s.parent].name != "roadnet.oracle"
    )
    compactions = [s for s in under if s.name == "dynamic.compact"]
    skipped = sum(r["skipped"] for r in m.update_reports)
    dirty = sum(r["dirty"] for r in m.update_reports)
    flush_sec = total("dynamic.flush")
    per_request = {
        layer: scale * 1000.0 * layer_sec[layer] / n for layer in LAYERS
    }
    metrics: Dict[str, float] = {
        "service.request_ms": 1000.0 * root_sec / n,
        "service.overhead_ms": 1000.0 * (root_sec - worker_sec) / n,
        "service.self_ms": layer_sec["service"] * 1000.0 / n,
        "service.worker_busy_ratio": worker_sec / (m.workers * m.phase_s),
        "service.rejected": float(m.rejected),
        "io.freeze_s": _median(s.duration for s in setup
                               if s.name == "io.freeze"),
        "io.attach_s": _median(s.duration for s in setup
                               if s.name == "io.attach"),
        "io.arena_mb": _mean(b / MB for b in m.arena_bytes),
        "index.build_s": _median(s.duration for s in setup
                                 if s.name == "index.build"),
        "index.page_accesses": _mean(s.page_accesses for s in stats),
        "core.traverse_ms": 1000.0 * _mean(
            s.phase_times.get("traverse", 0.0) for s in stats),
        "core.refine_ms": 1000.0 * _mean(
            s.phase_times.get("refine", 0.0) for s in stats),
        "core.self_ms": layer_sec["core"] * 1000.0 / n,
        "core.candidate_users": _mean(s.candidate_users for s in stats),
        "core.candidate_pois": _mean(s.candidate_pois for s in stats),
        "core.groups_refined": _mean(s.groups_refined for s in stats),
        "core.pairs_examined": _mean(
            s.pruning.candidate_pairs_examined for s in stats),
        "core.pair_pruning_power": _mean(
            s.pruning.pair_pruning_power() for s in stats),
        "roadnet.sssp_calls": _mean(s.dijkstra_searches for s in stats),
        "roadnet.cache_hit_ratio": (
            hits / (hits + searches) if hits + searches else 0.0),
        "roadnet.sssp_ms": 1000.0 * total("roadnet.sssp") / n,
        "roadnet.oracle_ms": 1000.0 * oracle_sec / n,
        "roadnet.self_ms": layer_sec["roadnet"] * 1000.0 / n,
        "roadnet.p2p_calls": sum(
            1 for s in under if s.name == "roadnet.p2p") / n,
        "roadnet.p2p_ms": 1000.0 * total("roadnet.p2p") / n,
        "dynamic.maintain_ms": 1000.0 * (
            total("dynamic.maintain") + flush_sec) / n,
        "dynamic.reanswer_ms": 1000.0 * (
            total("dynamic.reanswer") - flush_sec) / n,
        "dynamic.self_ms": layer_sec["dynamic"] * 1000.0 / n,
        "dynamic.skip_ratio": (
            skipped / (skipped + dirty) if skipped + dirty else 0.0),
        "dynamic.compactions": float(len(compactions)),
        "dynamic.compact_ms": 1000.0 * _mean(
            s.duration for s in compactions),
        "trace.coverage": covered / sum(m.latencies_s),
        "trace.overhead": (
            percentile_ms(m.scaled_latencies_s, 50) / untraced_p50_ms),
    }
    for name, unit in PER_LAYER.items():
        if unit in ("ms", "s"):
            metrics[name] *= scale
    return metrics, per_request
