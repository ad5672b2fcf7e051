#!/usr/bin/env python3
"""Guard the pruning-power, kernel-CPU, and serve-overhead gates.

Three independent gates, all blocking in CI:

* **pruning power** — compares a freshly generated
  ``BENCH_pruning_funnel.json`` against the committed baseline and
  fails (exit 1) when any pruning rule lost more than ``--threshold``
  (default 20%) of its prune count on any dataset — the signature of a
  silently weakened bound. Latency drift is reported but never fails
  the check: wall-clock is machine-dependent, pruning counts are not
  (the workload is seeded).
* **pair-kernel CPU** — validates a ``BENCH_pair_kernel.json``
  (``--pair-kernel``): the refinement kernel's CPU time must stay at or
  below the payload's committed ``max_vector_cpu_sec`` on every benched
  dataset. The ceiling is an absolute time, so unlike the ratio gates
  below it depends on the runner's speed.
* **serve overhead** — validates a ``BENCH_serve.json`` (``--serve``):
  the full-observability service path must stay within the payload's
  committed ``max_overhead`` fraction of bare execution, and the two
  paths must have produced byte-identical outcome lines. Both sides
  ran interleaved in the same process, so the ratio survives
  machine-to-machine noise.
* **telemetry overhead** — validates a ``BENCH_telemetry.json``
  (``--telemetry``): worker metric-delta shipping and the sampling
  profiler must each stay within the payload's committed
  ``max_overhead`` of their telemetry-off baselines, with outcomes
  byte-identical and shipped counters exactly equal to serial tallies.
* **dynamic maintenance** — validates a ``BENCH_dynamic.json``
  (``--dynamic``): incrementally re-answering standing queries after a
  mutation batch must stay at least ``min_speedup`` times faster than
  rebuilding every index from scratch and re-answering cold, the two
  paths must have produced byte-identical outcome lines, and
  slack-triggered compaction must have restored exact social-index
  bounds. Both arms ran interleaved in one process, so the ratio is
  machine-stable.
* **snapshot scale** — validates a ``BENCH_snapshot_scale.json``
  (``--snapshot-scale``): memmap-attaching a frozen arena must stay at
  least ``min_speedup`` times faster than the document-mode worker
  rebuild at the largest benched scale, attached workers must stay
  within the committed incremental-RSS budget, attached answers
  must have matched the in-memory processor at every scale, and every
  scale's equivalence answers must average at most
  ``max_query_sec_per_answer``. Attach and rebuild ran in the same
  process, so the ratio is machine-stable.

Usage::

    python scripts/check_bench_regression.py \
        --baseline benchmarks/results/BENCH_pruning_funnel.json \
        --current  /tmp/BENCH_pruning_funnel.json \
        --pair-kernel benchmarks/results/BENCH_pair_kernel.json \
        --serve benchmarks/results/BENCH_serve.json \
        --snapshot-scale benchmarks/results/BENCH_snapshot_scale.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

#: Rules with fewer baseline prunes than this are skipped: a swing of a
#: handful of candidates is enumeration noise, not a lost lemma.
MIN_BASELINE_COUNT = 10


def compare(
    baseline: dict,
    current: dict,
    threshold: float = 0.2,
    min_count: int = MIN_BASELINE_COUNT,
) -> List[str]:
    """Return one message per regression (empty list = check passes)."""
    failures: List[str] = []
    base_sets = baseline.get("datasets", {})
    cur_sets = current.get("datasets", {})
    for dataset, base_entry in sorted(base_sets.items()):
        cur_entry = cur_sets.get(dataset)
        if cur_entry is None:
            failures.append(f"{dataset}: missing from current run")
            continue
        base_rules = base_entry.get("rule_counts", {})
        cur_rules = cur_entry.get("rule_counts", {})
        for rule, base_count in sorted(base_rules.items()):
            if base_count < min_count:
                continue
            cur_count = cur_rules.get(rule, 0)
            loss = (base_count - cur_count) / base_count
            if loss > threshold:
                failures.append(
                    f"{dataset}/{rule}: pruning power lost "
                    f"{loss:.1%} ({base_count} -> {cur_count})"
                )
    return failures


def compare_pair_kernel(payload: dict) -> List[str]:
    """Return one message per dataset whose kernel CPU time exceeds its
    committed ceiling, or lacks either value (empty list = gate passes).

    Each dataset entry carries its own ``max_vector_cpu_sec`` (the value
    the benchmark asserted when the baseline was written), so CI needs
    no out-of-band configuration.
    """
    failures: List[str] = []
    for dataset, entry in sorted(payload.get("datasets", {}).items()):
        cpu = entry.get("vector_cpu_sec")
        ceiling = entry.get("max_vector_cpu_sec")
        if cpu is None or ceiling is None:
            failures.append(f"{dataset}: no kernel time or ceiling recorded")
            continue
        if cpu > ceiling:
            failures.append(
                f"{dataset}: refinement kernel took {cpu * 1000:.1f} ms, "
                f"above the {ceiling * 1000:.1f} ms ceiling"
            )
    return failures


def compare_serve(payload: dict, max_overhead: float = None) -> List[str]:
    """Return one message per violated serve-gate invariant (empty list
    = gate passes).

    The ceiling defaults to the payload's own committed ``max_overhead``
    (what the benchmark asserted when the baseline was written), so CI
    needs no out-of-band configuration.
    """
    if max_overhead is None:
        max_overhead = float(payload.get("max_overhead", 0.05))
    failures: List[str] = []
    overhead = payload.get("overhead")
    if overhead is None:
        failures.append("serve: no overhead recorded")
    elif overhead > max_overhead:
        failures.append(
            f"serve: observability plane costs {overhead:+.1%} over bare "
            f"execution ({payload.get('bare_sec', 0):.3f} s -> "
            f"{payload.get('service_sec', 0):.3f} s), above the "
            f"{max_overhead:.0%} ceiling"
        )
    if payload.get("outcomes_match") is not True:
        failures.append(
            "serve: service outcomes diverged from bare execution "
            "(outcomes_match is not true)"
        )
    return failures


def compare_snapshot_scale(
    payload: dict, min_speedup: float = None
) -> List[str]:
    """Return one message per violated snapshot-scale invariant (empty
    list = gate passes).

    Floors/budgets default to the payload's own committed values
    (``min_speedup``, ``max_attach_rss_fraction``,
    ``attach_rss_floor_mb``), so CI needs no out-of-band configuration.
    The speedup gate applies at the largest benched scale only — small
    arenas legitimately amortize less — while answer equivalence and
    the per-answer query ceiling (``max_query_sec_per_answer``, when the
    payload commits one) must hold at every scale.
    """
    failures: List[str] = []
    rows = payload.get("rows") or []
    if not rows:
        return ["snapshot-scale: no rows recorded"]
    if min_speedup is None:
        min_speedup = float(payload.get("min_speedup", 1.0))
    for row in rows:
        if row.get("outcomes_match") is not True:
            failures.append(
                f"snapshot-scale: attached worker diverged from the "
                f"in-memory processor at {row.get('road_vertices')} vertices"
            )
    ceiling = payload.get("max_query_sec_per_answer")
    if ceiling is not None:
        for row in rows:
            per_answer = float(row.get("query_sec", 0.0)) / max(
                int(row.get("answers", 1)), 1
            )
            if per_answer > float(ceiling):
                failures.append(
                    f"snapshot-scale: queries took {per_answer:.2f} s per "
                    f"answer at {row.get('road_vertices')} vertices, above "
                    f"the {float(ceiling):.2f} s ceiling"
                )
    top = max(rows, key=lambda r: r.get("road_vertices", 0))
    speedup = top.get("speedup")
    if speedup is None:
        failures.append("snapshot-scale: no attach speedup recorded")
    elif speedup < min_speedup:
        failures.append(
            f"snapshot-scale: attach is only {speedup:.1f}x faster than "
            f"rebuild at {top.get('road_vertices')} vertices "
            f"({top.get('rebuild_sec', 0):.3f} s -> "
            f"{top.get('attach_sec', 0):.4f} s), below the "
            f"{min_speedup:.1f}x floor"
        )
    rss_gate = max(
        float(payload.get("attach_rss_floor_mb", 32.0)),
        float(payload.get("max_attach_rss_fraction", 0.25))
        * float(top.get("rebuild_rss_mb", 0.0)),
    )
    attach_rss = top.get("attach_rss_mb")
    if attach_rss is not None and attach_rss > rss_gate:
        failures.append(
            f"snapshot-scale: attached worker added {attach_rss:.1f} MB "
            f"RSS at {top.get('road_vertices')} vertices "
            f"(budget {rss_gate:.0f} MB) — the arena is no longer shared"
        )
    return failures


def compare_dynamic(payload: dict, min_speedup: float = None) -> List[str]:
    """Return one message per violated dynamic-maintenance invariant
    (empty list = gate passes).

    The floor defaults to the payload's own committed ``min_speedup``
    (what the benchmark asserted when the baseline was written), so CI
    needs no out-of-band configuration. Three invariants:

    * incremental apply + re-answer beats rebuild-from-scratch +
      re-answer by at least the floor;
    * the incremental answers were byte-identical to the cold rebuild's
      after every measured batch (``outcomes_match``);
    * forcing a slack-triggered ``compact()`` left every social-index
      bound exactly equal to a fresh recompute (``compaction_exact``).
    """
    if min_speedup is None:
        min_speedup = float(payload.get("min_speedup", 1.0))
    failures: List[str] = []
    speedup = payload.get("speedup")
    if speedup is None:
        failures.append("dynamic: no incremental speedup recorded")
    elif speedup < min_speedup:
        failures.append(
            f"dynamic: incremental re-answer only {speedup:.1f}x faster "
            f"than full rebuild ({payload.get('rebuild_sec', 0):.3f} s -> "
            f"{payload.get('incremental_sec', 0):.3f} s), below the "
            f"{min_speedup:.1f}x floor"
        )
    if payload.get("outcomes_match") is not True:
        failures.append(
            "dynamic: incremental answers diverged from the from-scratch "
            "rebuild (outcomes_match is not true)"
        )
    if payload.get("compaction_exact") is not True:
        failures.append(
            "dynamic: compact() did not restore exact social-index "
            "bounds (compaction_exact is not true)"
        )
    return failures


def compare_telemetry(payload: dict, max_overhead: float = None) -> List[str]:
    """Return one message per violated telemetry-gate invariant (empty
    list = gate passes).

    Two arms, both interleaved in one process so the ratios are
    machine-stable: ``delta`` (worker metric/funnel shipping vs the
    telemetry-off executor) and ``profiler`` (the sampling profiler
    running over the same workload vs unprofiled). Each must stay within
    the payload's committed ``max_overhead``; outcomes must be
    byte-identical with telemetry on and off, and the shipped counters
    must equal the serial tallies exactly.
    """
    if max_overhead is None:
        max_overhead = float(payload.get("max_overhead", 0.05))
    failures: List[str] = []
    for arm in ("delta", "profiler"):
        entry = payload.get(arm)
        if not entry:
            failures.append(f"telemetry: no {arm} arm recorded")
            continue
        overhead = entry.get("overhead")
        if overhead is None:
            failures.append(f"telemetry: {arm} arm has no overhead")
        elif overhead > max_overhead:
            failures.append(
                f"telemetry: {arm} costs {overhead:+.1%} over its "
                f"baseline ({entry.get('off_sec', 0):.3f} s -> "
                f"{entry.get('on_sec', 0):.3f} s), above the "
                f"{max_overhead:.0%} ceiling"
            )
    if payload.get("outcomes_match") is not True:
        failures.append(
            "telemetry: outcomes diverged between telemetry on/off "
            "(outcomes_match is not true)"
        )
    if payload.get("counters_match") is not True:
        failures.append(
            "telemetry: shipped worker counters diverged from serial "
            "tallies (counters_match is not true)"
        )
    return failures


def latency_report(baseline: dict, current: dict) -> List[str]:
    """Informational per-dataset latency drift lines (never failing)."""
    lines: List[str] = []
    base_sets = baseline.get("datasets", {})
    cur_sets = current.get("datasets", {})
    for dataset in sorted(base_sets):
        base_cpu = base_sets[dataset].get("mean_cpu_sec")
        cur_cpu = cur_sets.get(dataset, {}).get("mean_cpu_sec")
        if not base_cpu or not cur_cpu:
            continue
        lines.append(
            f"{dataset}: mean cpu {base_cpu * 1000:.2f} ms -> "
            f"{cur_cpu * 1000:.2f} ms ({cur_cpu / base_cpu - 1:+.1%})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when per-rule pruning counts regress vs baseline."
    )
    parser.add_argument(
        "--baseline",
        help="committed BENCH_pruning_funnel.json",
    )
    parser.add_argument(
        "--current",
        help="BENCH_pruning_funnel.json from the current run",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.2,
        help="maximum tolerated fractional prune-count loss (default 0.2)",
    )
    parser.add_argument(
        "--min-count", type=int, default=MIN_BASELINE_COUNT,
        help="ignore rules with fewer baseline prunes than this",
    )
    parser.add_argument(
        "--pair-kernel",
        help="BENCH_pair_kernel.json to validate against its CPU ceilings",
    )
    parser.add_argument(
        "--serve",
        help="BENCH_serve.json to validate against its overhead ceiling",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None,
        help="override the serve payload's committed overhead ceiling",
    )
    parser.add_argument(
        "--snapshot-scale",
        help="BENCH_snapshot_scale.json to validate against its attach "
        "speedup floor and RSS budget",
    )
    parser.add_argument(
        "--telemetry",
        help="BENCH_telemetry.json to validate against its overhead "
        "ceiling (delta shipping + sampling profiler)",
    )
    parser.add_argument(
        "--dynamic",
        help="BENCH_dynamic.json to validate against its incremental "
        "speedup floor and exactness invariants",
    )
    parser.add_argument(
        "--min-dynamic-speedup", type=float, default=None,
        help="override the dynamic payload's committed incremental "
        "speedup floor",
    )
    parser.add_argument(
        "--min-attach-speedup", type=float, default=None,
        help="override the snapshot-scale payload's committed attach "
        "speedup floor",
    )
    args = parser.parse_args(argv)

    if bool(args.baseline) != bool(args.current):
        parser.error("--baseline and --current must be given together")
    if not args.baseline and not args.pair_kernel and not args.serve \
            and not args.snapshot_scale and not args.telemetry \
            and not args.dynamic:
        parser.error(
            "nothing to check: give --baseline/--current, --pair-kernel, "
            "--serve, --snapshot-scale, --telemetry, and/or --dynamic"
        )

    failures: List[str] = []
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fp:
            baseline = json.load(fp)
        with open(args.current, encoding="utf-8") as fp:
            current = json.load(fp)
        for line in latency_report(baseline, current):
            print(f"[latency] {line}")
        funnel_failures = compare(
            baseline, current, threshold=args.threshold,
            min_count=args.min_count,
        )
        if not funnel_failures:
            print("pruning funnel within threshold of the committed baseline")
        failures.extend(funnel_failures)

    if args.pair_kernel:
        with open(args.pair_kernel, encoding="utf-8") as fp:
            pair_payload = json.load(fp)
        pair_failures = compare_pair_kernel(pair_payload)
        if not pair_failures:
            for dataset, entry in sorted(
                pair_payload.get("datasets", {}).items()
            ):
                print(
                    f"[pair-kernel] {dataset}: "
                    f"{entry['vector_cpu_sec'] * 1000:.1f} ms "
                    f"(ceiling {entry['max_vector_cpu_sec'] * 1000:.1f} ms)"
                )
            print("pair-kernel CPU time within its committed ceilings")
        failures.extend(pair_failures)

    if args.serve:
        with open(args.serve, encoding="utf-8") as fp:
            serve_payload = json.load(fp)
        serve_failures = compare_serve(
            serve_payload, max_overhead=args.max_overhead
        )
        if not serve_failures:
            ceiling = (
                args.max_overhead
                if args.max_overhead is not None
                else serve_payload.get("max_overhead", 0.05)
            )
            print(
                f"[serve] observability overhead "
                f"{serve_payload.get('overhead', 0):+.1%} "
                f"(ceiling {float(ceiling):.0%}), outcomes byte-identical"
            )
            print("serve overhead within its committed ceiling")
        failures.extend(serve_failures)

    if args.snapshot_scale:
        with open(args.snapshot_scale, encoding="utf-8") as fp:
            scale_payload = json.load(fp)
        scale_failures = compare_snapshot_scale(
            scale_payload, min_speedup=args.min_attach_speedup
        )
        if not scale_failures:
            rows = scale_payload.get("rows") or []
            top = max(rows, key=lambda r: r.get("road_vertices", 0))
            floor = (
                args.min_attach_speedup
                if args.min_attach_speedup is not None
                else scale_payload.get("min_speedup", 1.0)
            )
            print(
                f"[snapshot-scale] {top.get('road_vertices')} vertices: "
                f"attach {top.get('speedup', 0):.1f}x over rebuild "
                f"(floor {float(floor):.1f}x), "
                f"+{top.get('attach_rss_mb', 0):.1f} MB RSS per worker"
            )
            print("snapshot attach above its committed speedup floor")
        failures.extend(scale_failures)

    if args.dynamic:
        with open(args.dynamic, encoding="utf-8") as fp:
            dynamic_payload = json.load(fp)
        dynamic_failures = compare_dynamic(
            dynamic_payload, min_speedup=args.min_dynamic_speedup
        )
        if not dynamic_failures:
            floor = (
                args.min_dynamic_speedup
                if args.min_dynamic_speedup is not None
                else dynamic_payload.get("min_speedup", 1.0)
            )
            print(
                f"[dynamic] incremental re-answer "
                f"{dynamic_payload.get('speedup', 0):.1f}x over full "
                f"rebuild (floor {float(floor):.1f}x) across "
                f"{dynamic_payload.get('mutations', 0)} mutations; "
                f"outcomes byte-identical, compaction exact"
            )
            print("dynamic maintenance above its committed speedup floor")
        failures.extend(dynamic_failures)

    if args.telemetry:
        with open(args.telemetry, encoding="utf-8") as fp:
            telemetry_payload = json.load(fp)
        telemetry_failures = compare_telemetry(
            telemetry_payload, max_overhead=args.max_overhead
        )
        if not telemetry_failures:
            ceiling = (
                args.max_overhead
                if args.max_overhead is not None
                else telemetry_payload.get("max_overhead", 0.05)
            )
            for arm in ("delta", "profiler"):
                entry = telemetry_payload.get(arm, {})
                print(
                    f"[telemetry] {arm}: "
                    f"{entry.get('overhead', 0):+.1%} "
                    f"(ceiling {float(ceiling):.0%})"
                )
            print(
                "telemetry overhead within its committed ceiling; "
                "outcomes and counters exact"
            )
        failures.extend(telemetry_failures)

    if failures:
        for message in failures:
            print(f"REGRESSION {message}", file=sys.stderr)
        print(f"{len(failures)} benchmark regression(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
