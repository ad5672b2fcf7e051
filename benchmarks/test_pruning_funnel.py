"""Pruning-funnel trajectory benchmark + regression-guard wiring.

Runs the shared Figure-7 workload (all four datasets, seeded) with the
EXPLAIN recorder on and writes ``results/BENCH_pruning_funnel.json`` —
per-rule prune counts plus query latency — with its gate: every rule
keeps at least ``MIN_RULE_FRACTION`` of the committed baseline's prune
count on every dataset. CI stashes the committed payload and passes it
to ``scripts/check_bench_regression.py --baseline`` after the rerun;
losing more than a fifth of a rule's prunes is the signature of a
silently weakened bound. Latency is recorded but not gated: wall-clock
is machine-dependent, prune counts are not (the workload is seeded).
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import (
    BENCH_QUERIES,
    BENCH_SCALE,
    BENCH_SEED,
    RESULTS_DIR,
    gate_failures,
    write_result,
)

BASELINE_PATH = RESULTS_DIR / "BENCH_pruning_funnel.json"

#: The committed gate: each rule's prune count may fall to no less than
#: this fraction of its baseline count...
MIN_RULE_FRACTION = 0.8
#: ...counting only rules with at least this many baseline prunes: a
#: swing of a handful of candidates is enumeration noise, not a lost
#: lemma.
MIN_BASELINE_PRUNES = 10


def _build_payload(workloads) -> dict:
    datasets = {}
    for name, result in sorted(workloads.items()):
        datasets[name] = {
            "rule_counts": {
                rule: count
                for rule, count in sorted(result.rule_counts.items())
                if count > 0
            },
            "phases": {
                phase: {
                    key: entry[key]
                    for key in ("visited", "survived", "pruned")
                }
                for phase, entry in result.funnel.items()
            },
            "mean_cpu_sec": result.mean_cpu,
            "mean_io_pages": result.mean_io,
        }
    return {
        "schema": "gpssn.bench.pruning_funnel/1",
        "scale": {
            "road_vertices": BENCH_SCALE.road_vertices,
            "num_pois": BENCH_SCALE.num_pois,
            "num_users": BENCH_SCALE.num_users,
            "max_groups": BENCH_SCALE.max_groups,
        },
        "num_queries": BENCH_QUERIES,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "datasets": datasets,
        "gates": [
            {
                "value": "datasets.*.rule_counts.*",
                "min_baseline_fraction": MIN_RULE_FRACTION,
                "min_baseline": MIN_BASELINE_PRUNES,
            },
        ],
    }


def test_pruning_funnel_baseline(benchmark, pruning_workloads):
    payload = _build_payload(pruning_workloads)

    # The funnel invariant holds for every phase of every dataset.
    for name, result in pruning_workloads.items():
        assert result.funnel, name
        for phase, entry in result.funnel.items():
            rule_sum = sum(
                r["pruned"] for r in entry.get("rules", {}).values()
            )
            assert entry["pruned"] == rule_sum, (name, phase)
            assert entry["visited"] == entry["survived"] + entry["pruned"], (
                name,
                phase,
            )
        assert sum(result.rule_counts.values()) > 0, name

    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "pruning_funnel",
        ["dataset", "visited", "pruned", "rules firing", "mean cpu (ms)"],
        [
            [
                name,
                sum(p["visited"] for p in entry["phases"].values()),
                sum(p["pruned"] for p in entry["phases"].values()),
                len(entry["rule_counts"]),
                round(entry["mean_cpu_sec"] * 1000, 3),
            ]
            for name, entry in payload["datasets"].items()
        ],
        "Pruning funnel baseline (Fig. 7 workload, explain recorder on)",
    )

    # Its own baseline here: the gate's path must resolve. CI compares
    # it against the committed payload.
    assert gate_failures(payload) == []

    benchmark(gate_failures, payload)
