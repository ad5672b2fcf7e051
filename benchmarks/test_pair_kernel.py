"""Refinement-kernel CPU benchmark + regression-guard wiring (S6).

Times the refinement-dominant workloads (UNI and Gow+Col, the datasets
where ``pair.distance`` evaluation dominates query latency) through the
query processor's batched refinement kernel on a warmed network, writes
``results/BENCH_pair_kernel.json`` — the kernel's CPU time per dataset
with one gate each: the kernel must stay at or below
``MAX_VECTOR_CPU_SEC`` on every benched dataset, both here and in
``scripts/check_bench_regression.py`` (the blocking CI gate).

The ceilings are absolute times: each is the per-pair scalar path's CPU
time over the 3x speedup floor that gated the kernel while the scalar
path was still a processor option (1.882 s / 3 on UNI, 1.877 s / 3 on
Gow+Col, measured on a 2-vCPU VM). Unlike that same-process ratio they
depend on the runner's speed.
"""

from __future__ import annotations

import json
import math
import os
import time

from repro import GPSSNQueryProcessor
from repro.core.query import GPSSNQuery
from repro.experiments.harness import build_dataset, sample_query_users

from benchmarks.conftest import (
    BENCH_QUERIES,
    BENCH_SCALE,
    BENCH_SEED,
    RESULTS_DIR,
    gate_failures,
    write_result,
)

BASELINE_PATH = RESULTS_DIR / "BENCH_pair_kernel.json"

#: The acceptance ceiling: best-of-3 CPU seconds for the dataset's
#: four-query workload. Refinement-dominant datasets only
#: (pair.distance is the busiest rule).
MAX_VECTOR_CPU_SEC = {"UNI": 0.627, "Gow+Col": 0.626}


def _time_workload(processor, queries, reps=3):
    """Best-of-``reps`` total CPU time after one warm-up pass (oracle +
    kernel caches)."""
    for query in queries:
        processor.answer(query, max_groups=BENCH_SCALE.max_groups)
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        for query in queries:
            processor.answer(query, max_groups=BENCH_SCALE.max_groups)
        best = min(best, time.perf_counter() - start)
    return best


def _run_dataset(name):
    network = build_dataset(name, BENCH_SCALE, seed=BENCH_SEED)
    queries = [
        GPSSNQuery(query_user=user)
        for user in sample_query_users(network, BENCH_QUERIES, seed=BENCH_SEED)
    ]
    processor = GPSSNQueryProcessor(network, seed=BENCH_SEED)
    return {"vector_cpu_sec": _time_workload(processor, queries)}


def _build_payload() -> dict:
    return {
        "schema": "gpssn.bench.pair_kernel/3",
        "scale": {
            "road_vertices": BENCH_SCALE.road_vertices,
            "num_pois": BENCH_SCALE.num_pois,
            "num_users": BENCH_SCALE.num_users,
            "max_groups": BENCH_SCALE.max_groups,
        },
        "num_queries": BENCH_QUERIES,
        "seed": BENCH_SEED,
        "cpu_count": os.cpu_count(),
        "datasets": {name: _run_dataset(name) for name in MAX_VECTOR_CPU_SEC},
        "gates": [
            {"value": f"datasets.{name}.vector_cpu_sec", "max": ceiling}
            for name, ceiling in MAX_VECTOR_CPU_SEC.items()
        ],
    }


def test_pair_kernel_baseline(benchmark):
    payload = _build_payload()
    assert gate_failures(payload) == []

    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "pair_kernel",
        ["dataset", "kernel (s)", "ceiling (s)"],
        [
            [
                name,
                round(entry["vector_cpu_sec"], 4),
                MAX_VECTOR_CPU_SEC[name],
            ]
            for name, entry in sorted(payload["datasets"].items())
        ],
        "Refinement kernel CPU time (4-query workloads)",
    )

    benchmark(gate_failures, payload)
