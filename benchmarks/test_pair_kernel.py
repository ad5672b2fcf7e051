"""Refinement-kernel CPU benchmark + regression-guard wiring (S6).

Times the refinement-dominant workloads (UNI and Gow+Col, the datasets
where ``pair.distance`` evaluation dominates query latency) through the
query processor's batched refinement kernel on a warmed network, writes
``results/BENCH_pair_kernel.json`` — the kernel's CPU time per dataset
next to its committed ceiling — and proves the guard closes: the
kernel must stay at or below ``MAX_VECTOR_CPU_SEC`` on every benched
dataset, both here and in ``scripts/check_bench_regression.py
--pair-kernel`` (the blocking CI gate).

The ceilings are absolute times: each is the per-pair scalar path's CPU
time over the 3x speedup floor that gated the kernel while the scalar
path was still a processor option (1.882 s / 3 on UNI, 1.877 s / 3 on
Gow+Col, measured on a 2-vCPU VM). Unlike that same-process ratio they
depend on the runner's speed.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import time
from pathlib import Path

from repro import GPSSNQueryProcessor
from repro.core.query import GPSSNQuery
from repro.experiments.harness import build_dataset, sample_query_users

from benchmarks.conftest import (
    BENCH_QUERIES,
    BENCH_SCALE,
    BENCH_SEED,
    RESULTS_DIR,
    write_result,
)

BASELINE_PATH = RESULTS_DIR / "BENCH_pair_kernel.json"
CHECKER_PATH = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)

#: The acceptance ceiling: best-of-3 CPU seconds for the dataset's
#: four-query workload. Refinement-dominant datasets only
#: (pair.distance is the busiest rule).
MAX_VECTOR_CPU_SEC = {"UNI": 0.627, "Gow+Col": 0.626}


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", CHECKER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    return {
        "vector_cpu_sec": _time_workload(processor, queries),
        "max_vector_cpu_sec": MAX_VECTOR_CPU_SEC[name],
    }


def _build_payload() -> dict:
    return {
        "schema": "gpssn.bench.pair_kernel/2",
        "scale": {
            "road_vertices": BENCH_SCALE.road_vertices,
            "num_pois": BENCH_SCALE.num_pois,
            "num_users": BENCH_SCALE.num_users,
            "max_groups": BENCH_SCALE.max_groups,
        },
        "num_queries": BENCH_QUERIES,
        "seed": BENCH_SEED,
        "datasets": {name: _run_dataset(name) for name in MAX_VECTOR_CPU_SEC},
    }


def test_pair_kernel_baseline(benchmark):
    payload = _build_payload()

    for name, entry in payload["datasets"].items():
        assert entry["vector_cpu_sec"] <= entry["max_vector_cpu_sec"], (
            f"{name}: refinement kernel took {entry['vector_cpu_sec']:.3f}s "
            f"(ceiling {entry['max_vector_cpu_sec']:.3f}s)"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "pair_kernel",
        ["dataset", "kernel (s)", "ceiling (s)"],
        [
            [
                name,
                round(entry["vector_cpu_sec"], 4),
                entry["max_vector_cpu_sec"],
            ]
            for name, entry in sorted(payload["datasets"].items())
        ],
        "Refinement kernel CPU time (4-query workloads)",
    )

    # A fresh run always passes its own gate.
    checker = _load_checker()
    assert checker.compare_pair_kernel(payload) == []

    benchmark(lambda: checker.compare_pair_kernel(payload))


def test_pair_kernel_gate_blocks_slow_kernel(tmp_path):
    """The CI gate's acceptance bar: a payload whose kernel time rises
    above its ceiling, or that lacks one, must fail the checker with a
    nonzero exit."""
    checker = _load_checker()
    payload = json.loads(BASELINE_PATH.read_text())

    honest = tmp_path / "pair.json"
    honest.write_text(json.dumps(payload) + "\n")
    assert checker.main(["--pair-kernel", str(honest)]) == 0

    slow_payload = copy.deepcopy(payload)
    for entry in slow_payload["datasets"].values():
        entry["vector_cpu_sec"] = 2 * entry["max_vector_cpu_sec"]
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(slow_payload) + "\n")
    assert checker.main(["--pair-kernel", str(slow)]) == 1

    unbounded = copy.deepcopy(payload)
    for entry in unbounded["datasets"].values():
        del entry["max_vector_cpu_sec"]
    assert len(checker.compare_pair_kernel(unbounded)) == len(
        payload["datasets"]
    )
