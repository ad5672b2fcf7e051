"""Batch-executor throughput benchmark: serial oracle vs process pool.

Replays a seeded Fig.-7-shaped batch — the paper's default query
parameters issued by a pool of issuers sampled *with replacement*, the
shape a production service sees (popular issuers repeat) — through the
``serial`` correctness oracle and through the ``process`` backend with
4 warm workers. The parallel run must answer the identical batch at
least ``MIN_SPEEDUP`` (2x) faster while producing byte-identical
canonical outcomes; both throughputs land in
``results/BENCH_batch_executor.json`` with the speedup gate, which
``scripts/check_bench_regression.py`` re-validates in CI.

The serial oracle replays the raw batch one query at a time (no
planning, the trusted baseline); the process backend plans first —
dedupe + locality shards — so its advantage combines executing only the
unique queries with spreading them over workers. ``warm()`` is excluded
from the timed region on both sides: this measures steady-state service
throughput, not pool start-up.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, gate_failures, write_result
from repro.core.query import GPSSNQuery
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)
from repro.service import BatchQueryExecutor, plan_batch

#: Scaled for a timed region of a few seconds; thresholds are Table 3's.
BATCH_SCALE = ExperimentScale(
    road_vertices=200, num_pois=60, num_users=150, max_groups=600
)
BATCH_SEED = 7
#: Raw batch size and the issuer pool it is drawn from (with
#: replacement — duplicate queries are the production batch shape).
BATCH_QUERIES = 24
ISSUER_POOL = 8
WORKERS = 4
#: The committed gate: the process backend must answer the batch at
#: least this many times faster than the serial oracle.
MIN_SPEEDUP = 2.0

BASELINE_PATH = RESULTS_DIR / "BENCH_batch_executor.json"


@pytest.fixture(scope="module")
def batch_setup():
    network = build_dataset("UNI", BATCH_SCALE, seed=BATCH_SEED)
    processor = make_processor(network, seed=BATCH_SEED)
    pool = sample_query_users(network, ISSUER_POOL, seed=BATCH_SEED)
    rng = np.random.default_rng(BATCH_SEED)
    issuers = [pool[i] for i in rng.integers(0, len(pool), BATCH_QUERIES)]
    queries = [GPSSNQuery(query_user=uq) for uq in issuers]
    return processor, queries


def _timed_run(processor, queries, backend, workers):
    """Wall time + canonical outcome lines for one warm executor run."""
    with BatchQueryExecutor.from_processor(
        processor, workers=workers, backend=backend
    ) as executor:  # __enter__ warms outside the timed region
        started = time.perf_counter()
        outcomes = executor.run(queries, max_groups=BATCH_SCALE.max_groups)
        elapsed = time.perf_counter() - started
    assert all(o.ok for o in outcomes)
    lines = [json.dumps(o.to_dict(), sort_keys=True) for o in outcomes]
    return elapsed, lines


def test_batch_executor_throughput(benchmark, batch_setup):
    processor, queries = batch_setup
    entries = [(q, BATCH_SCALE.max_groups) for q in queries]
    plan = plan_batch(entries, WORKERS)

    serial_sec, serial_lines = _timed_run(processor, queries, "serial", 0)
    process_sec, process_lines = _timed_run(
        processor, queries, "process", WORKERS
    )

    # Concurrency must be invisible in the results: byte-identical
    # outcomes, only the clock moves.
    assert process_lines == serial_lines

    speedup = serial_sec / process_sec
    digest = hashlib.sha256(
        "\n".join(serial_lines).encode("utf-8")
    ).hexdigest()
    payload = {
        "schema": "gpssn.bench.batch_executor/1",
        "scale": {
            "road_vertices": BATCH_SCALE.road_vertices,
            "num_pois": BATCH_SCALE.num_pois,
            "num_users": BATCH_SCALE.num_users,
            "max_groups": BATCH_SCALE.max_groups,
        },
        "seed": BATCH_SEED,
        "num_queries": len(queries),
        "num_unique": plan.num_unique,
        "workers": WORKERS,
        "cpu_count": os.cpu_count(),
        "outcomes_sha256": digest,
        "serial": {
            "seconds": round(serial_sec, 4),
            "throughput_qps": round(len(queries) / serial_sec, 3),
        },
        "process": {
            "seconds": round(process_sec, 4),
            "throughput_qps": round(len(queries) / process_sec, 3),
        },
        "speedup": round(speedup, 3),
        "gates": [{"value": "speedup", "min": MIN_SPEEDUP}],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "batch_executor",
        ["backend", "workers", "seconds", "throughput (q/s)", "speedup"],
        [
            ["serial", 1, round(serial_sec, 3),
             round(len(queries) / serial_sec, 2), "1.00x"],
            ["process", WORKERS, round(process_sec, 3),
             round(len(queries) / process_sec, 2), f"{speedup:.2f}x"],
        ],
        title=(
            f"Batch executor throughput ({len(queries)} queries, "
            f"{plan.num_unique} unique, {os.cpu_count()} cores)"
        ),
    )

    assert gate_failures(payload) == []

    # pytest-benchmark times the planning step itself: it runs once per
    # batch on the dispatch path, so it must stay microseconds-cheap.
    benchmark(plan_batch, entries, WORKERS)


def test_batch_outcomes_stable_across_runs(batch_setup):
    """The committed digest only moves when answers genuinely change."""
    processor, queries = batch_setup
    _, first = _timed_run(processor, queries, "serial", 0)
    _, second = _timed_run(processor, queries, "serial", 0)
    assert first == second
