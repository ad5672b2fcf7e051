"""Serve-daemon observability overhead benchmark.

The observability plane must be cheap enough to leave on: the daemon
answers every query with rolling-window latency observation, metric
absorption into the long-lived registry, per-phase span capture in the
workers, admission accounting, and the slow-query ring. This benchmark
replays the ``BENCH_batch_executor`` workload (same scale, same seed)
through two paths on the same machine in the same process:

* **bare** — a warm serial :class:`BatchQueryExecutor` with worker
  tracing off: query execution with zero observability (the
  null-tracer hot path);
* **service** — the same warm worker behind
  :meth:`~repro.service.server.GPSSNService.execute`, the full request
  path of ``POST /query`` minus HTTP: planning, per-phase span capture,
  outcome fan-out, metric + window absorption, slow-ring accounting.

Unlike the batch benchmark, the issuers here are sampled *without*
replacement: the service path dedupes identical queries before
executing, and a batch with duplicates would measure that saving (a
3x+ win) instead of the instrumentation cost this gate is about. With
every query unique, both paths execute exactly the same work and the
ratio isolates the observability plane.

Both paths warm first, then the timed passes *interleave*
(bare/service/bare/service...) and the fastest repetition of each side
counts: noise on a shared CI box only ever inflates a run and drifts
over time, so interleaved best-of compares the true cost floors instead
of comparing a quiet minute against a busy one. The measured overhead
lands in ``results/BENCH_serve.json`` with its gates — at most
``MAX_OVERHEAD`` (5%) over bare execution, and byte-identical outcomes
on the two paths — which ``scripts/check_bench_regression.py``
re-validates in CI.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, gate_failures, write_result
from repro.core.query import GPSSNQuery
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    sample_query_users,
)
from repro.service import BatchQueryExecutor, outcome_lines
from repro.service.server import GPSSNService, ServerConfig

#: Mirrors BENCH_batch_executor (benchmarks/test_batch_executor.py).
SERVE_SCALE = ExperimentScale(
    road_vertices=200, num_pois=60, num_users=150, max_groups=600
)
SERVE_SEED = 7
SERVE_QUERIES = 24
REPEATS = 5

#: The committed gate: the instrumented service path may cost at most
#: this fraction over bare execution.
MAX_OVERHEAD = 0.05

BASELINE_PATH = RESULTS_DIR / "BENCH_serve.json"


@pytest.fixture(scope="module")
def serve_setup():
    network = build_dataset("UNI", SERVE_SCALE, seed=SERVE_SEED)
    # Distinct issuers: no dedupe, both paths execute every query.
    issuers = sample_query_users(network, SERVE_QUERIES, seed=SERVE_SEED)
    entries = [
        (GPSSNQuery(query_user=uq), SERVE_SCALE.max_groups)
        for uq in issuers
    ]
    return network, entries


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def test_serve_observability_overhead(serve_setup):
    network, entries = serve_setup

    config = ServerConfig(
        workers=1, backend="serial", timeout_sec=None, phase_timing=True,
    )
    with BatchQueryExecutor(
        network, backend="serial", build_args={"seed": SERVE_SEED},
    ) as executor, GPSSNService(
        network, config, build_args={"seed": SERVE_SEED}
    ) as service:
        # One untimed pass each: first-touch cache fills (issuer SSSP
        # maps, pair-kernel rows) are startup cost, not steady state.
        bare_outcomes = executor.run_entries(entries)
        result = service.execute(entries, request_id="req-bench")

        bare_sec = service_sec = float("inf")
        for _ in range(REPEATS):
            elapsed, bare_outcomes = _timed(
                lambda: executor.run_entries(entries)
            )
            bare_sec = min(bare_sec, elapsed)
            elapsed, result = _timed(
                lambda: service.execute(entries, request_id="req-bench")
            )
            service_sec = min(service_sec, elapsed)

        assert all(o.ok for o in bare_outcomes)
        assert all(o.ok for o in result.outcomes)
        # The instrumentation the service pays for actually happened:
        assert service.registry.counter("service.queries") > 0
        assert service.registry.counter("pruning.total_users") > 0
        assert "service.query_seconds" in service.registry.windows

    # The observability plane must be invisible in the answers.
    outcomes_match = outcome_lines(result.outcomes) == outcome_lines(
        bare_outcomes
    )
    overhead = service_sec / bare_sec - 1.0
    payload = {
        "schema": "gpssn.bench.serve/2",
        "scale": {
            "road_vertices": SERVE_SCALE.road_vertices,
            "num_pois": SERVE_SCALE.num_pois,
            "num_users": SERVE_SCALE.num_users,
            "max_groups": SERVE_SCALE.max_groups,
        },
        "seed": SERVE_SEED,
        "num_queries": len(entries),
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "bare_sec": round(bare_sec, 4),
        "service_sec": round(service_sec, 4),
        "overhead": round(overhead, 4),
        "outcomes_match": outcomes_match,
        "gates": [
            {"value": "overhead", "max": MAX_OVERHEAD},
            {"value": "outcomes_match", "equals": True},
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "serve_overhead",
        ["path", f"seconds (best of {REPEATS})", "throughput (q/s)",
         "overhead"],
        [
            ["bare executor", round(bare_sec, 3),
             round(len(entries) / bare_sec, 2), "-"],
            ["service (full observability)", round(service_sec, 3),
             round(len(entries) / service_sec, 2), f"{overhead:+.1%}"],
        ],
        title=(
            f"Serve observability overhead ({len(entries)} queries, "
            f"{os.cpu_count()} cores)"
        ),
    )

    assert gate_failures(payload) == []
