"""Telemetry-plane overhead benchmark: delta shipping and the profiler.

The cross-process telemetry plane must be cheap enough to leave on in
production: every shard a worker answers ends with a capture-and-reset
:class:`~repro.obs.delta.MetricsDelta` (counters, gauges, histogram
sketches, the pruning funnel) that rides the result envelope back to
the parent and is folded into the live registry. This benchmark prices
that plane with two arms, both interleaved in one process so a noisy
CI box inflates the two sides equally:

* **delta** — a warm serial :class:`BatchQueryExecutor` with
  ``telemetry=False`` (no capture, no apply) versus the identical
  executor with delta shipping on. Worker explain stays off on both
  sides: the funnel recorder's hot-path hooks are a pre-existing
  explain feature with its own overhead test, and pricing them here
  would hide the plane's real cost inside a larger number. The ratio
  isolates capture + merge; the answers must stay byte-identical and
  the shipped worker-labelled counters must equal the aggregate
  tallies exactly (disjoint deltas sum — nothing lost, nothing
  doubled).
* **profiler** — the same workload bare versus under the 5 ms
  thread-timer :class:`~repro.obs.profiler.SamplingProfiler`. Sampling
  rides a daemon thread, so its cost is the GIL share of walking
  ``sys._current_frames()``, not anything in the query hot path.

Results land in ``results/BENCH_telemetry.json`` with its gates — each
arm at most ``MAX_OVERHEAD`` (5%), identical outcomes, exact counters —
re-validated in CI by ``scripts/check_bench_regression.py``.
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
from repro.obs import SamplingProfiler
from repro.obs.delta import split_worker_metric
from repro.service import BatchQueryExecutor, outcome_lines

#: Mirrors BENCH_serve (benchmarks/test_serve.py): same scale, same
#: seed, distinct issuers so deduplication cannot mask the cost.
TELEMETRY_SCALE = ExperimentScale(
    road_vertices=200, num_pois=60, num_users=150, max_groups=600
)
TELEMETRY_SEED = 7
TELEMETRY_QUERIES = 24
REPEATS = 5

#: The committed gate, shared by both arms.
MAX_OVERHEAD = 0.05

BASELINE_PATH = RESULTS_DIR / "BENCH_telemetry.json"


@pytest.fixture(scope="module")
def telemetry_setup():
    network = build_dataset("UNI", TELEMETRY_SCALE, seed=TELEMETRY_SEED)
    issuers = sample_query_users(
        network, TELEMETRY_QUERIES, seed=TELEMETRY_SEED
    )
    entries = [
        (GPSSNQuery(query_user=uq), TELEMETRY_SCALE.max_groups)
        for uq in issuers
    ]
    return network, entries


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def _counters_match(registry, expected_queries: int) -> bool:
    """Every worker-labelled counter partitions its aggregate exactly,
    and the shipped query count equals what the executor really ran."""
    worker_sums = {}
    for name, value in registry.counters.items():
        split = split_worker_metric(name)
        if split is not None:
            metric, _ = split
            worker_sums[metric] = worker_sums.get(metric, 0) + value
    if worker_sums.get("query.count") != expected_queries:
        return False
    return all(
        registry.counters.get(metric) == total
        for metric, total in worker_sums.items()
    )


def test_telemetry_plane_overhead(telemetry_setup):
    network, entries = telemetry_setup

    with BatchQueryExecutor(
        network, backend="serial", telemetry=False,
        build_args={"seed": TELEMETRY_SEED},
    ) as bare, BatchQueryExecutor(
        network, backend="serial", telemetry=True,
        build_args={"seed": TELEMETRY_SEED},
    ) as shipping:
        # Untimed warm pass each: cache fills are startup, not plane cost.
        bare_outcomes = bare.run_entries(entries)
        shipped_outcomes = shipping.run_entries(entries)

        off_sec = on_sec = prof_off = prof_on = float("inf")
        profiled_samples = 0
        for _ in range(REPEATS):
            elapsed, bare_outcomes = _timed(
                lambda: bare.run_entries(entries)
            )
            off_sec = min(off_sec, elapsed)
            elapsed, shipped_outcomes = _timed(
                lambda: shipping.run_entries(entries)
            )
            on_sec = min(on_sec, elapsed)

            elapsed, _ = _timed(lambda: bare.run_entries(entries))
            prof_off = min(prof_off, elapsed)
            # 10 ms, not the CLI's 5 ms default: on a single-core CI
            # box the sampler thread competes for the GIL, and the gate
            # prices the production-reasonable cadence.
            profiler = SamplingProfiler(interval_sec=0.01)
            with profiler:
                elapsed, _ = _timed(lambda: bare.run_entries(entries))
            prof_on = min(prof_on, elapsed)
            profiled_samples = max(
                profiled_samples, profiler.report.num_samples
            )

        registry = shipping.recorder.metrics
        # The shipping executor ran the warm pass plus REPEATS timed
        # passes; deltas are cumulative across all of them.
        counters_match = _counters_match(
            registry, len(entries) * (REPEATS + 1)
        )
        # The telemetry-off executor really shipped nothing.
        assert bare.recorder.metrics.counters.get("query.count") is None
        assert not any(
            split_worker_metric(name)
            for name in bare.recorder.metrics.counters
        )

    # The plane must be invisible in the answers.
    outcomes_match = outcome_lines(shipped_outcomes) == outcome_lines(
        bare_outcomes
    )
    assert profiled_samples > 0  # the profiler actually sampled

    delta_overhead = on_sec / off_sec - 1.0
    profiler_overhead = prof_on / prof_off - 1.0
    payload = {
        "schema": "gpssn.bench.telemetry/2",
        "scale": {
            "road_vertices": TELEMETRY_SCALE.road_vertices,
            "num_pois": TELEMETRY_SCALE.num_pois,
            "num_users": TELEMETRY_SCALE.num_users,
            "max_groups": TELEMETRY_SCALE.max_groups,
        },
        "seed": TELEMETRY_SEED,
        "num_queries": len(entries),
        "repeats": REPEATS,
        "cpu_count": os.cpu_count(),
        "delta": {
            "off_sec": round(off_sec, 4),
            "on_sec": round(on_sec, 4),
            "overhead": round(delta_overhead, 4),
        },
        "profiler": {
            "off_sec": round(prof_off, 4),
            "on_sec": round(prof_on, 4),
            "overhead": round(profiler_overhead, 4),
            "samples": profiled_samples,
        },
        "outcomes_match": outcomes_match,
        "counters_match": counters_match,
        "gates": [
            {"value": "delta.overhead", "max": MAX_OVERHEAD},
            {"value": "profiler.overhead", "max": MAX_OVERHEAD},
            {"value": "outcomes_match", "equals": True},
            {"value": "counters_match", "equals": True},
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "telemetry_overhead",
        ["arm", f"off (best of {REPEATS})", "on", "overhead"],
        [
            ["delta shipping", round(off_sec, 3), round(on_sec, 3),
             f"{delta_overhead:+.1%}"],
            ["sampling profiler", round(prof_off, 3), round(prof_on, 3),
             f"{profiler_overhead:+.1%}"],
        ],
        title=(
            f"Telemetry plane overhead ({len(entries)} queries, "
            f"{os.cpu_count()} cores)"
        ),
    )

    assert gate_failures(payload) == []
