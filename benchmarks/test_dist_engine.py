"""Distance engines: reference Dijkstra vs CSR kernel vs contraction hierarchy.

Runs the Fig. 8 workload's road network (UNI at bench scale) and times
point-to-point ``dist_RN`` over a fixed batch of random position pairs
on each engine, against the reference dict-walking Dijkstra of
:mod:`repro.roadnet.shortest_path` (one seeded search from the first
position, endpoint lookups for the second). Writes
``results/BENCH_dist_engine.json`` (median microseconds + speedups +
engine stats) next to the usual speedup table, asserts every engine
returns the reference distances, and asserts the acceptance bar: CH
median point-to-point at least 5x faster than the reference.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import numpy as np
import pytest

from benchmarks.conftest import BENCH_SEED, RESULTS_DIR, write_result
from repro.roadnet.engines import make_engine
from repro.roadnet.shortest_path import (
    multi_source_dijkstra,
    position_distance_from_map,
    position_seeds,
)

NUM_PAIRS = 60
TIMING_ROUNDS = 5


def _random_pairs(road, count, seed):
    rng = np.random.default_rng(seed)
    edges = list(road.edges())
    pairs = []
    from repro import NetworkPosition

    for _ in range(count):
        positions = []
        for _ in range(2):
            u, v, length = edges[int(rng.integers(len(edges)))]
            positions.append(NetworkPosition(u, v, float(rng.random() * length)))
        pairs.append(tuple(positions))
    return pairs


def test_dist_engine_speedup(benchmark, uni_processor):
    network, _, _ = uni_processor
    road = network.road
    pairs = _random_pairs(road, NUM_PAIRS, BENCH_SEED)

    engines = {name: make_engine(name, road) for name in ("csr", "ch")}
    engines["ch"].hierarchy()  # preprocessing outside the timed loop

    def reference(a, b):
        dist_map = multi_source_dijkstra(road, position_seeds(road, a))
        return position_distance_from_map(road, dist_map, b, a)

    timed = {"reference": reference}
    timed.update({name: e.point_to_point for name, e in engines.items()})
    medians_us = {}
    distances = {}
    for name, point_to_point in timed.items():
        per_pair = []
        results = []
        for a, b in pairs:
            best = None
            for _ in range(TIMING_ROUNDS):
                started = time.perf_counter()
                d = point_to_point(a, b)
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            per_pair.append(best * 1e6)
            results.append(d)
        medians_us[name] = statistics.median(per_pair)
        distances[name] = results

    # Correctness first: every engine returns the reference distances.
    for name in engines:
        for d_ref, d_engine in zip(distances["reference"], distances[name]):
            assert d_engine == pytest.approx(d_ref, abs=1e-9), name

    speedups = {
        name: medians_us["reference"] / medians_us[name]
        for name in medians_us
    }
    ch_stats = engines["ch"].stats()

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "cpu_count": os.cpu_count(),
        "road_vertices": road.num_vertices,
        "road_edges": road.num_edges,
        "num_pairs": NUM_PAIRS,
        "timing_rounds": TIMING_ROUNDS,
        "median_us": medians_us,
        "speedup_vs_reference": speedups,
        "ch_shortcuts_added": ch_stats["shortcuts_added"],
        "ch_preprocess_seconds": ch_stats["preprocess_seconds"],
    }
    (RESULTS_DIR / "BENCH_dist_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    write_result(
        "dist_engine",
        ["engine", "median p2p (us)", "speedup vs reference"],
        [
            [name, round(medians_us[name], 1), round(speedups[name], 2)]
            for name in timed
        ],
        "Distance engines (point-to-point dist_RN, UNI road network)",
    )

    # Acceptance bar: the hierarchy pays for its preprocessing.
    assert speedups["ch"] >= 5.0, medians_us
    assert speedups["csr"] >= 1.0, medians_us

    # Timed operation: one CH point-to-point query.
    a, b = pairs[0]
    ch = engines["ch"]
    benchmark(lambda: ch.point_to_point(a, b))
