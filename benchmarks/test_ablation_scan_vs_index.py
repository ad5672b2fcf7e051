"""Design ablation: index structures vs pure object-level scans.

Compares three designs at the same pruning rules: the exhaustive
Baseline (no pruning), the ScanProcessor (object-level pruning via
linear scans), and the indexed Algorithm 2 — isolating what the tree
indexes themselves contribute beyond the pruning rules.
"""

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, write_result
from repro.core.query import GPSSNQuery
from repro.core.scan import ScanProcessor
from repro.experiments.harness import (
    build_dataset,
    make_processor,
    run_workload,
    sample_query_users,
)


def test_scan_vs_index(benchmark):
    # Each arm gets its own copy of the network, so neither finds the
    # other's distance oracle warm; both use the same pivots.
    network = build_dataset("UNI", BENCH_SCALE, seed=BENCH_SEED)
    indexed = make_processor(network, seed=BENCH_SEED)
    scan = ScanProcessor(
        build_dataset("UNI", BENCH_SCALE, seed=BENCH_SEED),
        road_pivots=indexed.road_pivots,
        social_pivots=indexed.social_pivots,
    )
    users = sample_query_users(network, 3, seed=BENCH_SEED)

    indexed_result = run_workload(
        indexed, users, max_groups=BENCH_SCALE.max_groups
    )
    scan_cpu, scan_io = [], []
    for uq in users:
        query = GPSSNQuery(query_user=uq)
        answer_scan, stats_scan = scan.answer(
            query, max_groups=BENCH_SCALE.max_groups
        )
        answer_idx, _ = indexed.answer(
            query, max_groups=BENCH_SCALE.max_groups
        )
        assert answer_scan.found == answer_idx.found
        if answer_scan.found:
            assert abs(answer_scan.max_distance - answer_idx.max_distance) < 1e-9
        scan_cpu.append(stats_scan.cpu_time_sec)
        scan_io.append(stats_scan.page_accesses)

    rows = [
        ["indexed (Algorithm 2)",
         round(indexed_result.mean_cpu, 5),
         round(indexed_result.mean_io, 1)],
        ["object-level scan",
         round(sum(scan_cpu) / len(scan_cpu), 5),
         round(sum(scan_io) / len(scan_io), 1)],
    ]
    write_result(
        "ablation_scan_vs_index",
        ["design", "CPU (s)", "I/O"],
        rows,
        "Index vs scan ablation (UNI, defaults)",
    )

    # The index must not cost more I/O than a full scan of all objects.
    assert indexed_result.mean_io <= sum(scan_io) / len(scan_io) * 5

    query = GPSSNQuery(query_user=users[0])
    benchmark.pedantic(
        lambda: scan.answer(query, max_groups=BENCH_SCALE.max_groups),
        rounds=2, iterations=1,
    )
