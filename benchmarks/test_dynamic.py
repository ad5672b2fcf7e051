"""Dynamic maintenance benchmark: incremental re-answer vs full rebuild.

A :class:`~repro.dynamic.continuous.ContinuousQueryRegistry` holds a
panel of standing queries while a seeded mutation stream (user moves,
friendship flips, POI churn) lands one op at a time — the streaming
case, where answers must be fresh after *every* mutation. Each mutation
is paid for two ways, interleaved in one process:

* **incremental** — ``apply_batch``: per-mutation index maintenance
  (exact R*-tree edits, widen-on-update social bounds, pivot-map
  staleness tests), the per-query dirty-region skip predicates, and a
  re-answer of only the queries the mutation could actually have
  touched;
* **rebuild** — a from-scratch :func:`make_processor` on the mutated
  network plus a cold re-answer of *every* standing query — what a
  static deployment pays to restore freshness.

The standing panel uses ``tau = 3``: at this benchmark's ~1% structural
scale the social graph is dense enough that a paper-default ``tau = 5``
ball covers most of the 300 users and nearly every friendship flip
would legitimately re-answer — a density artifact of the downscaling,
not of the skip predicates.

The arms must agree byte-for-byte after every mutation (the registry's
outcome lines vs the cold registry's), which doubles as a 60-prefix
oracle run of the dynamic-parity contract at benchmark scale. The
summed times land in ``results/BENCH_dynamic.json`` with its gates —
at least ``MIN_SPEEDUP`` (5x), identical outcomes, exact compaction —
which ``scripts/check_bench_regression.py`` re-validates in CI.
Compaction is exact when, after the stream, a forced
:meth:`~repro.index.social_index.SocialIndex.compact` leaves the
containment invariant intact and is a fixpoint (a second compact
tightens nothing), i.e. the slack repair really restores exact Eq. 9-14
bounds.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks.conftest import (
    BENCH_SCALE,
    BENCH_SEED,
    RESULTS_DIR,
    gate_failures,
    write_result,
)
from repro.core.query import GPSSNQuery
from repro.dynamic import (
    ContinuousQueryRegistry,
    DynamicIndexMaintainer,
    synthesize_mutations,
)
from repro.experiments.harness import (
    build_dataset,
    make_processor,
    sample_query_users,
)

DYN_QUERIES = 6
DYN_MUTATIONS = 60
DYN_TAU = 3

#: The committed gate: incremental maintenance + selective re-answer
#: must beat rebuild-from-scratch + cold re-answer by at least this
#: factor, summed over the whole stream.
MIN_SPEEDUP = 5.0

BASELINE_PATH = RESULTS_DIR / "BENCH_dynamic.json"


@pytest.fixture(scope="module")
def dynamic_setup():
    network = build_dataset("UNI", BENCH_SCALE, seed=BENCH_SEED)
    issuers = sample_query_users(network, DYN_QUERIES, seed=BENCH_SEED)
    # No max_groups cap: byte-parity between incremental and rebuilt
    # answers is only guaranteed for uncapped enumeration (a binding
    # cap makes the output depend on candidate order, which admissible
    # index slack may legally perturb).
    entries = [
        (GPSSNQuery(query_user=uq, tau=DYN_TAU), None) for uq in issuers
    ]
    return network, entries


def test_dynamic_incremental_vs_rebuild(dynamic_setup):
    network, entries = dynamic_setup

    processor = make_processor(network, seed=BENCH_SEED)
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe(entries)

    log = list(synthesize_mutations(
        network, DYN_MUTATIONS, seed=BENCH_SEED + 1
    ))

    incremental_sec = 0.0
    rebuild_sec = 0.0
    outcomes_match = True
    total_skips = total_reanswers = 0
    for mutation in log:
        started = time.perf_counter()
        report = registry.apply_batch([mutation])
        incremental_sec += time.perf_counter() - started
        total_skips += report["skipped"]
        total_reanswers += report["reanswered"]
        lines = registry.outcome_lines()

        started = time.perf_counter()
        cold = ContinuousQueryRegistry(
            DynamicIndexMaintainer(make_processor(network, seed=BENCH_SEED))
        )
        cold.subscribe(entries)
        rebuild_sec += time.perf_counter() - started
        outcomes_match = outcomes_match and lines == cold.outcome_lines()

    # The skip predicates earned their keep (otherwise the speedup is
    # just the index-rebuild saving, not the continuous-query design).
    assert total_skips > total_reanswers

    # Slack-triggered compaction restores exact bounds: containment
    # invariant intact and compact() a fixpoint afterwards.
    social = processor.social_index
    slack_before = social.bound_slack
    tightened = social.compact()
    social.check_containment()
    compaction_exact = social.compact() == 0 and social.bound_slack == 0

    speedup = rebuild_sec / incremental_sec
    payload = {
        "schema": "gpssn.bench.dynamic/2",
        "scale": {
            "road_vertices": BENCH_SCALE.road_vertices,
            "num_pois": BENCH_SCALE.num_pois,
            "num_users": BENCH_SCALE.num_users,
        },
        "seed": BENCH_SEED,
        "standing_queries": len(entries),
        "tau": DYN_TAU,
        "mutations": DYN_MUTATIONS,
        "cpu_count": os.cpu_count(),
        "incremental_sec": round(incremental_sec, 4),
        "rebuild_sec": round(rebuild_sec, 4),
        "speedup": round(speedup, 2),
        "skips": total_skips,
        "reanswers": total_reanswers,
        "compactions": registry.maintainer.compactions,
        "slack_before_final_compact": slack_before,
        "bounds_tightened": tightened,
        "outcomes_match": outcomes_match,
        "compaction_exact": compaction_exact,
        "gates": [
            {"value": "speedup", "min": MIN_SPEEDUP},
            {"value": "outcomes_match", "equals": True},
            {"value": "compaction_exact", "equals": True},
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    write_result(
        "dynamic_maintenance",
        ["path", "seconds (sum)", "per mutation (ms)", "speedup"],
        [
            ["rebuild + cold re-answer", round(rebuild_sec, 3),
             round(1000 * rebuild_sec / DYN_MUTATIONS, 1), "-"],
            ["incremental maintenance", round(incremental_sec, 3),
             round(1000 * incremental_sec / DYN_MUTATIONS, 1),
             f"{speedup:.1f}x"],
        ],
        title=(
            f"Dynamic maintenance ({DYN_MUTATIONS} mutations, "
            f"{len(entries)} standing queries, {total_skips} skips / "
            f"{total_reanswers} re-answers)"
        ),
    )

    assert gate_failures(payload) == []
