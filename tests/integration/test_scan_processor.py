"""The scan-based competitor must agree with index and baseline."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    BaselineProcessor,
    GPSSNQuery,
    GPSSNQueryProcessor,
    uni_dataset,
    zipf_dataset,
)
from repro.core.metrics import InterestMetric
from repro.core.scan import ScanProcessor
from repro.obs.registry import Recorder


@pytest.fixture(scope="module")
def setup():
    network = uni_dataset(
        num_road_vertices=90, num_pois=28, num_users=44, seed=33
    )
    indexed = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=33
    )
    scan = ScanProcessor(
        network,
        road_pivots=indexed.road_pivots,
        social_pivots=indexed.social_pivots,
    )
    return network, indexed, scan, BaselineProcessor(network)


class TestEquivalence:
    def test_matches_indexed_and_baseline(self, setup):
        network, indexed, scan, baseline = setup
        rng = np.random.default_rng(1)
        for _ in range(4):
            uq = int(rng.integers(network.social.num_users))
            query = GPSSNQuery(
                query_user=uq, tau=3, gamma=0.25, theta=0.3, radius=2.5
            )
            a, _ = indexed.answer(query)
            b, _ = scan.answer(query)
            c, _ = baseline.answer(query)
            assert a.found == b.found == c.found
            if a.found:
                assert a.max_distance == pytest.approx(b.max_distance)
                assert b.max_distance == pytest.approx(c.max_distance)


class TestCostProfile:
    def test_scan_io_scales_with_population(self, setup):
        network, indexed, scan, _ = setup
        query = GPSSNQuery(query_user=0, tau=3, gamma=0.25, theta=0.3, radius=2.5)
        _, scan_stats = scan.answer(query)
        expected_pages = -(-(network.social.num_users + network.num_pois) // 32)
        assert scan_stats.page_accesses == expected_pages

    def test_repeated_query_searches_no_cached_region(self, setup, monkeypatch):
        """A seed whose ball the pair kernel caches costs no region
        search on the next query (``pois_within`` is a full search)."""
        network, indexed, _, _ = setup
        scan = ScanProcessor(
            network,
            road_pivots=indexed.road_pivots,
            social_pivots=indexed.social_pivots,
        )
        searched = []
        pois_within = network.pois_within

        def counting(poi_id, radius):
            searched.append(poi_id)
            return pois_within(poi_id, radius)

        monkeypatch.setattr(network, "pois_within", counting)
        query = GPSSNQuery(query_user=5, tau=3, gamma=0.2, theta=0.3, radius=2.5)
        first, _ = scan.answer(query)
        assert searched  # the first query built its seeds' regions
        searched.clear()
        again, _ = scan.answer(query)
        assert searched == []
        assert again == first

    def test_scan_applies_same_object_pruning(self, setup):
        network, indexed, scan, _ = setup
        query = GPSSNQuery(query_user=2, tau=3, gamma=0.4, theta=0.4, radius=2.0)
        _, scan_stats = scan.answer(query)
        # Object-level rules fire on the scan path too.
        assert scan_stats.pruning.social_object_pruned > 0
        assert scan_stats.candidate_users < network.social.num_users


# -- pinned outcomes ------------------------------------------------------
#
# ``scan_golden.json`` holds, for every case of GOLDEN_GRID, the scan's
# answer (users, POIs, ``repr(max_distance)``), ``groups_refined``,
# ``candidate_pairs_examined``, page accesses and the EXPLAIN funnel
# counts (per phase: visited, survived and the count of each rule).
# Regenerate, only for a change meant to move scan outcomes, with
#
#     PYTHONPATH=src python tests/integration/test_scan_processor.py

GOLDEN_PATH = Path(__file__).with_name("scan_golden.json")

#: (dataset, issuer, tau, gamma, metric, max_groups)
GOLDEN_GRID = [
    (name, uq, tau, gamma, "dot", None)
    for name in ("UNI", "ZIPF")
    for uq in range(0, 120, 17)
    for tau in (3, 4)
    for gamma in (0.1, 0.25)
] + [
    (name, uq, 4, 0.1, "dot", 100)
    for name in ("UNI", "ZIPF")
    for uq in range(0, 120, 17)
] + [
    (name, uq, 3, 0.5, "cosine", None)
    for name in ("UNI", "ZIPF")
    for uq in range(0, 120, 17)
]


def _golden_scans():
    return {
        name: ScanProcessor(
            maker(num_road_vertices=120, num_pois=40, num_users=120, seed=5),
            seed=5, recorder=Recorder.explaining(),
        )
        for name, maker in (("UNI", uni_dataset), ("ZIPF", zipf_dataset))
    }


def _scan_outcome(scan, uq, tau, gamma, metric, max_groups):
    explain = scan.recorder.explain
    explain.clear()
    query = GPSSNQuery(
        query_user=uq, tau=tau, gamma=gamma, theta=0.3, radius=2.5,
        metric=InterestMetric(metric),
    )
    answer, stats = scan.answer(query, max_groups=max_groups)
    return {
        "users": sorted(answer.users),
        "pois": sorted(answer.pois),
        "max_distance": repr(answer.max_distance),
        "groups_refined": stats.groups_refined,
        "pairs_examined": stats.pruning.candidate_pairs_examined,
        "page_accesses": stats.page_accesses,
        "funnel": {
            f.name: [
                f.visited, f.survived,
                {rule: r.pruned for rule, r in sorted(f.rules.items())},
            ]
            for f in explain.iter_phases()
        },
    }


def _golden_outcomes():
    scans = _golden_scans()
    return [
        _scan_outcome(scans[case[0]], *case[1:]) for case in GOLDEN_GRID
    ]


class TestPinnedOutcomes:
    def test_grid_matches_golden(self):
        expected = json.loads(GOLDEN_PATH.read_text())
        assert len(expected) == len(GOLDEN_GRID)
        for case, want, got in zip(
            GOLDEN_GRID, expected, _golden_outcomes()
        ):
            assert got == want, case


if __name__ == "__main__":
    lines = [json.dumps(o, sort_keys=True) for o in _golden_outcomes()]
    GOLDEN_PATH.write_text("[\n" + ",\n".join(lines) + "\n]\n")
