"""Unit tests for the contraction hierarchy and its engine wrapper."""

import math

import numpy as np
import pytest

from repro import NetworkPosition, RoadNetwork
from repro.datagen.synthetic import generate_road_network
from repro.roadnet.ch import ContractionHierarchy
from repro.roadnet.csr import CSRGraph
from repro.roadnet.engines import CHEngine
from repro.roadnet.shortest_path import dijkstra
from tests.conftest import build_grid_road, reference_point_to_point


def assert_all_pairs_exact(road, ch, csr):
    """Every vertex pair: CH query == reference Dijkstra, including inf."""
    ids = list(road.vertices())
    for source in ids:
        reference = dijkstra(road, source)
        si = csr.index_of[source]
        for target in ids:
            ti = csr.index_of[target]
            got = ch.query([(si, 0.0)], [(ti, 0.0)])
            want = reference.get(target, math.inf)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-9)


class TestHierarchyExactness:
    def test_grid_all_pairs(self, grid_road):
        csr = CSRGraph(grid_road)
        ch = ContractionHierarchy.build(csr)
        assert_all_pairs_exact(grid_road, ch, csr)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_networks_all_pairs(self, seed):
        road = generate_road_network(40, np.random.default_rng(seed))
        csr = CSRGraph(road)
        ch = ContractionHierarchy.build(csr)
        assert_all_pairs_exact(road, ch, csr)

    def test_tiny_witness_cap_stays_exact(self):
        # A cap of 1 misses almost every witness, inserting many
        # redundant shortcuts — distances must be unaffected.
        road = generate_road_network(30, np.random.default_rng(9))
        csr = CSRGraph(road)
        generous = ContractionHierarchy.build(csr)
        starved = ContractionHierarchy.build(csr, witness_settle_cap=1)
        assert starved.shortcuts_added >= generous.shortcuts_added
        assert_all_pairs_exact(road, starved, csr)

    def test_disconnected_pair_is_inf(self):
        road = RoadNetwork()
        for vid, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            road.add_vertex(vid, x, y)
        road.add_edge(0, 1)
        road.add_edge(2, 3)
        csr = CSRGraph(road)
        ch = ContractionHierarchy.build(csr)
        assert math.isinf(
            ch.query([(csr.index_of[0], 0.0)], [(csr.index_of[2], 0.0)])
        )
        assert_all_pairs_exact(road, ch, csr)

    def test_on_edge_seeds(self, grid_road):
        # Positions mid-edge seed both endpoints, like the flat kernel.
        csr = CSRGraph(grid_road)
        ch = ContractionHierarchy.build(csr)
        a = [(csr.index_of[0], 5.0), (csr.index_of[1], 5.0)]
        b = [(csr.index_of[0], 5.0), (csr.index_of[4], 5.0)]
        assert ch.query(a, b) == pytest.approx(10.0)

    def test_empty_seeds_are_inf(self, grid_road):
        ch = ContractionHierarchy.build(CSRGraph(grid_road))
        assert math.isinf(ch.query([], [(0, 0.0)]))
        assert math.isinf(ch.query([(0, 0.0)], []))


def revive_from_arrays(ch):
    """The hierarchy rebuilt from its flat arrays, the form a frozen
    arena stores and hands back on attach."""
    return ContractionHierarchy(
        n=ch.n,
        rank=np.asarray(ch.rank, dtype=np.int64),
        up_indptr=np.asarray(ch.up_indptr, dtype=np.int64),
        up_indices=np.asarray(ch.up_indices, dtype=np.int64),
        up_weights=np.asarray(ch.up_weights, dtype=np.float64),
        shortcuts_added=ch.shortcuts_added,
        preprocess_seconds=ch.preprocess_seconds,
    )


class TestHierarchySnapshot:
    def test_roundtrip_identical(self, grid_road):
        csr = CSRGraph(grid_road)
        ch = ContractionHierarchy.build(csr)
        revived = revive_from_arrays(ch)
        assert revived.shortcuts_added == ch.shortcuts_added
        assert_all_pairs_exact(grid_road, revived, csr)


class TestCHEngine:
    def test_point_to_point_matches_plain(self):
        road = generate_road_network(60, np.random.default_rng(5))
        engine = CHEngine(road)
        rng = np.random.default_rng(13)
        edges = list(road.edges())
        for _ in range(40):
            u1, v1, l1 = edges[int(rng.integers(len(edges)))]
            u2, v2, l2 = edges[int(rng.integers(len(edges)))]
            a = NetworkPosition(u1, v1, float(rng.random() * l1))
            b = NetworkPosition(u2, v2, float(rng.random() * l2))
            assert engine.point_to_point(a, b) == pytest.approx(
                reference_point_to_point(road, a, b), abs=1e-9
            )

    def test_same_edge_reversed_orientation(self, grid_road):
        engine = CHEngine(grid_road)
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 0, 3.0)
        assert engine.point_to_point(a, b) == pytest.approx(5.0)

    def test_hierarchy_rebuilt_on_mutation(self):
        road = build_grid_road()
        engine = CHEngine(road)
        first = engine.hierarchy()
        assert engine.hierarchy() is first
        road.add_vertex(99, -10.0, -10.0)
        road.add_edge(0, 99, 10.0)
        second = engine.hierarchy()
        assert second is not first
        a = NetworkPosition(0, 99, 0.0)
        b = NetworkPosition(0, 99, 10.0)
        assert engine.point_to_point(a, b) == pytest.approx(10.0)

    def test_stats_exposed(self, grid_road):
        engine = CHEngine(grid_road)
        engine.point_to_point(
            NetworkPosition(0, 1, 1.0), NetworkPosition(14, 15, 2.0)
        )
        stats = engine.stats()
        assert stats["shortcuts_added"] >= 0.0
        assert stats["preprocess_seconds"] > 0.0
        assert stats["upward_settles"] > 0.0

    def test_engine_snapshot_roundtrip(self, grid_road):
        engine = CHEngine(grid_road)
        revived = CHEngine(grid_road)
        revived.adopt(
            CSRGraph(grid_road), revive_from_arrays(engine.hierarchy())
        )
        # Adoption must not re-run preprocessing.
        adopted = revived._ch
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(10, 11, 8.0)
        assert revived.point_to_point(a, b) == pytest.approx(
            engine.point_to_point(a, b), abs=1e-9
        )
        assert revived._ch is adopted
