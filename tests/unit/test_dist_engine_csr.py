"""Unit tests for the CSR snapshot, its C Dijkstra and the ``dist_RN``
engine on top of them."""

import math
import sys
import threading

import numpy as np
import pytest

from repro import NetworkPosition, RoadNetwork
from repro.datagen.synthetic import generate_road_network
from repro.exceptions import InvalidParameterError, UnknownEntityError
from repro.roadnet.csr import CSRGraph, DenseDistanceView
from repro.roadnet.engines import CSREngine
from repro.roadnet.shortest_path import (
    DistanceOracle,
    multi_source_dijkstra,
    position_seeds,
)
from tests.conftest import build_grid_road, reference_point_to_point


@pytest.fixture(scope="module")
def random_road():
    return generate_road_network(80, np.random.default_rng(3))


class TestCSRGraphShape:
    def test_vertex_and_edge_counts(self, grid_road):
        csr = CSRGraph(grid_road)
        assert csr.num_vertices == grid_road.num_vertices
        assert csr.num_edges == grid_road.num_edges
        assert len(csr.indptr) == csr.num_vertices + 1
        assert int(csr.indptr[-1]) == len(csr.indices) == len(csr.weights)

    def test_remap_is_a_bijection(self, random_road):
        csr = CSRGraph(random_road)
        assert sorted(csr.ids) == sorted(random_road.vertices())
        for i, vid in enumerate(csr.ids):
            assert csr.index_of[vid] == i

    def test_rows_match_adjacency(self, random_road):
        csr = CSRGraph(random_road)
        for vid in random_road.vertices():
            i = csr.index_of[vid]
            row = {
                csr.ids[int(csr.indices[j])]: float(csr.weights[j])
                for j in range(int(csr.indptr[i]), int(csr.indptr[i + 1]))
            }
            assert row == pytest.approx(random_road.neighbors(vid))

    def test_version_recorded(self, random_road):
        assert CSRGraph(random_road).road_version == random_road.version

    def test_unknown_seed_raises(self, grid_road):
        csr = CSRGraph(grid_road)
        with pytest.raises(UnknownEntityError):
            csr.internal_seeds([(999, 0.0)])


class TestKernelEquivalence:
    """The C search is a drop-in for multi_source_dijkstra, bit for bit."""

    def assert_sssp_matches(self, road, seeds, max_distance=math.inf):
        csr = CSRGraph(road)
        ours = csr.sssp(seeds, max_distance)
        assert isinstance(ours, DenseDistanceView)
        reference = multi_source_dijkstra(road, seeds, max_distance)
        assert dict(ours.items()) == reference

    def test_full_sweep_grid(self, grid_road):
        self.assert_sssp_matches(grid_road, [(0, 0.0)])

    def test_full_sweep_random(self, random_road):
        first = next(iter(random_road.vertices()))
        self.assert_sssp_matches(random_road, [(first, 0.0)])

    def test_seeded_multi_source(self, random_road):
        ids = list(random_road.vertices())
        seeds = [(ids[0], 1.5), (ids[7], 0.25), (ids[20], 3.0)]
        self.assert_sssp_matches(random_road, seeds)

    def test_bounded_sweep(self, random_road):
        ids = list(random_road.vertices())
        self.assert_sssp_matches(random_road, [(ids[4], 0.5)], max_distance=22.0)

    def test_empty_seeds(self, grid_road):
        assert CSRGraph(grid_road).sssp([]) == {}

    def test_disconnected_component_absent(self):
        road = RoadNetwork()
        for vid, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            road.add_vertex(vid, x, y)
        road.add_edge(0, 1)
        road.add_edge(2, 3)
        assert set(CSRGraph(road).sssp([(0, 0.0)])) == {0, 1}

    def test_scipy_path_matches_kernel(self, random_road):
        csr = CSRGraph(random_road)
        ids = list(random_road.vertices())
        seeds = [(ids[2], 0.75), (ids[11], 0.0)]
        for bound in (math.inf, 18.0):
            via_scipy = csr.sssp(seeds, bound)
            reference = multi_source_dijkstra(random_road, seeds, bound)
            assert dict(via_scipy.items()) == reference
        assert csr.scipy_runs == 2  # one C search per seeded call

    @pytest.mark.parametrize("size", [1, 2, 16])
    def test_every_size_is_one_c_search(self, size):
        """The smallest graphs take the same C search as the largest:
        one run per call, a dense row of every vertex, and a view."""
        road = RoadNetwork()
        for vid in range(size):
            road.add_vertex(vid, float(vid), 0.0)
        for vid in range(1, size):
            road.add_edge(vid - 1, vid)
        csr = CSRGraph(road)
        view = csr.sssp([(0, 0.0)])
        row = csr.sssp_dense([(0, 0.0)])
        assert isinstance(view, DenseDistanceView)
        assert row.shape == (size,)
        assert np.array_equal(view.row, row)
        assert csr.scipy_runs == 2
        assert dict(view.items()) == multi_source_dijkstra(road, [(0, 0.0)])

    def test_concurrent_searches_match_serial(self, random_road):
        """Threads searching one graph get the rows a serial run gets:
        the virtual source row is written and searched under the
        graph's lock."""
        workers, repeats = 4, 12
        csr = CSRGraph(random_road)
        ids = list(random_road.vertices())
        rng = np.random.default_rng(17)
        seed_sets = [
            [
                (ids[int(rng.integers(len(ids)))], float(rng.random() * 3))
                for _ in range(1 + i % 3)
            ]
            for i in range(30)
        ]
        serial = [csr.sssp_dense(s) for s in seed_sets]
        results = [[] for _ in range(workers)]
        barrier = threading.Barrier(workers)

        def work(slot):
            order = list(range(len(seed_sets)))
            if slot % 2:
                order.reverse()
            barrier.wait(timeout=30)
            for _ in range(repeats):
                for i in order:
                    results[slot].append((i, csr.sssp_dense(seed_sets[i])))

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(workers)
        ]
        # Switch threads as often as the interpreter allows, so an
        # unguarded write would interleave with another search.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for rows in results:
            assert len(rows) == repeats * len(seed_sets)
            for i, row in rows:
                assert np.array_equal(row, serial[i])


class TestCSREngine:
    def test_point_to_point_matches_plain(self, random_road):
        engine = CSREngine(random_road)
        rng = np.random.default_rng(11)
        edges = list(random_road.edges())
        for _ in range(30):
            u1, v1, l1 = edges[int(rng.integers(len(edges)))]
            u2, v2, l2 = edges[int(rng.integers(len(edges)))]
            a = NetworkPosition(u1, v1, float(rng.random() * l1))
            b = NetworkPosition(u2, v2, float(rng.random() * l2))
            assert engine.point_to_point(a, b) == pytest.approx(
                reference_point_to_point(random_road, a, b), abs=1e-9
            )

    def test_rebuild_on_mutation(self):
        road = build_grid_road()
        engine = CSREngine(road)
        first = engine.graph()
        assert engine.graph() is first  # same version: cached
        road.add_vertex(99, -10.0, -10.0)
        road.add_edge(0, 99, 10.0)
        second = engine.graph()
        assert second is not first
        assert second.road_version == road.version
        dist = engine.sssp([(99, 0.0)])
        assert dist[0] == pytest.approx(10.0)

    def test_stats_counters(self, grid_road):
        engine = CSREngine(grid_road)
        assert engine.stats() == {}  # nothing built yet
        engine.sssp([(0, 0.0)])
        assert engine.stats() == {"scipy_runs": 1.0}

    def test_oracle_delegates_to_engine(self, grid_road):
        oracle = DistanceOracle(grid_road)
        engine = oracle.engine
        assert isinstance(engine, CSREngine)
        pos = NetworkPosition(0, 1, 1.0)
        via_oracle = oracle.distances_from("k", pos)
        direct = engine.sssp(position_seeds(grid_road, pos))
        assert via_oracle == direct
        assert engine.stats()["scipy_runs"] == 2

    def test_same_edge_reversed_orientation(self, grid_road):
        # Endpoint detours give min(2+7, 8+3) = 9; the direct walk is 5.
        engine = CSREngine(grid_road)
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 0, 3.0)
        assert engine.point_to_point(a, b) == pytest.approx(5.0)

    def test_on_edge_positions(self, grid_road):
        # Mid-edge positions seed both endpoints: 5 to vertex 0, 5 on.
        engine = CSREngine(grid_road)
        a = NetworkPosition(0, 1, 5.0)
        b = NetworkPosition(0, 4, 5.0)
        assert engine.point_to_point(a, b) == pytest.approx(10.0)

    def test_disconnected_pair_is_inf(self):
        road = RoadNetwork()
        for vid, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            road.add_vertex(vid, x, y)
        road.add_edge(0, 1)
        road.add_edge(2, 3)
        engine = CSREngine(road)
        a = NetworkPosition(0, 1, 0.5)
        b = NetworkPosition(2, 3, 0.5)
        assert math.isinf(engine.point_to_point(a, b))
        assert math.isinf(reference_point_to_point(road, a, b))

    def test_empty_seeds_reach_nothing(self, grid_road):
        engine = CSREngine(grid_road)
        assert engine.sssp([]) == {}
        row = engine.sssp_dense([])
        assert row.shape == (grid_road.num_vertices,)
        assert np.isinf(row).all()

    def test_point_to_point_follows_mutation(self):
        road = build_grid_road()
        engine = CSREngine(road)
        engine.point_to_point(
            NetworkPosition(0, 1, 1.0), NetworkPosition(14, 15, 2.0)
        )
        road.add_vertex(99, -10.0, -10.0)
        road.add_edge(0, 99, 10.0)
        a = NetworkPosition(0, 99, 0.0)
        b = NetworkPosition(0, 99, 10.0)
        assert engine.point_to_point(a, b) == pytest.approx(10.0)


class TestSingleEngine:
    def test_network_engine_is_csr(self, grid_road):
        from repro import SocialNetwork, SpatialSocialNetwork

        network = SpatialSocialNetwork(grid_road, SocialNetwork(), [], 1)
        engine = network.use_distance_engine("csr")
        assert engine is network.distances.engine
        assert isinstance(engine, CSREngine)
        assert engine.name == "csr"

    def test_unknown_name_rejected(self, grid_road):
        from repro import SocialNetwork, SpatialSocialNetwork

        network = SpatialSocialNetwork(grid_road, SocialNetwork(), [], 1)
        for name in ("ch", "quantum"):
            with pytest.raises(InvalidParameterError):
                network.use_distance_engine(name)

    def test_config_validates_cache_size(self):
        from repro.config import ExperimentConfig

        with pytest.raises(InvalidParameterError):
            ExperimentConfig(distance_cache_size=0)
