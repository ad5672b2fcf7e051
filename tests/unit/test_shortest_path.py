"""Unit and property tests for Dijkstra and the distance oracle."""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NetworkPosition
from repro.datagen.synthetic import generate_road_network
from repro.exceptions import UnknownEntityError
from repro.roadnet.shortest_path import (
    DistanceOracle,
    dijkstra,
    direct_edge_distance,
    multi_source_dijkstra,
    position_seeds,
)


def to_networkx(road):
    g = nx.Graph()
    for u, v, length in road.edges():
        g.add_edge(u, v, weight=length)
    return g


class TestDijkstra:
    def test_grid_distances_match_networkx(self, grid_road):
        ours = dijkstra(grid_road, 0)
        reference = nx.single_source_dijkstra_path_length(
            to_networkx(grid_road), 0
        )
        assert set(ours) == set(reference)
        for v, d in reference.items():
            assert ours[v] == pytest.approx(d)

    def test_source_distance_is_zero(self, grid_road):
        assert dijkstra(grid_road, 5)[5] == 0.0

    def test_unknown_source_raises(self, grid_road):
        with pytest.raises(UnknownEntityError):
            dijkstra(grid_road, 999)

    def test_max_distance_truncates(self, grid_road):
        truncated = dijkstra(grid_road, 0, max_distance=15.0)
        full = dijkstra(grid_road, 0)
        assert set(truncated) == {v for v, d in full.items() if d <= 15.0}
        for v, d in truncated.items():
            assert d == pytest.approx(full[v])

    def test_unreachable_vertices_absent(self):
        from repro import RoadNetwork

        road = RoadNetwork()
        for vid, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            road.add_vertex(vid, x, y)
        road.add_edge(0, 1)
        road.add_edge(2, 3)
        dist = dijkstra(road, 0)
        assert set(dist) == {0, 1}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), source=st.integers(0, 59))
    def test_random_networks_match_networkx(self, seed, source):
        rng = np.random.default_rng(seed)
        road = generate_road_network(60, rng)
        ours = dijkstra(road, source)
        reference = nx.single_source_dijkstra_path_length(
            to_networkx(road), source
        )
        assert set(ours) == set(reference)
        for v, d in reference.items():
            assert ours[v] == pytest.approx(d)


class TestMultiSource:
    def test_two_seeds_take_minimum(self, grid_road):
        combined = multi_source_dijkstra(grid_road, [(0, 0.0), (15, 0.0)])
        from_zero = dijkstra(grid_road, 0)
        from_last = dijkstra(grid_road, 15)
        for v in combined:
            assert combined[v] == pytest.approx(
                min(from_zero.get(v, math.inf), from_last.get(v, math.inf))
            )

    def test_initial_offsets_respected(self, grid_road):
        dist = multi_source_dijkstra(grid_road, [(0, 3.0)])
        assert dist[0] == 3.0
        assert dist[1] == pytest.approx(13.0)

    def test_empty_seed_list(self, grid_road):
        assert multi_source_dijkstra(grid_road, []) == {}


class TestPositionDistances:
    def test_position_seeds_split_edge(self, grid_road):
        pos = NetworkPosition(0, 1, 4.0)
        seeds = dict(position_seeds(grid_road, pos))
        assert seeds[0] == 4.0
        assert seeds[1] == pytest.approx(6.0)

    def test_same_edge_shortcut(self, grid_road):
        oracle = DistanceOracle(grid_road)
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(0, 1, 7.0)
        assert oracle.distance("a", a, b) == pytest.approx(5.0)

    def test_same_edge_reverse_orientation(self, grid_road):
        oracle = DistanceOracle(grid_road)
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 0, 3.0)  # 7.0 from vertex 0
        assert oracle.distance("a", a, b) == pytest.approx(5.0)

    def test_cross_edge_distance(self, grid_road):
        oracle = DistanceOracle(grid_road)
        a = NetworkPosition(0, 1, 5.0)   # middle of bottom-left edge
        b = NetworkPosition(0, 4, 5.0)   # middle of left vertical edge
        assert oracle.distance("a", a, b) == pytest.approx(10.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        road = generate_road_network(40, rng)
        edges = list(road.edges())
        u1, v1, l1 = edges[int(rng.integers(len(edges)))]
        u2, v2, l2 = edges[int(rng.integers(len(edges)))]
        a = NetworkPosition(u1, v1, float(rng.random() * l1))
        b = NetworkPosition(u2, v2, float(rng.random() * l2))
        oracle = DistanceOracle(road)
        assert oracle.distance("a", a, b) == pytest.approx(
            oracle.distance("b", b, a), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        road = generate_road_network(40, rng)
        edges = list(road.edges())
        positions = []
        for _ in range(3):
            u, v, length = edges[int(rng.integers(len(edges)))]
            positions.append(NetworkPosition(u, v, float(rng.random() * length)))
        oracle = DistanceOracle(road)
        ab = oracle.distance("a", positions[0], positions[1])
        bc = oracle.distance("b", positions[1], positions[2])
        ac = oracle.distance("a", positions[0], positions[2])
        assert ac <= ab + bc + 1e-9


class TestDirectEdgeDistance:
    """Regression tests for the same-edge special case of ``dist_RN``."""

    def test_same_orientation(self, grid_road):
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(0, 1, 7.5)
        assert direct_edge_distance(grid_road, a, b) == pytest.approx(5.5)

    def test_reversed_orientation(self, grid_road):
        # The same two physical points, named from opposite endpoints:
        # offset 2 from vertex 0 vs offset 3 from vertex 1 (= 7 from 0).
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 0, 3.0)
        assert direct_edge_distance(grid_road, a, b) == pytest.approx(5.0)
        assert direct_edge_distance(grid_road, b, a) == pytest.approx(5.0)

    def test_reversed_orientation_same_point(self, grid_road):
        a = NetworkPosition(0, 1, 4.0)
        b = NetworkPosition(1, 0, 6.0)  # identical physical point
        assert direct_edge_distance(grid_road, a, b) == pytest.approx(0.0)

    def test_different_edges_are_inf(self, grid_road):
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 2, 2.0)
        assert math.isinf(direct_edge_distance(grid_road, a, b))

    def test_self_loop_takes_shorter_way_around(self):
        # RoadNetwork.add_edge rejects self-loops, so inject one directly
        # to pin down the documented ambiguity handling: offsets on a
        # loop have no canonical direction, so both ways around count.
        from repro import RoadNetwork

        road = RoadNetwork()
        road.add_vertex(0, 0.0, 0.0)
        road._adj[0][0] = 12.0
        a = NetworkPosition(0, 0, 2.0)
        b = NetworkPosition(0, 0, 9.0)
        # |2 - 9| = 7 one way, 12 - 7 = 5 the other.
        assert direct_edge_distance(road, a, b) == pytest.approx(5.0)
        assert direct_edge_distance(road, b, a) == pytest.approx(5.0)

    def test_oracle_distance_uses_direct_walk_when_reversed(self, grid_road):
        # Endpoint detours give min(2+7, 8+3) = 9; the direct walk is 5.
        oracle = DistanceOracle(grid_road)
        a = NetworkPosition(0, 1, 2.0)
        b = NetworkPosition(1, 0, 3.0)
        assert oracle.distance("a", a, b) == pytest.approx(5.0)


class TestOracle:
    def test_caching_avoids_repeat_searches(self, grid_road):
        oracle = DistanceOracle(grid_road)
        pos = NetworkPosition(0, 1, 1.0)
        other = NetworkPosition(14, 15, 2.0)
        oracle.distance("k", pos, other)
        runs = oracle.searches_run
        hits = oracle.cache_hits
        oracle.distance("k", pos, other)
        assert oracle.searches_run == runs
        assert oracle.cache_hits == hits + 1

    def test_eviction_beyond_cache_size(self, grid_road):
        oracle = DistanceOracle(grid_road, cache_size=2)
        for key in ("a", "b", "c"):
            oracle.distances_from(key, NetworkPosition(0, 1, 1.0))
        assert oracle.searches_run == 3
        oracle.distances_from("a", NetworkPosition(0, 1, 1.0))
        assert oracle.searches_run == 4  # "a" was evicted

    def test_clear(self, grid_road):
        oracle = DistanceOracle(grid_road)
        oracle.distances_from("a", NetworkPosition(0, 1, 1.0))
        oracle.clear()
        oracle.distances_from("a", NetworkPosition(0, 1, 1.0))
        assert oracle.searches_run == 2

    def test_default_cache_size_from_config(self, grid_road):
        from repro.config import DEFAULT_DISTANCE_CACHE_SIZE

        oracle = DistanceOracle(grid_road)
        assert oracle.cache_size == DEFAULT_DISTANCE_CACHE_SIZE
        assert DistanceOracle(grid_road, cache_size=3).cache_size == 3

    def test_hit_rate(self, grid_road):
        oracle = DistanceOracle(grid_road)
        assert oracle.hit_rate == 0.0  # idle oracle: no division by zero
        pos = NetworkPosition(0, 1, 1.0)
        oracle.distances_from("k", pos)
        assert oracle.hit_rate == 0.0
        oracle.distances_from("k", pos)
        assert oracle.hit_rate == pytest.approx(0.5)
        oracle.distances_from("k", pos)
        assert oracle.hit_rate == pytest.approx(2 / 3)

    def test_point_to_point_bypasses_cache(self, grid_road):
        oracle = DistanceOracle(grid_road)
        a = NetworkPosition(0, 1, 5.0)
        b = NetworkPosition(0, 4, 5.0)
        got = oracle.engine.point_to_point(a, b)
        assert got == pytest.approx(oracle.distance("a", a, b))
        # The engine's one-shot path never touched the hit/miss accounting.
        assert oracle.cache_hits == 0
        assert oracle.searches_run == 1  # only the distance() call

    def test_unreachable_position_is_inf(self):
        from repro import RoadNetwork

        road = RoadNetwork()
        for vid, (x, y) in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            road.add_vertex(vid, x, y)
        road.add_edge(0, 1)
        road.add_edge(2, 3)
        oracle = DistanceOracle(road)
        a = NetworkPosition(0, 1, 0.5)
        b = NetworkPosition(2, 3, 0.5)
        assert math.isinf(oracle.distance("a", a, b))


class TestOracleInvalidation:
    """A cached map is exact while its source and the road graph hold."""

    @staticmethod
    def _network():
        from repro import uni_dataset

        return uni_dataset(
            num_road_vertices=100, num_pois=30, num_users=40, seed=2
        )

    def test_road_edit_drops_cached_maps(self):
        network = self._network()
        ids = network.poi_ids()
        a, b = max(
            ((p, q) for p in ids for q in ids
             if network.poi(p).position.u != network.poi(q).position.u
             and not network.road.has_edge(
                 network.poi(p).position.u, network.poi(q).position.u)),
            key=lambda pq: network.poi_poi_distance(*pq),
        )
        before = network.poi_poi_distance(a, b)
        network.distances.dense_distances_from(
            ("poi", a), network.poi(a).position
        )
        network.road.add_edge(
            network.poi(a).position.u, network.poi(b).position.u, 1e-3
        )
        fresh = DistanceOracle(network.road)
        pos_a, pos_b = network.poi(a).position, network.poi(b).position
        expected = fresh.distance(("poi", a), pos_a, pos_b)
        assert expected < before
        assert network.poi_poi_distance(a, b) == expected
        np.testing.assert_array_equal(
            network.distances.dense_distances_from(("poi", a), pos_a),
            fresh.dense_distances_from(("poi", a), pos_a),
        )

    def test_move_user_reruns_only_its_search(self):
        network = self._network()
        users = sorted(network.social.user_ids())[:6]
        pois = network.poi_ids()[:6]
        oracle = network.distances

        def warm():
            for uid in users:
                oracle.distances_from(
                    ("user", uid), network.social.user(uid).home
                )
            for pid in pois:
                oracle.distances_from(("poi", pid), network.poi(pid).position)

        warm()
        moved = users[0]
        target = network.social.user(users[-1]).home
        network.move_user(moved, target)
        runs = oracle.searches_run
        warm()
        assert oracle.searches_run == runs + 1

        fresh = DistanceOracle(network.road)
        for uid in users:
            home = network.social.user(uid).home
            for pid in pois:
                pos = network.poi(pid).position
                assert oracle.distance(("user", uid), home, pos) == \
                    fresh.distance(("user", uid), home, pos)
                assert network.user_poi_distance(uid, pid) == \
                    fresh.distance(("poi", pid), pos, home)
