"""Unit and property tests for pivot selection and pivot bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.synthetic import generate_road_network
from repro.exceptions import InvalidParameterError, UnknownEntityError
from repro.index.pivots import (
    RoadPivotIndex,
    pivot_lower_bound,
    select_pivots,
    select_pivots_road,
    select_pivots_social,
)
from repro.roadnet.engines import CSREngine
from tests.conftest import reference_point_to_point


class TestPivotLowerBound:
    def test_basic_gap(self):
        assert pivot_lower_bound([5.0, 2.0], [1.0, 8.0]) == 6.0

    def test_both_infinite_ignored(self):
        assert pivot_lower_bound([math.inf], [math.inf]) == 0.0

    def test_one_sided_infinity_witnesses_disconnection(self):
        assert math.isinf(pivot_lower_bound([math.inf, 3.0], [2.0, 3.0]))

    def test_empty_sequences(self):
        assert pivot_lower_bound([], []) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_lower_bounds_true_distance(self, seed):
        """The soundness property behind Lemmas 4, 7, 9."""
        rng = np.random.default_rng(seed)
        road = generate_road_network(40, rng)
        vertices = list(road.vertices())
        pivots = [int(v) for v in rng.choice(vertices, size=3, replace=False)]
        index = RoadPivotIndex(CSREngine(road), pivots)
        from repro.roadnet.graph import NetworkPosition

        edges = list(road.edges())
        u1, v1, l1 = edges[int(rng.integers(len(edges)))]
        u2, v2, l2 = edges[int(rng.integers(len(edges)))]
        a = NetworkPosition(u1, v1, float(rng.random() * l1))
        b = NetworkPosition(u2, v2, float(rng.random() * l2))
        lb = pivot_lower_bound(index.distances(a), index.distances(b))
        true = reference_point_to_point(road, a, b)
        assert lb <= true + 1e-9


class TestSelectPivots:
    def distance_fn(self, a, b):
        return abs(a - b)

    def test_returns_requested_count(self):
        rng = np.random.default_rng(1)
        pivots = select_pivots(
            list(range(20)), 3, self.distance_fn,
            [(0, 10), (5, 15)], rng,
        )
        assert len(pivots) == 3
        assert all(p in range(20) for p in pivots)

    def test_small_candidate_pool_returned_whole(self):
        rng = np.random.default_rng(1)
        assert select_pivots([3, 1], 5, self.distance_fn, [], rng) == [1, 3]

    def test_zero_pivots_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(InvalidParameterError):
            select_pivots([1, 2, 3], 0, self.distance_fn, [], rng)

    def test_local_search_beats_or_ties_first_random_set(self):
        """Algorithm 1 only ever accepts improving swaps."""
        rng = np.random.default_rng(7)
        candidates = list(range(50))
        pairs = [(int(rng.integers(50)), int(rng.integers(50))) for _ in range(10)]

        def cost(pivots):
            total = 0.0
            for a, b in pairs:
                total += max(abs(abs(a - p) - abs(b - p)) for p in pivots)
            return total / len(pairs)

        rng_fixed = np.random.default_rng(7)
        initial = [int(p) for p in rng_fixed.choice(candidates, size=3, replace=False)]
        chosen = select_pivots(
            candidates, 3, self.distance_fn, pairs,
            np.random.default_rng(7), global_iter=1, swap_iter=30,
        )
        assert cost(chosen) >= cost(initial) - 1e-12


class TestRoadPivotIndex:
    def test_distances_shape(self, small_uni):
        rng = np.random.default_rng(2)
        index = select_pivots_road(small_uni.distances.engine, 4, rng)
        assert index.num_pivots == 4
        home = small_uni.social.user(0).home
        dists = index.distances(home)
        assert len(dists) == 4
        assert all(d >= 0 for d in dists)

    def test_pivot_at_zero_distance_from_itself(self, small_uni):
        from repro.roadnet.graph import NetworkPosition

        rng = np.random.default_rng(2)
        index = select_pivots_road(small_uni.distances.engine, 3, rng)
        pivot = index.pivots[0]
        nbrs = small_uni.road.neighbors(pivot)
        other = next(iter(nbrs))
        pos = NetworkPosition(pivot, other, 0.0)
        assert index.distances(pos)[0] == pytest.approx(0.0)

    def test_unknown_pivot_vertex_rejected(self, small_uni):
        with pytest.raises(UnknownEntityError):
            RoadPivotIndex(small_uni.distances.engine, [999999])

    def test_empty_pivot_list_rejected(self, small_uni):
        with pytest.raises(InvalidParameterError):
            RoadPivotIndex(small_uni.distances.engine, [])


class TestSocialPivotIndex:
    def test_distances_and_self(self, small_uni):
        rng = np.random.default_rng(2)
        index = select_pivots_social(small_uni.social, 3, rng)
        pivot = index.pivots[0]
        assert index.distances(pivot)[0] == 0.0

    def test_disconnected_user_is_inf(self, small_uni):
        rng = np.random.default_rng(2)
        index = select_pivots_social(small_uni.social, 3, rng)
        # Find a user disconnected from pivot 0, if any exists.
        reachable = set(small_uni.social.connected_component(index.pivots[0]))
        outsiders = [
            uid for uid in small_uni.social.user_ids() if uid not in reachable
        ]
        for uid in outsiders[:3]:
            assert math.isinf(index.distances(uid)[0])

    def test_unknown_user_rejected(self, small_uni):
        rng = np.random.default_rng(2)
        index = select_pivots_social(small_uni.social, 2, rng)
        with pytest.raises(UnknownEntityError):
            index.distances(999999)

    def test_hop_lower_bound_sound(self, small_uni):
        rng = np.random.default_rng(4)
        index = select_pivots_social(small_uni.social, 3, rng)
        users = list(small_uni.social.user_ids())
        for _ in range(20):
            a = int(rng.choice(users))
            b = int(rng.choice(users))
            lb = pivot_lower_bound(index.distances(a), index.distances(b))
            true = small_uni.social.hop_distance(a, b)
            assert lb <= true + 1e-9
