"""Unit tests for the synthetic data generators (Section 6.1)."""

import numpy as np
import pytest

from repro.datagen.distributions import Distribution, UniformSampler
from repro.datagen.synthetic import (
    SATELLITE_FRACTION,
    _delaunay_edges,
    generate_pois,
    generate_road_network,
    generate_social_network,
    generate_spatial_social_network,
    interest_vector,
    random_position,
    uni_dataset,
    zipf_dataset,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def road():
    return generate_road_network(120, np.random.default_rng(1))


class TestDelaunayEdges:
    @pytest.mark.parametrize(
        "points, chain",
        [
            ([[0.0, 0.0], [1.0, 1.0]], [(0, 1)]),
            ([[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]], [(1, 2), (2, 0)]),
            (
                [[3.0, 0.0], [0.0, 0.0], [2.0, 0.0], [1.0, 0.0]],
                [(1, 3), (3, 2), (2, 0)],
            ),
        ],
    )
    def test_degenerate_layouts_fall_back_to_a_chain(self, points, chain):
        assert _delaunay_edges(np.asarray(points)) == chain

    def test_non_qhull_errors_propagate(self, monkeypatch):
        import scipy.spatial

        def broken(points):
            raise ValueError("not a triangulation failure")

        monkeypatch.setattr(scipy.spatial, "Delaunay", broken)
        with pytest.raises(ValueError, match="not a triangulation failure"):
            generate_road_network(10, np.random.default_rng(0))


class TestRoadGenerator:
    def test_connected(self, road):
        assert road.is_connected()

    def test_vertex_count(self, road):
        assert road.num_vertices == 120

    def test_target_degree_respected(self, road):
        assert 2.0 <= road.average_degree() <= 3.0

    def test_coordinates_in_data_space(self, road):
        for vid in road.vertices():
            pt = road.coords(vid)
            assert 0.0 <= pt.x <= 100.0
            assert 0.0 <= pt.y <= 100.0

    def test_too_few_vertices_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_road_network(1, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        a = generate_road_network(50, np.random.default_rng(9))
        b = generate_road_network(50, np.random.default_rng(9))
        assert sorted(a.edges()) == sorted(b.edges())

    def test_tiny_graph_still_connected(self):
        tiny = generate_road_network(3, np.random.default_rng(0))
        assert tiny.is_connected()


class TestPOIGenerator:
    def test_requested_count(self, road):
        rng = np.random.default_rng(2)
        pois = generate_pois(road, 55, UniformSampler(rng), rng, 5)
        assert len(pois) == 55
        assert sorted(p.poi_id for p in pois) == list(range(55))

    def test_positions_valid(self, road):
        rng = np.random.default_rng(2)
        for poi in generate_pois(road, 30, UniformSampler(rng), rng, 5):
            road.validate_position(poi.position)

    def test_keywords_in_universe_and_nonempty(self, road):
        rng = np.random.default_rng(2)
        for poi in generate_pois(road, 30, UniformSampler(rng), rng, 5):
            assert poi.keywords
            assert all(0 <= k < 5 for k in poi.keywords)

    def test_zero_pois(self, road):
        rng = np.random.default_rng(2)
        assert generate_pois(road, 0, UniformSampler(rng), rng, 5) == []

    def test_negative_rejected(self, road):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidParameterError):
            generate_pois(road, -1, UniformSampler(rng), rng, 5)

    def test_random_position_on_edge(self, road):
        rng = np.random.default_rng(3)
        for _ in range(10):
            road.validate_position(random_position(road, rng))


class TestInterestVector:
    def test_distribution_sums_to_one(self):
        rng = np.random.default_rng(4)
        sampler = UniformSampler(rng)
        for topic in range(5):
            w = interest_vector(5, topic, rng, sampler)
            assert w.sum() == pytest.approx(1.0)
            assert np.all(w >= 0)

    def test_primary_topic_dominates(self):
        rng = np.random.default_rng(4)
        sampler = UniformSampler(rng)
        wins = 0
        for _ in range(50):
            w = interest_vector(5, 2, rng, sampler)
            wins += int(np.argmax(w) == 2)
        assert wins >= 45

    def test_single_keyword_universe(self):
        rng = np.random.default_rng(4)
        w = interest_vector(1, 0, rng, UniformSampler(rng))
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0)


class TestSocialGenerator:
    def test_degrees_and_interests(self, road):
        rng = np.random.default_rng(5)
        social = generate_social_network(200, road, UniformSampler(rng), rng, 5)
        assert social.num_users == 200
        for user in social.users():
            assert user.interests.sum() == pytest.approx(1.0)
            road.validate_position(user.home)

    def test_satellite_components_exist(self, road):
        rng = np.random.default_rng(5)
        social = generate_social_network(200, road, UniformSampler(rng), rng, 5)
        components = []
        seen = set()
        for uid in social.user_ids():
            if uid not in seen:
                comp = social.connected_component(uid)
                seen.update(comp)
                components.append(len(comp))
        # One giant component plus several small cliques.
        components.sort(reverse=True)
        assert components[0] >= 0.6 * 200
        assert len(components) > 3
        satellite_users = sum(components[1:])
        assert satellite_users >= 0.5 * SATELLITE_FRACTION * 200

    def test_no_isolated_users(self, road):
        rng = np.random.default_rng(5)
        social = generate_social_network(120, road, UniformSampler(rng), rng, 5)
        assert all(social.friends(uid) for uid in social.user_ids())


class TestFullDatasets:
    def test_uni_dataset_shape(self):
        net = uni_dataset(num_road_vertices=80, num_pois=25, num_users=60, seed=3)
        assert net.road.num_vertices == 80
        assert net.num_pois == 25
        assert net.social.num_users == 60
        assert net.num_keywords == 5

    def test_zipf_dataset_differs_from_uni(self):
        uni = uni_dataset(num_road_vertices=80, num_pois=25, num_users=60, seed=3)
        zipf = zipf_dataset(num_road_vertices=80, num_pois=25, num_users=60, seed=3)
        uni_w = np.stack([u.interests for u in uni.social.users()])
        zipf_w = np.stack([u.interests for u in zipf.social.users()])
        assert not np.allclose(uni_w, zipf_w)

    def test_determinism(self):
        a = uni_dataset(num_road_vertices=60, num_pois=20, num_users=40, seed=8)
        b = uni_dataset(num_road_vertices=60, num_pois=20, num_users=40, seed=8)
        wa = np.stack([u.interests for u in a.social.users()])
        wb = np.stack([u.interests for u in b.social.users()])
        assert np.allclose(wa, wb)
        assert [p.position for p in a.pois()] == [p.position for p in b.pois()]

    def test_generate_spatial_social_network_zipf(self):
        net = generate_spatial_social_network(
            60, 20, 40, Distribution.ZIPF, seed=1
        )
        assert net.social.num_users == 40
