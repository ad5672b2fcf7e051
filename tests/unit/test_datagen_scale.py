"""The vectorized bench-scale generator and the bounded region sweep.

``repro.datagen.scale`` exists so the snapshot scale benchmark can
sweep |V(G_r)| to 10^5 without the generator dominating the measured
build times; these tests pin the structural promises the benchmark
relies on. ``poi_distances_within`` is the bounded-search region
primitive the R*-tree build uses — it must agree exactly with the
exhaustive ``pois_within`` + ``poi_poi_distance`` path it replaced.
"""

import numpy as np
import pytest

from repro.datagen.scale import generate_grid_network, grid_road_network
from repro.exceptions import InvalidParameterError
from repro.experiments.harness import ExperimentScale, build_dataset


class TestGridRoadNetwork:
    @pytest.mark.parametrize("num_vertices", [2, 37, 400])
    def test_connected_exact_size(self, num_vertices):
        road = grid_road_network(
            num_vertices, np.random.default_rng(11)
        )
        assert road.num_vertices == num_vertices
        assert road.is_connected()

    def test_sparse_like_real_road_networks(self):
        road = grid_road_network(2000, np.random.default_rng(11))
        # Table-2 real road networks sit around 2.1-2.4 average degree.
        assert 1.9 <= road.average_degree() <= 2.8

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            grid_road_network(1, np.random.default_rng(0))


class TestGenerateGridNetwork:
    def test_structural_shape(self):
        network = generate_grid_network(500, 60, 120, seed=9)
        assert network.road.num_vertices == 500
        assert network.num_pois == 60
        assert len(list(network.social.user_ids())) == 120
        # Construction ran with validation: every home/POI position was
        # accepted, so spot-check interest normalization and wiring.
        for uid in network.social.user_ids():
            user = network.social.user(uid)
            assert float(np.sum(user.interests)) == pytest.approx(1.0)
            assert len(network.social.friends(uid)) >= 1

    def test_deterministic_per_seed(self):
        a = generate_grid_network(300, 30, 50, seed=4)
        b = generate_grid_network(300, 30, 50, seed=4)
        assert [str(p) for p in a.pois()] == [str(p) for p in b.pois()]
        assert sorted(a.social.user_ids()) == sorted(b.social.user_ids())

    def test_communities_are_homophilous(self):
        network = generate_grid_network(300, 30, 80, seed=4)
        social = network.social
        sims = []
        for uid in social.user_ids():
            u = social.user(uid)
            for fid in social.friends(uid):
                f = social.user(fid)
                sims.append(float(np.dot(u.interests, f.interests)))
        # Same-community friends share a dominant topic: pairwise dot
        # similarity must clear the default gamma=0.5 on average, so
        # benchmark queries find answers instead of degenerating into
        # unpruned scans.
        assert float(np.mean(sims)) > 0.5


class TestPoiDistancesWithin:
    @pytest.fixture(scope="class", params=["csr"])
    def network(self, request):
        # 300 road vertices keep the bounded sweeps well short of the
        # whole graph, so the truncation is exercised.
        scale = ExperimentScale(
            road_vertices=300, num_pois=30, num_users=40, max_groups=100
        )
        network = build_dataset("UNI", scale, seed=6)
        network.use_distance_engine(request.param)
        return network

    @pytest.mark.parametrize("radius", [0.7, 3.0, 8.0])
    def test_matches_exhaustive_region(self, network, radius):
        for poi_id in network.poi_ids()[:8]:
            bounded = network.poi_distances_within(poi_id, radius)
            exhaustive = {
                pid: network.poi_poi_distance(poi_id, pid)
                for pid in network.pois_within(poi_id, radius)
            }
            assert set(bounded) == set(exhaustive)
            for pid, d in exhaustive.items():
                assert bounded[pid] == pytest.approx(d, abs=1e-12)

    def test_includes_center_and_same_edge_pois(self, network):
        poi_id = network.poi_ids()[0]
        bounded = network.poi_distances_within(poi_id, 0.05)
        assert bounded[poi_id] == 0.0
