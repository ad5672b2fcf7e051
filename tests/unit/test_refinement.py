"""Unit and property tests for group enumeration and region construction."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.refinement import (
    best_region_for_seed,
    enumerate_connected_groups,
    exact_maxdist,
    group_distance_maps,
    max_group_distance_to_poi,
)
from repro.core.scores import interest_score, match_score
from repro.exceptions import UnknownEntityError
from repro.datagen.synthetic import uni_dataset

# Shared across the S1 minimality property examples (dataset build
# dominates runtime; hypothesis draws queries, not networks).
_MINIMALITY_NETWORK = uni_dataset(
    num_road_vertices=80, num_pois=25, num_users=50, seed=17
)


def brute_force_groups(network, query_user, tau, gamma):
    """Reference enumeration: all tau-subsets, filtered."""
    social = network.social
    users = sorted(social.user_ids())
    result = set()
    for combo in itertools.combinations(users, tau):
        if query_user not in combo:
            continue
        if not social.is_connected_subset(combo):
            continue
        ok = all(
            interest_score(
                social.user(a).interests, social.user(b).interests
            ) >= gamma
            for a, b in itertools.combinations(combo, 2)
        )
        if ok:
            result.add(frozenset(combo))
    return result


class TestEnumeration:
    def test_tau_one_yields_singleton(self, tiny_network):
        groups = list(enumerate_connected_groups(tiny_network, 0, 1, 0.0))
        assert groups == [frozenset({0})]

    def test_matches_brute_force_tiny(self, tiny_network):
        for tau in (2, 3, 4):
            for gamma in (0.0, 0.3, 0.6):
                ours = set(
                    enumerate_connected_groups(tiny_network, 0, tau, gamma)
                )
                expected = brute_force_groups(tiny_network, 0, tau, gamma)
                assert ours == expected, (tau, gamma)

    def test_groups_contain_query_user(self, tiny_network):
        for group in enumerate_connected_groups(tiny_network, 2, 3, 0.0):
            assert 2 in group

    def test_no_duplicates(self, small_uni):
        groups = list(
            enumerate_connected_groups(small_uni, 0, 3, 0.0, limit=500)
        )
        assert len(groups) == len(set(groups))

    def test_allowed_whitelist_respected(self, tiny_network):
        groups = set(
            enumerate_connected_groups(
                tiny_network, 0, 3, 0.0, allowed={1, 2}
            )
        )
        for group in groups:
            assert group <= {0, 1, 2}

    def test_limit_caps_output(self, small_uni):
        groups = list(
            enumerate_connected_groups(small_uni, 0, 3, 0.0, limit=5)
        )
        assert len(groups) <= 5

    def test_unknown_query_user_raises(self, tiny_network):
        with pytest.raises(UnknownEntityError):
            list(enumerate_connected_groups(tiny_network, 999, 2, 0.0))

    def test_isolated_pair_cannot_reach_tau_three(self, tiny_network):
        # Users 4-5 form an isolated pair: no tau=3 group exists around 4.
        assert list(enumerate_connected_groups(tiny_network, 4, 3, 0.0)) == []
        assert list(enumerate_connected_groups(tiny_network, 4, 2, 0.0)) == [
            frozenset({4, 5})
        ]

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 50),
        tau=st.integers(2, 3),
        gamma=st.sampled_from([0.0, 0.2, 0.4]),
    )
    def test_matches_brute_force_random(self, seed, tau, gamma):
        network = uni_dataset(
            num_road_vertices=40, num_pois=10, num_users=14, seed=seed
        )
        query_user = 0
        ours = set(
            enumerate_connected_groups(network, query_user, tau, gamma)
        )
        expected = brute_force_groups(network, query_user, tau, gamma)
        assert ours == expected


class TestEnumerationMemos:
    """The pair-check and neighbour memos leave the yield order exact."""

    @staticmethod
    def _networks(small_uni):
        return [
            small_uni,
            uni_dataset(
                num_road_vertices=40, num_pois=10, num_users=30, seed=23
            ),
        ]

    def test_score_fn_called_once_per_unordered_pair(self, small_uni):
        for network in self._networks(small_uni):
            social = network.social
            owner = {
                id(social.user(uid).interests): uid
                for uid in social.user_ids()
            }
            for tau in (3, 4):
                calls = []

                def counting(w_a, w_b):
                    calls.append(frozenset((owner[id(w_a)], owner[id(w_b)])))
                    return interest_score(w_a, w_b)

                groups = list(
                    enumerate_connected_groups(
                        network, 0, tau, 0.2, score_fn=counting
                    )
                )
                assert groups
                assert len(calls) == len(set(calls)), tau
                assert set(groups) == brute_force_groups(
                    network, 0, tau, 0.2
                )

    def test_limit_yields_prefix_of_uncapped_order(self, small_uni):
        for network in self._networks(small_uni):
            for query_user in (0, 3):
                full = list(
                    enumerate_connected_groups(network, query_user, 3, 0.0)
                )
                assert full
                for k in (1, 2, len(full) // 2, len(full), len(full) + 5):
                    capped = list(
                        enumerate_connected_groups(
                            network, query_user, 3, 0.0, limit=k
                        )
                    )
                    assert capped == full[:k], (query_user, k)


class TestDistanceMaps:
    def test_max_group_distance(self, tiny_network):
        maps = group_distance_maps(tiny_network, [0, 1])
        d = max_group_distance_to_poi(tiny_network, maps, 0)
        expected = max(
            tiny_network.user_poi_distance(0, 0),
            tiny_network.user_poi_distance(1, 0),
        )
        assert d == pytest.approx(expected)

    def test_exact_maxdist(self, tiny_network):
        value = exact_maxdist(tiny_network, [0, 1], [0, 1])
        expected = max(
            tiny_network.user_poi_distance(u, p)
            for u in (0, 1) for p in (0, 1)
        )
        assert value == pytest.approx(expected)

    def test_exact_maxdist_empty_pois(self, tiny_network):
        assert exact_maxdist(tiny_network, [0], []) == 0.0


class TestBestRegion:
    def _setup(self, network, group, seed, radius):
        maps = group_distance_maps(network, group)
        interests = [network.social.user(u).interests for u in group]
        region = network.pois_within(seed, radius)
        return maps, interests, region

    def test_feasible_region_meets_threshold(self, tiny_network):
        group = [0, 1]
        maps, interests, region = self._setup(tiny_network, group, 0, 25.0)
        result = best_region_for_seed(
            tiny_network, interests, maps, 0, region, theta=0.5
        )
        assert result is not None
        pois, value = result
        assert 0 in pois  # the seed is always included
        covered = frozenset().union(
            *(tiny_network.poi(p).keywords for p in pois)
        )
        for w in interests:
            assert match_score(w, covered) >= 0.5
        assert value == pytest.approx(
            exact_maxdist(tiny_network, group, pois)
        )

    def test_infeasible_returns_none(self, tiny_network):
        group = [0]
        maps, interests, region = self._setup(tiny_network, group, 0, 1.0)
        # theta above total interest mass can never be met.
        result = best_region_for_seed(
            tiny_network, interests, maps, 0, region, theta=5.0
        )
        assert result is None

    def test_optimality_vs_exhaustive_subsets(self, tiny_network):
        """The greedy prefix is exact within the seed's ball."""
        group = [0, 1, 2]
        theta = 0.6
        radius = 25.0
        maps, interests, region = self._setup(tiny_network, group, 2, radius)
        result = best_region_for_seed(
            tiny_network, interests, maps, 2, region, theta
        )
        # Brute force over all subsets of the ball containing the seed.
        best = None
        for size in range(1, len(region) + 1):
            for combo in itertools.combinations(region, size):
                if 2 not in combo:
                    continue
                covered = frozenset().union(
                    *(tiny_network.poi(p).keywords for p in combo)
                )
                if all(match_score(w, covered) >= theta for w in interests):
                    value = exact_maxdist(tiny_network, group, combo)
                    if best is None or value < best:
                        best = value
        if best is None:
            assert result is None
        else:
            assert result is not None
            assert result[1] == pytest.approx(best)

    def _assert_minimal(self, network, maps, seed, pois):
        """Every chosen non-seed POI must contribute a fresh topic.

        The fresh-topics rule implies: a chosen POI's keywords are never
        covered by the seed plus the strictly-closer chosen POIs (else
        nothing about it was fresh when the scan reached it). This holds
        regardless of how ties were ordered, so it is safe to assert
        without reconstructing the scan.
        """
        dmax = {p: max_group_distance_to_poi(network, maps, p) for p in pois}
        seed_kw = network.poi(seed).keywords
        for p in pois:
            if p == seed:
                continue
            closer_cover = frozenset(seed_kw).union(
                *(
                    network.poi(q).keywords
                    for q in pois
                    if q != p and dmax[q] < dmax[p]
                ),
            )
            assert not network.poi(p).keywords <= closer_cover, (
                f"POI {p} is coverage-redundant in region {sorted(pois)}"
            )

    def test_region_is_minimal_no_redundant_poi(self, tiny_network):
        """S1 regression: a closer POI whose keywords add nothing fresh
        must not ride into the region on distance order alone."""
        group = [0, 3]
        # Seed POI 3 ({1, 2}) alone fails user 0 (score 0.1 < theta);
        # only POIs contributing topic 0 (POIs 0 and 2) can complete it.
        # POIs 1 ({1}) and 4 ({2}) are strictly redundant and must be
        # excluded no matter how close they are.
        maps, interests, region = self._setup(tiny_network, group, 3, 100.0)
        assert set(region) == {0, 1, 2, 3, 4}
        result = best_region_for_seed(
            tiny_network, interests, maps, 3, region, theta=0.5
        )
        assert result is not None
        pois, value = result
        assert 3 in pois
        assert pois <= {0, 2, 3}
        assert len(pois) == 2  # seed + exactly one topic-0 provider
        self._assert_minimal(tiny_network, maps, 3, pois)
        assert value == pytest.approx(exact_maxdist(tiny_network, group, pois))

    def test_minimality_sweep_tiny(self, tiny_network):
        for group in ([0, 1], [0, 3], [0, 1, 2], [4, 5]):
            maps = group_distance_maps(tiny_network, group)
            interests = [
                tiny_network.social.user(u).interests for u in group
            ]
            for seed in tiny_network.poi_ids():
                region = tiny_network.pois_within(seed, 25.0)
                for theta in (0.1, 0.3, 0.5, 0.8):
                    result = best_region_for_seed(
                        tiny_network, interests, maps, seed, region, theta
                    )
                    if result is None:
                        continue
                    self._assert_minimal(tiny_network, maps, seed, result[0])

    @settings(max_examples=30, deadline=None)
    @given(
        seed_idx=st.integers(0, 24),
        uid=st.integers(0, 49),
        theta=st.sampled_from([0.2, 0.4, 0.6]),
        radius=st.sampled_from([5.0, 15.0, 40.0]),
    )
    def test_minimality_property_random_network(
        self, seed_idx, uid, theta, radius
    ):
        network = _MINIMALITY_NETWORK
        group = [uid, (uid + 7) % 50]
        maps = group_distance_maps(network, group)
        interests = [network.social.user(u).interests for u in group]
        seed = network.poi_ids()[seed_idx]
        region = network.pois_within(seed, radius)
        result = best_region_for_seed(
            network, interests, maps, seed, region, theta
        )
        if result is not None:
            self._assert_minimal(network, maps, seed, result[0])
            pois, value = result
            assert value == pytest.approx(
                exact_maxdist(network, group, pois)
            )

    def test_zero_theta_returns_seed_only(self, tiny_network):
        group = [0]
        maps, interests, region = self._setup(tiny_network, group, 1, 25.0)
        result = best_region_for_seed(
            tiny_network, interests, maps, 1, region, theta=0.0
        )
        assert result is not None
        pois, value = result
        assert pois == frozenset({1})
