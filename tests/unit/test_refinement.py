"""Unit and property tests for group enumeration and region construction."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import refinement
from repro.core.metrics import InterestMetric, MetricScorer
from repro.core.refinement import (
    PAIR_TOL,
    GroupSpace,
    best_region_for_seed,
    enumerate_connected_groups,
    enumerate_group_indices,
    exact_maxdist,
    group_distance_maps,
    max_group_distance_to_poi,
)
from repro.core.scores import interest_score, match_score
from repro.exceptions import UnknownEntityError
from repro.datagen.synthetic import uni_dataset, zipf_dataset
from repro.obs.funnel import ExplainRecorder

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


def _reference_enumerate(
    network, query_user, tau, gamma, allowed=None, limit=None,
    scorer=None, explain=None,
):
    """The recursive enumerator the index-space DFS replaced, kept as
    the yield-order and funnel reference: a pair check per (candidate,
    member), ``yield from`` per level."""
    social = network.social
    if not social.has_user(query_user):
        raise UnknownEntityError(f"unknown query user {query_user}")
    score_fn = (scorer or MetricScorer()).score
    if tau == 1:
        yield frozenset((query_user,))
        return

    def permitted(uid):
        return allowed is None or uid in allowed or uid == query_user

    def compatible(uid, group):
        w = social.user(uid).interests
        return all(
            score_fn(w, social.user(member).interests) >= gamma
            for member in group
        )

    def permitted_neighbours(uid):
        return [nbr for nbr in sorted(social.friends(uid)) if permitted(nbr)]

    yielded = 0

    def extend(group, frontier, banned):
        nonlocal yielded
        local_banned = set(banned)
        for idx, candidate in enumerate(frontier):
            if limit is not None and yielded >= limit:
                return
            if explain is not None:
                explain.visit("refine.groups")
            if not compatible(candidate, group):
                local_banned.add(candidate)
                if explain is not None:
                    explain.prune("refine.groups", "group.interest")
                continue
            if explain is not None:
                explain.survive("refine.groups")
            new_group = group + (candidate,)
            if len(new_group) == tau:
                yielded += 1
                yield frozenset(new_group)
            else:
                new_banned = local_banned | {candidate}
                new_frontier = [
                    c for c in frontier[idx + 1:] if c not in new_banned
                ]
                in_frontier = set(new_frontier)
                for nbr in permitted_neighbours(candidate):
                    if nbr not in new_banned and nbr not in in_frontier:
                        new_frontier.append(nbr)
                        in_frontier.add(nbr)
                yield from extend(new_group, new_frontier, new_banned)
            local_banned.add(candidate)

    yield from extend(
        (query_user,), permitted_neighbours(query_user), {query_user}
    )


class _CountingScorer(MetricScorer):
    """A scorer that records which user pairs ``score`` saw and how
    often ``pairwise_matrix`` ran, and on how many rows."""

    def __init__(self, network, metric=InterestMetric.DOT):
        super().__init__(metric)
        social = network.social
        self.owner = {
            id(social.user(uid).interests): uid for uid in social.user_ids()
        }
        self.calls = []
        self.matrices = 0
        self.rows = 0

    def score(self, w_j, w_k):
        self.calls.append(frozenset((self.owner[id(w_j)], self.owner[id(w_k)])))
        return super().score(w_j, w_k)

    def pairwise_matrix(self, matrix, rows=None):
        self.matrices += 1
        self.rows += len(matrix) if rows is None else len(rows)
        return super().pairwise_matrix(matrix, rows)


class TestIndexSpaceParity:
    """The iterative index-space enumerator yields exactly the
    recursive reference's sequence, with the same funnel events."""

    @staticmethod
    def _assert_parity(network, query_user, tau, gamma, **kwargs):
        ref_ex, new_ex = ExplainRecorder(), ExplainRecorder()
        expected = list(_reference_enumerate(
            network, query_user, tau, gamma, explain=ref_ex, **kwargs
        ))
        assert list(enumerate_connected_groups(
            network, query_user, tau, gamma, explain=new_ex, **kwargs
        )) == expected
        assert list(enumerate_connected_groups(
            network, query_user, tau, gamma, **kwargs
        )) == expected
        assert new_ex.as_dict() == ref_ex.as_dict()
        return expected

    @pytest.mark.parametrize("tau", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dataset", [uni_dataset, zipf_dataset])
    def test_random_networks(self, dataset, tau):
        nonempty = 0
        for seed in (3, 11):
            network = dataset(
                num_road_vertices=40, num_pois=10, num_users=36, seed=seed
            )
            users = sorted(network.social.user_ids())
            rng = random.Random(seed * 10 + tau)
            for gamma in (0.0, 0.2, 0.5):
                for metric in InterestMetric:
                    scorer = MetricScorer(metric)
                    query_user = rng.choice(users)
                    subset = set(rng.sample(users, len(users) * 2 // 3))
                    for allowed in (None, subset):
                        for limit in (1, 7, None):
                            nonempty += bool(self._assert_parity(
                                network, query_user, tau, gamma,
                                allowed=allowed, limit=limit, scorer=scorer,
                            ))
        assert nonempty

    def test_space_holds_every_group(self, small_uni):
        allowed = set(range(0, 40, 2))
        for tau in (2, 3, 4):
            space = GroupSpace(small_uni, 0, tau, 0.0, allowed)
            hops = small_uni.social.hop_distances_from(0, max_hops=tau - 1)
            assert space.users == sorted(space.users)
            assert set(space.users) <= set(hops) | {0}
            assert set(space.users) <= allowed | {0}
            for group in enumerate_group_indices(space, tau):
                assert space.root == group[0]
                assert len(set(group)) == tau

    @pytest.mark.parametrize(
        "metric", [InterestMetric.DOT, InterestMetric.COSINE]
    )
    def test_near_tie_rescored_exactly(self, small_uni, metric):
        """gamma a few ulps around real pair scores: every such matrix
        entry lies in the PAIR_TOL band, is re-scored, and the decision
        equals ``scorer.score(w_a, w_b) >= gamma``."""
        social = small_uni.social
        probe = MetricScorer(metric)
        w0 = social.user(0).interests
        ties = sorted({
            probe.score(social.user(nbr).interests, w0)
            for nbr in social.friends(0)
        })
        assert ties
        rescored = 0
        for tie in ties:
            for gamma in (
                np.nextafter(np.nextafter(tie, -1.0), -1.0),
                np.nextafter(tie, -1.0), tie, np.nextafter(tie, 2.0),
                np.nextafter(np.nextafter(tie, 2.0), 2.0),
            ):
                gamma = float(gamma)
                assert abs(gamma - tie) <= PAIR_TOL
                for tau in (2, 3, 4):
                    scorer = _CountingScorer(small_uni, metric)
                    got = list(enumerate_connected_groups(
                        small_uni, 0, tau, gamma, scorer=scorer
                    ))
                    assert scorer.matrices == 1
                    rescored += len(scorer.calls)
                    assert got == list(_reference_enumerate(
                        small_uni, 0, tau, gamma, scorer=probe
                    ))
        assert rescored


    def test_compat_blocks_are_scored_lazily(self, small_uni, monkeypatch):
        """With one-row blocks the sequence is unchanged, each inner user
        is scored at most once, and a capped search scores only the
        users it extends."""
        monkeypatch.setattr(refinement, "COMPAT_CELLS", 1)
        for metric in InterestMetric:
            for tau in (2, 3, 4):
                scorer = _CountingScorer(small_uni, metric)
                space = GroupSpace(small_uni, 0, tau, 0.2, scorer=scorer)
                groups = list(enumerate_group_indices(space, tau))
                scored = sum(mask is not None for mask in space.compat)
                assert scorer.matrices == scorer.rows == scored
                assert [
                    frozenset(space.users[i] for i in group)
                    for group in groups
                ] == list(_reference_enumerate(
                    small_uni, 0, tau, 0.2, scorer=MetricScorer(metric)
                ))
        scorer = _CountingScorer(small_uni)
        space = GroupSpace(small_uni, 0, 3, 0.0, scorer=scorer)
        assert len(list(enumerate_group_indices(space, 3, limit=1))) == 1
        assert scorer.matrices == scorer.rows == 2


class TestEnumerationMemos:
    """Each pair is scored at most once and a cap keeps the yield order."""

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
            for tau in (2, 3, 4):
                scorer = _CountingScorer(network)
                groups = list(
                    enumerate_connected_groups(
                        network, 0, tau, 0.2, scorer=scorer
                    )
                )
                assert groups
                assert scorer.matrices <= 1, tau
                assert len(scorer.calls) == len(set(scorer.calls)), tau
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
