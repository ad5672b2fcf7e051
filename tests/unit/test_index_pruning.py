"""Soundness tests for index-level pruning (Lemmas 6-9, Eqs. 15-19).

Every bound is checked against exact quantities computed by brute force
on a small indexed network: upper bounds must over-estimate, lower
bounds must under-estimate, and every pruned node must contain no object
that could appear in an answer. Each node's bounds are derived here from
its subtree's members by min, max and OR, and must equal the rows the
index keeps in its columns.
"""

import math

import numpy as np
import pytest

from conftest import (
    road_node_bounds,
    social_node_bounds,
    subtree_pois,
    subtree_users,
)
from repro.core.index_pruning import (
    lb_dist_sn_social_node,
    lb_match_score_road_node,
    lb_maxdist_road_node,
    road_node_matching_prunable,
    road_node_pair_prunable,
    social_node_distance_prunable,
    social_node_interest_prunable,
    ub_match_score_road_node,
    ub_maxdist_road_node,
)
from repro.core.pruning import PruningRegion
from repro.core.scores import match_score
from repro.index.pivots import select_pivots_road, select_pivots_social
from repro.index.road_index import RoadIndex
from repro.index.social_index import SocialIndex


@pytest.fixture(scope="module")
def indexed(small_uni):
    rng = np.random.default_rng(5)
    road_pivots = select_pivots_road(small_uni.distances.engine, 3, rng)
    social_pivots = select_pivots_social(small_uni.social, 3, rng)
    road_index = RoadIndex(small_uni, road_pivots, r_min=0.5, r_max=4.0)
    social_index = SocialIndex(
        small_uni, social_pivots, road_pivots, leaf_size=8
    )
    return small_uni, road_index, social_index, road_pivots, social_pivots


def _road_bounds(road_index, page):
    """Derived page bounds, checked against the index's columns."""
    lb, ub, sup = road_node_bounds(road_index, page)
    columns = road_index.columns
    assert columns.node_lb[page].tolist() == lb
    assert columns.node_ub[page].tolist() == ub
    row = columns.sup_mask[len(columns.aps) + page]
    assert row.tolist() == [
        sup.might_contain(f) for f in range(columns.sup_mask.shape[1])
    ]
    return lb, ub, sup


def _social_bounds(social_index, page):
    """Derived page bounds, checked against the index's columns."""
    mbr, (lb, ub), _road = social_node_bounds(social_index, page)
    columns = social_index.columns
    assert columns.node_low[page].tolist() == list(mbr.low)
    assert columns.node_high[page].tolist() == list(mbr.high)
    assert columns.node_social_lb[page].tolist() == lb
    assert columns.node_social_ub[page].tolist() == ub
    return mbr, lb, ub


class TestLemma6:
    def test_ub_match_score_bounds_all_descendants(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(0)
        for page in range(road_index.num_pages):
            _, _, sup = _road_bounds(road_index, page)
            ub = ub_match_score_road_node(user.interests, sup)
            for ap in subtree_pois(road_index, page):
                exact = match_score(user.interests, ap.sup_keywords)
                assert ub >= exact - 1e-9

    def test_pruned_node_has_no_matching_descendant(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(1)
        theta = 0.6
        for page in range(road_index.num_pages):
            _, _, sup = _road_bounds(road_index, page)
            if road_node_matching_prunable(user.interests, sup, theta):
                for ap in subtree_pois(road_index, page):
                    assert match_score(user.interests, ap.sup_keywords) < theta


class TestEq16Eq17:
    def test_lb_under_estimates_query_user_distance(self, indexed):
        network, road_index, _, road_pivots, _ = indexed
        uq = network.social.user(2)
        uq_dists = road_pivots.distances(uq.home)
        for page in range(road_index.num_pages):
            lb = lb_maxdist_road_node(
                uq_dists, *_road_bounds(road_index, page)[:2]
            )
            for ap in subtree_pois(road_index, page):
                exact = network.user_poi_distance(2, ap.poi_id)
                assert lb <= exact + 1e-9

    def test_ub_over_estimates_max_user_distance(self, indexed):
        network, road_index, _, road_pivots, _ = indexed
        users = [network.social.user(uid) for uid in [0, 1, 2]]
        s_ubs = [
            max(road_pivots.distances(u.home)[k] for u in users)
            for k in range(road_pivots.num_pivots)
        ]
        radius = 2.0
        for page in range(road_index.num_pages):
            node_ub = _road_bounds(road_index, page)[1]
            ub = ub_maxdist_road_node(s_ubs, node_ub, radius)
            for ap in subtree_pois(road_index, page):
                exact = max(
                    network.user_poi_distance(u.user_id, ap.poi_id)
                    for u in users
                )
                assert ub + 1e-9 >= exact

    def test_lemma7_requires_both_conditions(self):
        assert road_node_pair_prunable(10.0, 5.0, 6.0, 2.0)
        assert not road_node_pair_prunable(10.0, 5.0, 3.0, 2.0)  # too close
        assert not road_node_pair_prunable(4.0, 5.0, 6.0, 2.0)   # lb below ub


class TestEq18:
    def test_lb_match_under_estimates_feasible_regions(self, indexed):
        network, road_index, _, _, _ = indexed
        users = [network.social.user(uid).interests for uid in [0, 1]]
        for page in range(road_index.num_pages):
            samples = [ap.sub_keywords for ap in subtree_pois(road_index, page)[:2]]
            lb = lb_match_score_road_node(users, samples)
            # The bound promises: some sample object's r_min-region already
            # achieves `lb` for the worst user. Verify against the samples.
            best = max(
                min(match_score(w, sub) for w in users) for sub in samples
            )
            assert lb == pytest.approx(best)

    def test_empty_inputs(self, indexed):
        network, road_index, _, _, _ = indexed
        samples = [ap.sub_keywords for ap in subtree_pois(road_index, 0)]
        assert lb_match_score_road_node([], samples) == 0.0
        user = network.social.user(0).interests
        assert lb_match_score_road_node([user], []) == 0.0


class TestLemma8:
    def test_pruned_social_node_has_no_passing_user(self, indexed):
        network, _, social_index, _, _ = indexed
        uq = network.social.user(3)
        gamma = 0.4
        region = PruningRegion(uq.interests, gamma)
        for page in range(social_index.num_pages):
            mbr, _, _ = _social_bounds(social_index, page)
            if social_node_interest_prunable(region, mbr):
                for uid in subtree_users(social_index, page):
                    interests = network.social.user(uid).interests
                    score = float(np.dot(uq.interests, interests))
                    assert score < gamma + 1e-9


class TestEq19Lemma9:
    def test_lb_hops_under_estimates_true_hops(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for page in range(social_index.num_pages):
            _, node_lb, node_ub = _social_bounds(social_index, page)
            lb = lb_dist_sn_social_node(uq_dists, node_lb, node_ub)
            for uid in subtree_users(social_index, page):
                exact = true_hops.get(uid, math.inf)
                assert lb <= exact + 1e-9

    def test_pruned_node_users_all_beyond_tau(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        tau = 3
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for page in range(social_index.num_pages):
            _, node_lb, node_ub = _social_bounds(social_index, page)
            lb = lb_dist_sn_social_node(uq_dists, node_lb, node_ub)
            if social_node_distance_prunable(lb, tau):
                for uid in subtree_users(social_index, page):
                    exact = true_hops.get(uid, math.inf)
                    assert exact >= tau

