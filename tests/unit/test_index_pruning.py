"""Soundness tests for index-level pruning (Lemmas 6-9, Eqs. 15-19).

Every bound is checked against exact quantities computed by brute force
on a small indexed network: upper bounds must over-estimate, lower
bounds must under-estimate, and every pruned node must contain no object
that could appear in an answer.
"""

import math

import numpy as np
import pytest

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


class TestLemma6:
    def test_ub_match_score_bounds_all_descendants(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(0)
        for node in road_index.iter_nodes():
            ub = ub_match_score_road_node(user.interests, node)
            for ap in _leaf_pois(node):
                exact = match_score(user.interests, ap.sup_keywords)
                assert ub >= exact - 1e-9

    def test_pruned_node_has_no_matching_descendant(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(1)
        theta = 0.6
        for node in road_index.iter_nodes():
            if road_node_matching_prunable(user.interests, node, theta):
                for ap in _leaf_pois(node):
                    assert match_score(user.interests, ap.sup_keywords) < theta


class TestEq16Eq17:
    def test_lb_under_estimates_query_user_distance(self, indexed):
        network, road_index, _, road_pivots, _ = indexed
        uq = network.social.user(2)
        uq_dists = road_pivots.distances(uq.home)
        for node in road_index.iter_nodes():
            lb = lb_maxdist_road_node(
                uq_dists, node.lb_pivot_dists, node.ub_pivot_dists
            )
            for ap in _leaf_pois(node):
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
        for node in road_index.iter_nodes():
            ub = ub_maxdist_road_node(s_ubs, node.ub_pivot_dists, radius)
            for ap in _leaf_pois(node):
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
        for node in road_index.iter_nodes():
            lb = lb_match_score_road_node(users, node)
            # The bound promises: some sample object's r_min-region already
            # achieves `lb` for the worst user. Verify against the samples.
            if node.samples:
                best = max(
                    min(match_score(w, s.sub_keywords) for w in users)
                    for s in node.samples
                )
                assert lb == pytest.approx(best)

    def test_empty_inputs(self, indexed):
        _, road_index, _, _, _ = indexed
        assert lb_match_score_road_node([], road_index.root) == 0.0


class TestLemma8:
    def test_pruned_social_node_has_no_passing_user(self, indexed):
        network, _, social_index, _, _ = indexed
        uq = network.social.user(3)
        gamma = 0.4
        region = PruningRegion(uq.interests, gamma)
        for node in social_index.iter_nodes():
            if social_node_interest_prunable(region, node):
                for au in _leaf_users(node):
                    score = float(np.dot(uq.interests, au.user.interests))
                    assert score < gamma + 1e-9


class TestEq19Lemma9:
    def test_lb_hops_under_estimates_true_hops(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for node in social_index.iter_nodes():
            lb = lb_dist_sn_social_node(uq_dists, node)
            for au in _leaf_users(node):
                exact = true_hops.get(au.user_id, math.inf)
                assert lb <= exact + 1e-9

    def test_pruned_node_users_all_beyond_tau(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        tau = 3
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for node in social_index.iter_nodes():
            lb = lb_dist_sn_social_node(uq_dists, node)
            if social_node_distance_prunable(lb, tau):
                for au in _leaf_users(node):
                    exact = true_hops.get(au.user_id, math.inf)
                    assert exact >= tau


def _leaf_pois(node):
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            yield from current.pois
        else:
            stack.extend(current.children)


def _leaf_users(node):
    stack = [node]
    while stack:
        current = stack.pop()
        if current.is_leaf:
            yield from current.users
        else:
            stack.extend(current.children)
