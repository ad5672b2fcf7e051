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

from conftest import road_node_bounds, social_node_bounds, subtree
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


def _road_bounds(road_index, node):
    """Derived node bounds, checked against the index's columns."""
    lb, ub, sup = road_node_bounds(node, road_index.num_bits)
    columns = road_index.columns
    assert columns.node_lb[node.page_id].tolist() == lb
    assert columns.node_ub[node.page_id].tolist() == ub
    row = columns.sup_mask[len(columns.aps) + node.page_id]
    assert row.tolist() == [
        sup.might_contain(f) for f in range(columns.sup_mask.shape[1])
    ]
    return lb, ub, sup


def _social_bounds(social_index, node):
    """Derived node bounds, checked against the index's columns."""
    mbr, (lb, ub), _road = social_node_bounds(node)
    columns = social_index.columns
    assert columns.node_low[node.page_id].tolist() == list(mbr.low)
    assert columns.node_high[node.page_id].tolist() == list(mbr.high)
    assert columns.node_social_lb[node.page_id].tolist() == lb
    assert columns.node_social_ub[node.page_id].tolist() == ub
    return mbr, lb, ub


class TestLemma6:
    def test_ub_match_score_bounds_all_descendants(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(0)
        for node in road_index.iter_nodes():
            _, _, sup = _road_bounds(road_index, node)
            ub = ub_match_score_road_node(user.interests, sup)
            for ap in subtree(node, "pois"):
                exact = match_score(user.interests, ap.sup_keywords)
                assert ub >= exact - 1e-9

    def test_pruned_node_has_no_matching_descendant(self, indexed):
        network, road_index, _, _, _ = indexed
        user = network.social.user(1)
        theta = 0.6
        for node in road_index.iter_nodes():
            _, _, sup = _road_bounds(road_index, node)
            if road_node_matching_prunable(user.interests, sup, theta):
                for ap in subtree(node, "pois"):
                    assert match_score(user.interests, ap.sup_keywords) < theta


class TestEq16Eq17:
    def test_lb_under_estimates_query_user_distance(self, indexed):
        network, road_index, _, road_pivots, _ = indexed
        uq = network.social.user(2)
        uq_dists = road_pivots.distances(uq.home)
        for node in road_index.iter_nodes():
            lb = lb_maxdist_road_node(
                uq_dists, *_road_bounds(road_index, node)[:2]
            )
            for ap in subtree(node, "pois"):
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
            node_ub = _road_bounds(road_index, node)[1]
            ub = ub_maxdist_road_node(s_ubs, node_ub, radius)
            for ap in subtree(node, "pois"):
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
            samples = [ap.sub_keywords for ap in subtree(node, "pois")[:2]]
            lb = lb_match_score_road_node(users, samples)
            # The bound promises: some sample object's r_min-region already
            # achieves `lb` for the worst user. Verify against the samples.
            best = max(
                min(match_score(w, sub) for w in users) for sub in samples
            )
            assert lb == pytest.approx(best)

    def test_empty_inputs(self, indexed):
        network, road_index, _, _, _ = indexed
        samples = [ap.sub_keywords for ap in subtree(road_index.root, "pois")]
        assert lb_match_score_road_node([], samples) == 0.0
        user = network.social.user(0).interests
        assert lb_match_score_road_node([user], []) == 0.0


class TestLemma8:
    def test_pruned_social_node_has_no_passing_user(self, indexed):
        network, _, social_index, _, _ = indexed
        uq = network.social.user(3)
        gamma = 0.4
        region = PruningRegion(uq.interests, gamma)
        for node in social_index.iter_nodes():
            mbr, _, _ = _social_bounds(social_index, node)
            if social_node_interest_prunable(region, mbr):
                for au in subtree(node, "users"):
                    score = float(np.dot(uq.interests, au.user.interests))
                    assert score < gamma + 1e-9


class TestEq19Lemma9:
    def test_lb_hops_under_estimates_true_hops(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for node in social_index.iter_nodes():
            _, node_lb, node_ub = _social_bounds(social_index, node)
            lb = lb_dist_sn_social_node(uq_dists, node_lb, node_ub)
            for au in subtree(node, "users"):
                exact = true_hops.get(au.user_id, math.inf)
                assert lb <= exact + 1e-9

    def test_pruned_node_users_all_beyond_tau(self, indexed):
        network, _, social_index, _, social_pivots = indexed
        uq_id = 4
        tau = 3
        uq_dists = social_pivots.distances(uq_id)
        true_hops = network.social.hop_distances_from(uq_id)
        for node in social_index.iter_nodes():
            _, node_lb, node_ub = _social_bounds(social_index, node)
            lb = lb_dist_sn_social_node(uq_dists, node_lb, node_ub)
            if social_node_distance_prunable(lb, tau):
                for au in subtree(node, "users"):
                    exact = true_hops.get(au.user_id, math.inf)
                    assert exact >= tau

