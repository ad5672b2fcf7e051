"""Property-based soundness of every bound the pruning relies on.

For randomized small networks and random queries, every lower bound must
under-estimate and every upper bound must over-estimate its exact
quantity. These are the invariants that make the pruning lemmas *safe*;
a violation here would silently produce wrong answers at scale. Node
bounds are derived from each subtree's members by min, max and OR, as
the index's columns hold them.
"""

import math

from hypothesis import given, settings, strategies as st

from conftest import (
    road_node_bounds,
    social_node_bounds,
    subtree_pois,
    subtree_users,
)
from repro import GPSSNQueryProcessor, uni_dataset
from repro.core.index_pruning import (
    lb_dist_sn_social_node,
    lb_maxdist_road_node,
    ub_match_score_road_node,
    ub_maxdist_road_node,
)
from repro.core.refinement import enumerate_connected_groups
from repro.core.scores import match_score
from repro.index.pivots import pivot_lower_bound

# One shared network + processor: hypothesis draws query users and
# parameters, not datasets (dataset construction dominates runtime).
_NETWORK = uni_dataset(num_road_vertices=80, num_pois=25, num_users=50, seed=13)
_PROCESSOR = GPSSNQueryProcessor(
    _NETWORK, num_road_pivots=3, num_social_pivots=3, seed=13
)

user_ids = st.integers(0, _NETWORK.social.num_users - 1)
poi_ids = st.integers(0, _NETWORK.num_pois - 1)


def leaf_pois(page):
    return subtree_pois(_PROCESSOR.road_index, page)


def road_bounds(page):
    return road_node_bounds(_PROCESSOR.road_index, page)


@settings(max_examples=25, deadline=None)
@given(a=user_ids, b=user_ids)
def test_social_pivot_lb_sound(a, b):
    sp = _PROCESSOR.social_pivots
    lb = pivot_lower_bound(sp.distances(a), sp.distances(b))
    true = _NETWORK.social.hop_distance(a, b)
    assert lb <= true + 1e-9


@settings(max_examples=25, deadline=None)
@given(uid=user_ids, pid=poi_ids)
def test_road_pivot_lb_sound(uid, pid):
    rp = _PROCESSOR.road_pivots
    user = _NETWORK.social.user(uid)
    poi = _NETWORK.poi(pid)
    lb = pivot_lower_bound(
        rp.distances(user.home), rp.distances(poi.position)
    )
    true = _NETWORK.user_poi_distance(uid, pid)
    assert lb <= true + 1e-9


@settings(max_examples=15, deadline=None)
@given(uid=user_ids)
def test_eq17_lb_sound_for_all_nodes(uid):
    rp = _PROCESSOR.road_pivots
    user = _NETWORK.social.user(uid)
    uq_dists = rp.distances(user.home)
    for page in range(_PROCESSOR.road_index.num_pages):
        lb = lb_maxdist_road_node(uq_dists, *road_bounds(page)[:2])
        for ap in leaf_pois(page):
            assert lb <= _NETWORK.user_poi_distance(uid, ap.poi_id) + 1e-9


@settings(max_examples=10, deadline=None)
@given(uid_a=user_ids, uid_b=user_ids, radius=st.sampled_from([1.0, 2.0, 4.0]))
def test_eq16_ub_sound(uid_a, uid_b, radius):
    rp = _PROCESSOR.road_pivots
    users = [uid_a, uid_b]
    s_ubs = [
        max(rp.distances(_NETWORK.social.user(u).home)[k] for u in users)
        for k in range(rp.num_pivots)
    ]
    for page in range(_PROCESSOR.road_index.num_pages):
        ub = ub_maxdist_road_node(s_ubs, road_bounds(page)[1], radius)
        for ap in leaf_pois(page):
            exact = max(
                _NETWORK.user_poi_distance(u, ap.poi_id) for u in users
            )
            assert ub + 1e-9 >= exact


@settings(max_examples=15, deadline=None)
@given(uid=user_ids)
def test_eq15_ub_match_sound(uid):
    user = _NETWORK.social.user(uid)
    for page in range(_PROCESSOR.road_index.num_pages):
        ub = ub_match_score_road_node(user.interests, road_bounds(page)[2])
        for ap in leaf_pois(page):
            assert ub >= match_score(user.interests, ap.sup_keywords) - 1e-9


@settings(max_examples=15, deadline=None)
@given(uid=user_ids)
def test_eq19_lb_hops_sound(uid):
    sp = _PROCESSOR.social_pivots
    uq_dists = sp.distances(uid)
    true_hops = _NETWORK.social.hop_distances_from(uid)
    social_index = _PROCESSOR.social_index
    for page in range(social_index.num_pages):
        lb = lb_dist_sn_social_node(
            uq_dists, *social_node_bounds(social_index, page)[1]
        )
        for member in subtree_users(social_index, page):
            exact = true_hops.get(member, math.inf)
            assert lb <= exact + 1e-9


@settings(max_examples=25, deadline=None)
@given(
    uid=user_ids, tau=st.integers(2, 4),
    theta=st.sampled_from([0.2, 0.4, 0.6]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_member_bound_sound(uid, tau, theta, radius):
    """Lemma 2 with Definition 5's per-member theta condition: a
    member's own best region at a seed is never farther than the
    group's, so every member's bound is at most the pair's value."""
    kernel = _PROCESSOR._pair_kernel()
    balls = [
        kernel.ball(pid, _PROCESSOR.road_index.region(pid, radius))
        for pid in _NETWORK.poi_ids()
    ]
    for group in enumerate_connected_groups(
        _NETWORK, uid, tau, 0.0, limit=10
    ):
        state = kernel.group_state(group, theta)
        for ball in balls:
            result = kernel.best_region(ball, state)
            if result is None:
                continue
            for member in group:
                bound = kernel.member_bound(member, ball, theta)
                assert bound <= result[1], (member, ball.seed_poi)
