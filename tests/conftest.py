"""Shared fixtures: small, deterministic networks and processors.

Session-scoped where construction is expensive; tests that mutate
structures build their own instances instead of touching these.
"""

from __future__ import annotations

import numpy as np
import pytest

# The golden-replay helper asserts; rewrite it so failures show diffs.
pytest.register_assert_rewrite("refinement_golden")

from repro import (
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    RoadNetwork,
    SocialNetwork,
    SpatialSocialNetwork,
    User,
    uni_dataset,
    zipf_dataset,
)
from repro.core.refinement import exact_maxdist
from repro.core.scores import interest_score, match_score
from repro.geometry import MBR
from repro.index.bitvector import KeywordBitVector
from repro.roadnet.shortest_path import (
    multi_source_dijkstra,
    position_distance_from_map,
    position_seeds,
)


def build_grid_road(side: int = 4, spacing: float = 10.0) -> RoadNetwork:
    """A ``side x side`` grid road network with unit spacing ``spacing``."""
    road = RoadNetwork()
    for r in range(side):
        for c in range(side):
            road.add_vertex(r * side + c, c * spacing, r * spacing)
    for r in range(side):
        for c in range(side):
            vid = r * side + c
            if c + 1 < side:
                road.add_edge(vid, vid + 1)
            if r + 1 < side:
                road.add_edge(vid, vid + side)
    return road


def reference_point_to_point(
    road: RoadNetwork, pos_a: NetworkPosition, pos_b: NetworkPosition
) -> float:
    """The reference ``dist_RN`` the engine is checked against: one
    seeded dict-walking Dijkstra from ``pos_a``, endpoint lookups for
    ``pos_b``."""
    dist_map = multi_source_dijkstra(road, position_seeds(road, pos_a))
    return position_distance_from_map(road, dist_map, pos_b, pos_a)


def assert_valid_answer(network, query, answer):
    """``answer`` satisfies all six predicates of Definition 5 and its
    value is the exact maxdist of its pair."""
    social = network.social
    users = sorted(answer.users)
    pois = sorted(answer.pois)
    assert len(users) == query.tau
    assert query.query_user in answer.users
    assert social.is_connected_subset(users)
    for i, a in enumerate(users):
        for b in users[i + 1:]:
            assert interest_score(
                social.user(a).interests, social.user(b).interests
            ) >= query.gamma - 1e-9
    for i, a in enumerate(pois):
        for b in pois[i + 1:]:
            assert network.poi_poi_distance(a, b) <= 2 * query.radius + 1e-6
    covered = frozenset().union(*(network.poi(p).keywords for p in pois))
    for uid in users:
        assert match_score(
            social.user(uid).interests, covered
        ) >= query.theta - 1e-9
    assert answer.max_distance == pytest.approx(
        exact_maxdist(network, users, pois), abs=1e-6
    )


def subtree(columns, page: int) -> list:
    """The member slots under ``page`` of an index's columns, in slot
    order, walked through the child pages."""
    kids = columns.children[page]
    if not kids:
        return list(columns.leaf_slots[page])
    return [slot for child in kids for slot in subtree(columns, child)]


def subtree_pois(road_index, page: int) -> list:
    """The :class:`AugmentedPOI` entries under a road index page."""
    columns = road_index.columns
    return [columns.aps[slot] for slot in subtree(columns, page)]


def subtree_users(social_index, page: int) -> list:
    """The user ids under a social index page."""
    columns = social_index.columns
    return [columns.user_ids[slot] for slot in subtree(columns, page)]


def _intervals(rows):
    """Per column, the (min, max) over ``rows``."""
    columns = list(zip(*rows))
    return [min(c) for c in columns], [max(c) for c in columns]


def road_node_bounds(road_index, page: int):
    """A road page's bounds derived from its POIs: the Eqs. 7-8 pivot
    interval ``(lb, ub)`` by min and max and the hashed ``sup_K`` by OR."""
    pois = subtree_pois(road_index, page)
    lb, ub = _intervals([ap.pivot_dists for ap in pois])
    bits = 0
    for ap in pois:
        bits |= ap.sup_vector.bits
    return lb, ub, KeywordBitVector(road_index.num_bits, bits)


def social_node_bounds(social_index, page: int):
    """A social page's Eqs. 9-14 bounds derived from its users by min
    and max: the interest MBR (from the network's users), the hop
    interval and the road interval (from the users' column rows; each
    interval a ``(lb, ub)`` pair)."""
    columns = social_index.columns
    users = social_index.network.social
    slots = subtree(columns, page)
    low, high = _intervals([
        [float(v) for v in users.user(columns.user_ids[slot]).interests]
        for slot in slots
    ])
    return (
        MBR(low, high),
        _intervals([columns.user_social[slot].tolist() for slot in slots]),
        _intervals([columns.user_road[slot].tolist() for slot in slots]),
    )


def build_tiny_network(num_keywords: int = 3) -> SpatialSocialNetwork:
    """A hand-checkable network: 4x4 grid road, 6 users, 5 POIs.

    Users 0-3 form a path (0-1, 1-2, 2-3) plus the chord 0-2; users 4-5
    are an isolated friend pair. Interest vectors are chosen so that the
    pairwise scores around user 0 are easy to reason about.
    """
    road = build_grid_road()
    pois = [
        POI(0, road.position_coords(NetworkPosition(0, 1, 5.0)),
            NetworkPosition(0, 1, 5.0), frozenset({0})),
        POI(1, road.position_coords(NetworkPosition(1, 2, 5.0)),
            NetworkPosition(1, 2, 5.0), frozenset({1})),
        POI(2, road.position_coords(NetworkPosition(5, 6, 2.0)),
            NetworkPosition(5, 6, 2.0), frozenset({0, 2})),
        POI(3, road.position_coords(NetworkPosition(10, 11, 8.0)),
            NetworkPosition(10, 11, 8.0), frozenset({1, 2})),
        POI(4, road.position_coords(NetworkPosition(14, 15, 5.0)),
            NetworkPosition(14, 15, 5.0), frozenset({2})),
    ]
    interests = {
        0: (0.9, 0.1, 0.0),
        1: (0.8, 0.2, 0.0),
        2: (0.7, 0.0, 0.3),
        3: (0.1, 0.9, 0.0),
        4: (0.0, 0.1, 0.9),
        5: (0.0, 0.2, 0.8),
    }
    homes = {
        0: NetworkPosition(0, 1, 2.0),
        1: NetworkPosition(1, 2, 2.0),
        2: NetworkPosition(4, 5, 5.0),
        3: NetworkPosition(2, 3, 5.0),
        4: NetworkPosition(12, 13, 5.0),
        5: NetworkPosition(13, 14, 5.0),
    }
    social = SocialNetwork()
    for uid, w in interests.items():
        social.add_user(User(uid, np.asarray(w, dtype=float), homes[uid]))
    for a, b in [(0, 1), (1, 2), (2, 3), (0, 2), (4, 5)]:
        social.add_friendship(a, b)
    return SpatialSocialNetwork(road, social, pois, num_keywords)


@pytest.fixture(scope="session")
def grid_road() -> RoadNetwork:
    return build_grid_road()


@pytest.fixture(scope="session")
def tiny_network() -> SpatialSocialNetwork:
    return build_tiny_network()


@pytest.fixture(scope="session")
def small_uni() -> SpatialSocialNetwork:
    """A small UNI dataset shared by read-only tests."""
    return uni_dataset(
        num_road_vertices=100, num_pois=30, num_users=40, seed=2
    )


@pytest.fixture(scope="session")
def small_zipf() -> SpatialSocialNetwork:
    return zipf_dataset(
        num_road_vertices=100, num_pois=30, num_users=40, seed=2
    )


@pytest.fixture(scope="session")
def small_processor(small_uni) -> GPSSNQueryProcessor:
    return GPSSNQueryProcessor(
        small_uni, num_road_pivots=3, num_social_pivots=3, seed=1
    )


@pytest.fixture(scope="session")
def tiny_processor(tiny_network) -> GPSSNQueryProcessor:
    return GPSSNQueryProcessor(
        tiny_network, num_road_pivots=2, num_social_pivots=2,
        r_min=0.5, r_max=30.0, seed=1,
    )
