"""The index trees' page layout against the structures they come from.

Each index keeps its tree only as ``TreeColumns`` lists built from a
skeleton: the R*-tree's for I_R, the partition tree's for I_S. Here an
independent breadth-first walk over those source structures numbers
their nodes, and every page must match: its child pages (a contiguous
range, BFS order, dense ids), its leaf's members in order, its parent
and its member count, including in a partition tree with leaves at
several depths.
"""

import numpy as np
import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.core.algorithm import PruningToggles
from repro.core.query import PruningCounters
from repro.index.pivots import select_pivots_road, select_pivots_social
from repro.index.road_index import RoadIndex
from repro.index.social_index import SocialIndex


def _rstar_kids(node):
    return [] if node.is_leaf else node.children


def _rstar_members(node):
    return [e.payload for e in node.entries] if node.is_leaf else []


def _partition_kids(node):
    return node.get("children", [])


def _partition_members(node):
    return node.get("users", [])


def _count(node, kids_of, members_of):
    return len(members_of(node)) + sum(
        _count(k, kids_of, members_of) for k in kids_of(node)
    )


def _assert_layout(columns, root, kids_of, members_of, ids_by_slot):
    nodes = [root]
    for node in nodes:  # breadth first; ``nodes`` grows as it goes
        nodes.extend(kids_of(node))
    page_of = {id(node): page for page, node in enumerate(nodes)}
    assert columns.num_pages == len(nodes)
    assert columns.parent[0] == -1
    depths = [1] * len(nodes)
    for page, node in enumerate(nodes):
        kids = [page_of[id(k)] for k in kids_of(node)]
        assert list(columns.children[page]) == kids, page
        if kids:
            assert kids == list(range(kids[0], kids[-1] + 1)), page
        for kid in kids:
            assert columns.parent[kid] == page
            depths[kid] = depths[page] + 1
        members = [ids_by_slot[s] for s in columns.leaf_slots[page]]
        assert members == members_of(node), page
        assert columns.size[page] == _count(node, kids_of, members_of)
    assert columns.height == max(depths)


@pytest.fixture(scope="module")
def pivots(small_uni):
    rng = np.random.default_rng(3)
    return (
        select_pivots_road(small_uni.distances.engine, 3, rng),
        select_pivots_social(small_uni.social, 3, rng),
    )


def _road_layout(index):
    columns = index.columns
    _assert_layout(
        columns, index._tree.root, _rstar_kids, _rstar_members,
        [ap.poi_id for ap in columns.aps],
    )


def test_road_pages_follow_the_rstar_tree(small_uni, pivots):
    _road_layout(RoadIndex(small_uni, pivots[0], max_entries=4))


def test_road_pages_follow_the_rstar_tree_after_churn():
    network = uni_dataset(
        num_road_vertices=60, num_pois=20, num_users=10, seed=4
    )
    rng = np.random.default_rng(3)
    index = RoadIndex(
        network, select_pivots_road(network.distances.engine, 3, rng),
        max_entries=4,
    )
    for pid in sorted(network.poi_ids())[:6]:
        region = network.poi_distances_within(pid, 2.0 * index.r_max)
        network.remove_poi(pid)
        index.delete_poi(pid, region)
    assert index.refreeze_if_dirty()
    _road_layout(index)


@pytest.mark.parametrize("leaf_size, fanout", [(4, 8), (2, 3)])
def test_social_pages_follow_the_partition(small_uni, pivots, leaf_size,
                                           fanout):
    index = SocialIndex(
        small_uni, pivots[1], pivots[0], leaf_size=leaf_size, fanout=fanout
    )
    skeleton = index._partition(sorted(small_uni.social.user_ids()))
    _assert_layout(
        index.columns, skeleton, _partition_kids, _partition_members,
        index.columns.user_ids,
    )
    # A re-attached index lays out the same pages.
    again = SocialIndex.from_snapshot(
        small_uni, pivots[1], pivots[0], index.snapshot()
    )
    _assert_layout(
        again.columns, skeleton, _partition_kids, _partition_members,
        again.columns.user_ids,
    )


def test_descent_reaches_the_deepest_leaves():
    """With the user rules off, S_cand is every user even when the
    first-child path ends above the deepest leaf."""
    network = uni_dataset(
        num_road_vertices=100, num_pois=30, num_users=60, seed=0
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=2,
        toggles=PruningToggles(interest=False, social_distance=False),
    )
    processor.social_index = SocialIndex(
        network, processor.social_pivots, processor.road_pivots,
        leaf_size=3, fanout=2,
    )
    children = processor.social_index.columns.children
    first_path, page = 1, 0
    while children[page]:
        page = children[page][0]
        first_path += 1
    assert first_path < processor.social_index.height
    query = GPSSNQuery(query_user=0, tau=3, gamma=0.0, theta=0.0, radius=2.0)
    users, _, _ = processor._traverse(query, PruningCounters())
    assert sorted(users) == sorted(network.social.user_ids())
