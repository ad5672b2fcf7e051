"""Unit tests for the social-network index I_S (Section 4.1)."""

import numpy as np
import pytest

from conftest import social_node_bounds, subtree
from repro.exceptions import InvalidParameterError
from repro.index.pivots import select_pivots_road, select_pivots_social
from repro.index.social_index import SocialIndex


@pytest.fixture(scope="module")
def social_index(small_uni):
    rng = np.random.default_rng(3)
    road_pivots = select_pivots_road(small_uni.distances.engine, 3, rng)
    social_pivots = select_pivots_social(small_uni.social, 3, rng)
    return SocialIndex(small_uni, social_pivots, road_pivots, leaf_size=8)


class TestConstruction:
    def test_bad_parameters_rejected(self, small_uni):
        rng = np.random.default_rng(3)
        rp = select_pivots_road(small_uni.distances.engine, 2, rng)
        sp = select_pivots_social(small_uni.social, 2, rng)
        with pytest.raises(InvalidParameterError):
            SocialIndex(small_uni, sp, rp, leaf_size=0)
        with pytest.raises(InvalidParameterError):
            SocialIndex(small_uni, sp, rp, fanout=1)

    def test_all_users_covered_exactly_once(self, social_index, small_uni):
        columns = social_index.columns
        seen = [columns.user_ids[slot] for slot in subtree(columns, 0)]
        assert sorted(seen) == sorted(small_uni.social.user_ids())

    def test_leaf_size_bound(self, social_index):
        columns = social_index.columns
        for page, kids in enumerate(columns.children):
            if not kids:
                assert len(columns.leaf_slots[page]) <= social_index.leaf_size

    def test_num_users_adds_up(self, social_index, small_uni):
        columns = social_index.columns
        assert columns.size[0] == small_uni.social.num_users
        for page, kids in enumerate(columns.children):
            if kids:
                assert columns.size[page] == sum(columns.size[c] for c in kids)

    def test_page_ids_unique(self, social_index):
        columns = social_index.columns
        ids = [0] + [c for kids in columns.children for c in kids]
        assert len(ids) == len(set(ids)) == social_index.num_pages


def _assert_rows_equal_derived(index):
    """Every node's column rows equal the min and max over its users."""
    columns = index.columns
    for page in range(index.num_pages):
        mbr, (s_lb, s_ub), (r_lb, r_ub) = social_node_bounds(index, page)
        assert columns.node_low[page].tolist() == list(mbr.low)
        assert columns.node_high[page].tolist() == list(mbr.high)
        assert columns.node_social_lb[page].tolist() == s_lb
        assert columns.node_social_ub[page].tolist() == s_ub
        assert columns.node_road_lb[page].tolist() == r_lb
        assert columns.node_road_ub[page].tolist() == r_ub


class TestInterestBounds:
    """Node bounds live in the index's columns, by page id."""

    def test_interest_mbr_contains_all_users(self, social_index, small_uni):
        """Eqs. 9-10: node bounds must envelope every user beneath."""
        columns = social_index.columns
        for slot, uid in enumerate(columns.user_ids):
            point = np.asarray(small_uni.social.user(uid).interests, dtype=float)
            for page in columns.path_pages(slot):
                assert (columns.node_low[page] <= point).all()
                assert (point <= columns.node_high[page]).all()

    def test_leaf_bounds_are_tight(self, social_index, small_uni):
        columns = social_index.columns
        for page, kids in enumerate(columns.children):
            if not kids:
                matrix = np.stack([
                    small_uni.social.user(columns.user_ids[slot]).interests
                    for slot in columns.leaf_slots[page]
                ])
                assert np.array_equal(
                    columns.node_low[page], matrix.min(axis=0)
                )
                assert np.array_equal(
                    columns.node_high[page], matrix.max(axis=0)
                )


class TestPivotBounds:
    def test_social_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 11-12."""
        columns = social_index.columns
        for page in range(social_index.num_pages):
            _, (lb, ub), _ = social_node_bounds(social_index, page)
            assert columns.node_social_lb[page].tolist() == lb
            assert columns.node_social_ub[page].tolist() == ub

    def test_road_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 13-14."""
        columns = social_index.columns
        for page in range(social_index.num_pages):
            _, _, (lb, ub) = social_node_bounds(social_index, page)
            assert columns.node_road_lb[page].tolist() == lb
            assert columns.node_road_ub[page].tolist() == ub

    def test_inner_bounds_envelope_children(self, social_index):
        columns = social_index.columns
        for page, kids in enumerate(columns.children):
            if kids:
                pages = list(kids)
                assert np.array_equal(
                    columns.node_social_lb[page],
                    columns.node_social_lb[pages].min(axis=0),
                )
                assert np.array_equal(
                    columns.node_social_ub[page],
                    columns.node_social_ub[pages].max(axis=0),
                )

    def test_mixed_depth_tree(self, small_uni):
        """Leaves at two depths: one depth's pages mix leaves and inner
        nodes, and each still reduces its own members."""
        rng = np.random.default_rng(3)
        rp = select_pivots_road(small_uni.distances.engine, 3, rng)
        sp = select_pivots_social(small_uni.social, 3, rng)
        index = SocialIndex(small_uni, sp, rp, leaf_size=2, fanout=3)
        children = index.columns.children
        depths = {}
        stack = [(0, 0)]
        while stack:
            page, depth = stack.pop()
            depths.setdefault(depth, set()).add(not children[page])
            stack.extend((c, depth + 1) for c in children[page])
        assert any(kinds == {True, False} for kinds in depths.values())
        _assert_rows_equal_derived(index)
        # A re-attached index derives the same rows.
        again = SocialIndex.from_snapshot(small_uni, sp, rp, index.snapshot())
        _assert_rows_equal_derived(again)

    def test_nodes_carry_structure_only(self, social_index):
        """The tree's shape is plain per-page lists; no node objects."""
        columns = social_index.columns
        assert not hasattr(social_index, "root")
        for name in ("children", "leaf_slots", "size", "parent"):
            assert len(getattr(columns, name)) == social_index.num_pages
        assert all(isinstance(kids, range) for kids in columns.children)
        assert all(isinstance(n, int) for n in columns.size + columns.parent)


class TestAccess:
    def test_augmented_lookup(self, social_index, small_uni):
        """A user's pivot rows are found through its slot."""
        columns = social_index.columns
        slot = columns.slot_of[0]
        assert columns.user_ids[slot] == 0
        assert columns.user_social[slot].tolist() == (
            social_index.social_pivots.distances(0)
        )
        assert columns.user_road[slot].tolist() == (
            social_index.road_pivots.distances(small_uni.social.user(0).home)
        )

    def test_visit_counting(self, social_index):
        social_index.counter.reset()
        social_index.visit(0)
        social_index.visit(0)
        assert social_index.counter.snapshot() == 1

    def test_empty_social_network_rejected(self, small_uni):

        from repro import SocialNetwork, SpatialSocialNetwork

        rng = np.random.default_rng(3)
        rp = select_pivots_road(small_uni.distances.engine, 2, rng)
        sp = select_pivots_social(small_uni.social, 2, rng)
        empty = SpatialSocialNetwork(
            small_uni.road, SocialNetwork(), small_uni.pois(), 5
        )
        with pytest.raises(InvalidParameterError):
            SocialIndex(empty, sp, rp)


class TestDescribe:
    def test_structural_statistics(self, social_index, small_uni):
        info = social_index.describe()
        assert info["num_users"] == small_uni.social.num_users
        assert info["leaf_nodes"] + info["inner_nodes"] == social_index.num_pages
        assert 0 < info["avg_leaf_fill"] <= social_index.leaf_size
        assert 0.0 <= info["avg_leaf_interest_width"] <= 1.0
