"""Unit tests for the social-network index I_S (Section 4.1)."""

import numpy as np
import pytest

from conftest import social_node_bounds
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
        seen = []
        for node in social_index.iter_nodes():
            if node.is_leaf:
                seen.extend(au.user_id for au in node.users)
        assert sorted(seen) == sorted(small_uni.social.user_ids())

    def test_leaf_size_bound(self, social_index):
        for node in social_index.iter_nodes():
            if node.is_leaf:
                assert len(node.users) <= social_index.leaf_size

    def test_num_users_adds_up(self, social_index, small_uni):
        assert social_index.root.num_users == small_uni.social.num_users
        for node in social_index.iter_nodes():
            if not node.is_leaf:
                assert node.num_users == sum(
                    c.num_users for c in node.children
                )

    def test_page_ids_unique(self, social_index):
        ids = [n.page_id for n in social_index.iter_nodes()]
        assert len(ids) == len(set(ids)) == social_index.num_pages


def _assert_rows_equal_derived(index):
    """Every node's column rows equal the min and max over its users."""
    columns = index.columns
    for node in index.iter_nodes():
        mbr, (s_lb, s_ub), (r_lb, r_ub) = social_node_bounds(node)
        page = node.page_id
        assert columns.node_low[page].tolist() == list(mbr.low)
        assert columns.node_high[page].tolist() == list(mbr.high)
        assert columns.node_social_lb[page].tolist() == s_lb
        assert columns.node_social_ub[page].tolist() == s_ub
        assert columns.node_road_lb[page].tolist() == r_lb
        assert columns.node_road_ub[page].tolist() == r_ub


class TestInterestBounds:
    """Node bounds live in the index's columns, by page id."""

    def test_interest_mbr_contains_all_users(self, social_index):
        """Eqs. 9-10: node bounds must envelope every user beneath."""
        columns = social_index.columns
        for slot, au in enumerate(columns.aus):
            point = np.asarray(au.user.interests, dtype=float)
            for page in columns.path_pages(slot):
                assert (columns.node_low[page] <= point).all()
                assert (point <= columns.node_high[page]).all()

    def test_leaf_bounds_are_tight(self, social_index):
        columns = social_index.columns
        for node in social_index.iter_nodes():
            if node.is_leaf:
                matrix = np.stack([au.user.interests for au in node.users])
                assert np.array_equal(
                    columns.node_low[node.page_id], matrix.min(axis=0)
                )
                assert np.array_equal(
                    columns.node_high[node.page_id], matrix.max(axis=0)
                )


class TestPivotBounds:
    def test_social_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 11-12."""
        columns = social_index.columns
        for node in social_index.iter_nodes():
            _, (lb, ub), _ = social_node_bounds(node)
            assert columns.node_social_lb[node.page_id].tolist() == lb
            assert columns.node_social_ub[node.page_id].tolist() == ub

    def test_road_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 13-14."""
        columns = social_index.columns
        for node in social_index.iter_nodes():
            _, _, (lb, ub) = social_node_bounds(node)
            assert columns.node_road_lb[node.page_id].tolist() == lb
            assert columns.node_road_ub[node.page_id].tolist() == ub

    def test_inner_bounds_envelope_children(self, social_index):
        columns = social_index.columns
        for node in social_index.iter_nodes():
            if not node.is_leaf:
                pages = [c.page_id for c in node.children]
                assert np.array_equal(
                    columns.node_social_lb[node.page_id],
                    columns.node_social_lb[pages].min(axis=0),
                )
                assert np.array_equal(
                    columns.node_social_ub[node.page_id],
                    columns.node_social_ub[pages].max(axis=0),
                )

    def test_mixed_depth_tree(self, small_uni):
        """Leaves at two depths: one depth's pages mix leaves and inner
        nodes, and each still reduces its own members."""
        rng = np.random.default_rng(3)
        rp = select_pivots_road(small_uni.distances.engine, 3, rng)
        sp = select_pivots_social(small_uni.social, 3, rng)
        index = SocialIndex(small_uni, sp, rp, leaf_size=2, fanout=3)
        depths = {}
        stack = [(index.root, 0)]
        while stack:
            node, depth = stack.pop()
            depths.setdefault(depth, set()).add(node.is_leaf)
            stack.extend((c, depth + 1) for c in node.children)
        assert any(kinds == {True, False} for kinds in depths.values())
        _assert_rows_equal_derived(index)
        # A re-attached index derives the same rows.
        again = SocialIndex.from_snapshot(small_uni, sp, rp, index.snapshot())
        _assert_rows_equal_derived(again)

    def test_nodes_carry_structure_only(self, social_index):
        for node in social_index.iter_nodes():
            assert set(type(node).__slots__) == {
                "is_leaf", "children", "users", "page_id", "num_users",
            }


class TestAccess:
    def test_augmented_lookup(self, social_index, small_uni):
        au = social_index.augmented(0)
        assert au.user_id == 0
        assert len(au.social_pivot_dists) == social_index.social_pivots.num_pivots

    def test_visit_counting(self, social_index):
        social_index.counter.reset()
        social_index.visit(social_index.root)
        social_index.visit(social_index.root)
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
