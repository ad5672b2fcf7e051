"""Unit tests for the social-network index I_S (Section 4.1)."""

import numpy as np
import pytest

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


class TestInterestBounds:
    def test_interest_mbr_contains_all_users(self, social_index):
        """Eqs. 9-10: node bounds must envelope every user beneath."""
        def recurse(node):
            if node.is_leaf:
                for au in node.users:
                    assert node.interest_mbr.contains_point(
                        tuple(float(v) for v in au.user.interests)
                    )
            else:
                for child in node.children:
                    assert node.interest_mbr.contains(child.interest_mbr)
                    recurse(child)

        recurse(social_index.root)

    def test_leaf_bounds_are_tight(self, social_index):
        for node in social_index.iter_nodes():
            if node.is_leaf:
                matrix = np.stack([au.user.interests for au in node.users])
                assert list(node.interest_mbr.low) == pytest.approx(
                    list(matrix.min(axis=0))
                )
                assert list(node.interest_mbr.high) == pytest.approx(
                    list(matrix.max(axis=0))
                )


class TestPivotBounds:
    def test_social_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 11-12."""
        l = social_index.social_pivots.num_pivots
        for node in social_index.iter_nodes():
            if node.is_leaf:
                for k in range(l):
                    dists = [au.social_pivot_dists[k] for au in node.users]
                    assert node.lb_social_pivot[k] == min(dists)
                    assert node.ub_social_pivot[k] == max(dists)

    def test_road_pivot_bounds_envelope_users(self, social_index):
        """Eqs. 13-14."""
        h = social_index.road_pivots.num_pivots
        for node in social_index.iter_nodes():
            if node.is_leaf:
                for k in range(h):
                    dists = [au.road_pivot_dists[k] for au in node.users]
                    assert node.lb_road_pivot[k] == pytest.approx(min(dists))
                    assert node.ub_road_pivot[k] == pytest.approx(max(dists))

    def test_inner_bounds_envelope_children(self, social_index):
        for node in social_index.iter_nodes():
            if not node.is_leaf:
                for k in range(social_index.social_pivots.num_pivots):
                    assert node.lb_social_pivot[k] <= min(
                        c.lb_social_pivot[k] for c in node.children
                    )
                    assert node.ub_social_pivot[k] >= max(
                        c.ub_social_pivot[k] for c in node.children
                    )


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
