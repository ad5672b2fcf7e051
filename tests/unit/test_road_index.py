"""Unit tests for the road-network index I_R (Section 4.1)."""

import numpy as np
import pytest

from repro.exceptions import IndexStateError, InvalidParameterError
from repro.index.pivots import select_pivots_road
from repro.index.road_index import RoadIndex


@pytest.fixture(scope="module")
def road_index(small_uni):
    rng = np.random.default_rng(3)
    pivots = select_pivots_road(small_uni.distances.engine, 3, rng)
    return RoadIndex(small_uni, pivots, r_min=0.5, r_max=4.0)


class TestConstruction:
    def test_bad_radii_rejected(self, small_uni):
        rng = np.random.default_rng(3)
        pivots = select_pivots_road(small_uni.distances.engine, 2, rng)
        with pytest.raises(InvalidParameterError):
            RoadIndex(small_uni, pivots, r_min=0.0, r_max=4.0)
        with pytest.raises(InvalidParameterError):
            RoadIndex(small_uni, pivots, r_min=4.0, r_max=1.0)

    def test_counts(self, road_index, small_uni):
        assert road_index.root.num_pois == small_uni.num_pois
        assert road_index.height >= 1
        assert road_index.num_pages >= 1

    def test_page_ids_unique(self, road_index):
        ids = [n.page_id for n in road_index.iter_nodes()]
        assert len(ids) == len(set(ids)) == road_index.num_pages

    def test_unknown_poi_raises(self, road_index):
        with pytest.raises(IndexStateError):
            road_index.augmented(999999)


class TestAugmentedPOIs:
    def test_sup_keywords_cover_2rmax_region(self, road_index, small_uni):
        """o_i.sup_K must equal the keyword union of POIs within 2*r_max."""
        for pid in list(small_uni.poi_ids())[:8]:
            ap = road_index.augmented(pid)
            region = small_uni.pois_within(pid, 2 * road_index.r_max)
            expected = frozenset().union(
                *(small_uni.poi(p).keywords for p in region)
            )
            assert ap.sup_keywords == expected

    def test_sub_keywords_subset_of_sup(self, road_index, small_uni):
        for pid in small_uni.poi_ids():
            ap = road_index.augmented(pid)
            assert ap.sub_keywords <= ap.sup_keywords
            assert small_uni.poi(pid).keywords <= ap.sub_keywords

    def test_bitvectors_match_keyword_sets(self, road_index, small_uni):
        for pid in list(small_uni.poi_ids())[:8]:
            ap = road_index.augmented(pid)
            for k in ap.sup_keywords:
                assert ap.sup_vector.might_contain(k)
            for k in ap.sub_keywords:
                assert ap.sub_vector.might_contain(k)

    def test_pivot_distances_nonnegative(self, road_index, small_uni):
        for pid in small_uni.poi_ids():
            ap = road_index.augmented(pid)
            assert len(ap.pivot_dists) == road_index.pivots.num_pivots
            assert all(d >= 0 for d in ap.pivot_dists)


class TestNodeAggregates:
    def test_leaf_pivot_bounds_envelope_members(self, road_index):
        for node in road_index.iter_nodes():
            if node.is_leaf:
                for k in range(road_index.pivots.num_pivots):
                    dists = [ap.pivot_dists[k] for ap in node.pois]
                    assert node.lb_pivot_dists[k] == pytest.approx(min(dists))
                    assert node.ub_pivot_dists[k] == pytest.approx(max(dists))

    def test_inner_bounds_envelope_children(self, road_index):
        for node in road_index.iter_nodes():
            if not node.is_leaf:
                for k in range(road_index.pivots.num_pivots):
                    assert node.lb_pivot_dists[k] <= min(
                        c.lb_pivot_dists[k] for c in node.children
                    ) + 1e-9
                    assert node.ub_pivot_dists[k] >= max(
                        c.ub_pivot_dists[k] for c in node.children
                    ) - 1e-9

    def test_sup_keywords_union_of_children(self, road_index):
        for node in road_index.iter_nodes():
            if not node.is_leaf:
                union = frozenset().union(
                    *(c.sup_keywords for c in node.children)
                )
                assert node.sup_keywords == union

    def test_node_mbr_contains_pois(self, road_index):
        for node in road_index.iter_nodes():
            if node.is_leaf:
                for ap in node.pois:
                    assert node.mbr.contains_point(
                        (ap.poi.location.x, ap.poi.location.y)
                    )

    def test_samples_present(self, road_index):
        for node in road_index.iter_nodes():
            assert node.samples

    def test_num_pois_adds_up(self, road_index):
        for node in road_index.iter_nodes():
            if not node.is_leaf:
                assert node.num_pois == sum(c.num_pois for c in node.children)


class TestRegion:
    def test_region_matches_network_search(self, road_index, small_uni):
        for pid in list(small_uni.poi_ids())[:6]:
            for radius in (1.0, 2.0, 4.0):
                expected = sorted(small_uni.pois_within(pid, radius))
                assert sorted(road_index.region(pid, radius)) == expected

    def test_region_cached(self, road_index):
        first = road_index.region(0, 2.0)
        second = road_index.region(0, 2.0)
        assert first is second

    def test_region_beyond_precomputed_radius(self, road_index, small_uni):
        radius = 2 * road_index.r_max + 5.0
        expected = sorted(small_uni.pois_within(0, radius))
        assert sorted(road_index.region(0, radius)) == expected


class TestVisitCounting:
    def test_visits_counted_once_per_query(self, road_index):
        road_index.counter.reset()
        road_index.visit(road_index.root)
        road_index.visit(road_index.root)
        assert road_index.counter.snapshot() == 1
        road_index.counter.reset()
        assert road_index.counter.snapshot() == 0


class TestDescribe:
    def test_structural_statistics(self, road_index, small_uni):
        info = road_index.describe()
        assert info["num_pois"] == small_uni.num_pois
        assert info["height"] == road_index.height
        assert info["leaf_nodes"] + info["inner_nodes"] == road_index.num_pages
        assert 0 < info["avg_leaf_fill"] <= 16
        assert info["num_pivots"] == road_index.pivots.num_pivots
        assert info["avg_sup_keywords"] > 0
