"""Unit tests for the road-network index I_R (Section 4.1)."""

import numpy as np
import pytest

from conftest import road_node_bounds
from repro import POI, NetworkPosition, uni_dataset
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
        assert road_index.columns.size[0] == small_uni.num_pois
        assert road_index.height >= 1
        assert road_index.num_pages >= 1

    def test_page_ids_unique(self, road_index):
        columns = road_index.columns
        ids = [0] + [c for kids in columns.children for c in kids]
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
    """Node bounds live in the index's columns, by page id; each must
    equal the min, max or OR over the subtree's POIs."""

    def test_leaf_pivot_bounds_envelope_members(self, road_index):
        columns = road_index.columns
        for page, kids in enumerate(columns.children):
            if not kids:
                lb, ub, _ = road_node_bounds(road_index, page)
                assert columns.node_lb[page].tolist() == lb
                assert columns.node_ub[page].tolist() == ub

    def test_inner_bounds_envelope_children(self, road_index):
        columns = road_index.columns
        for page, kids in enumerate(columns.children):
            if kids:
                pages = list(kids)
                assert np.array_equal(
                    columns.node_lb[page],
                    columns.node_lb[pages].min(axis=0),
                )
                assert np.array_equal(
                    columns.node_ub[page],
                    columns.node_ub[pages].max(axis=0),
                )
                lb, ub, _ = road_node_bounds(road_index, page)
                assert columns.node_lb[page].tolist() == lb
                assert columns.node_ub[page].tolist() == ub

    def test_sup_keywords_union_of_children(self, road_index, small_uni):
        columns = road_index.columns
        node_rows = columns.sup_mask[len(columns.aps):]
        for page, kids in enumerate(columns.children):
            _, _, sup = road_node_bounds(road_index, page)
            assert node_rows[page].tolist() == [
                sup.might_contain(f) for f in range(small_uni.num_keywords)
            ]
            if kids:
                pages = list(kids)
                assert np.array_equal(
                    node_rows[page], node_rows[pages].any(axis=0)
                )

    def test_nodes_carry_structure_only(self, road_index):
        """The tree's shape is plain per-page lists; no node objects."""
        columns = road_index.columns
        assert not hasattr(road_index, "root")
        for name in ("children", "leaf_slots", "size", "parent"):
            assert len(getattr(columns, name)) == road_index.num_pages
        assert all(isinstance(kids, range) for kids in columns.children)
        assert all(isinstance(n, int) for n in columns.size + columns.parent)

    def test_num_pois_adds_up(self, road_index):
        columns = road_index.columns
        for page, kids in enumerate(columns.children):
            if kids:
                assert columns.size[page] == sum(columns.size[c] for c in kids)

    def test_columns_follow_poi_churn(self):
        network = uni_dataset(
            num_road_vertices=60, num_pois=20, num_users=10, seed=4
        )
        rng = np.random.default_rng(3)
        pivots = select_pivots_road(network.distances.engine, 3, rng)
        index = RoadIndex(network, pivots, max_entries=4)
        for pid in sorted(network.poi_ids())[:6]:
            region = network.poi_distances_within(pid, 2.0 * index.r_max)
            network.remove_poi(pid)
            index.delete_poi(pid, region)
        assert index.refreeze_if_dirty()
        assert index.height > 2
        for page in range(index.num_pages):
            lb, ub, sup = road_node_bounds(index, page)
            assert index.columns.node_lb[page].tolist() == lb
            assert index.columns.node_ub[page].tolist() == ub
            row = index.columns.sup_mask[len(index.columns.aps) + page]
            assert row.tolist() == [
                sup.might_contain(f) for f in range(network.num_keywords)
            ]


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

    def test_region_cache_bounded(self, road_index, small_uni):
        cap = small_uni.distances.cache_size
        step = 2 * road_index.r_max / (3 * cap + 1)
        for i in range(1, 3 * cap + 1):
            road_index.region(0, i * step)
        assert len(road_index._region_cache) == cap
        # Least recently used first out: the newest radius is still held.
        assert (0, 3 * cap * step) in road_index._region_cache

    def test_region_beyond_precomputed_radius(self, road_index, small_uni):
        radius = 2 * road_index.r_max + 5.0
        expected = sorted(small_uni.pois_within(0, radius))
        assert sorted(road_index.region(0, radius)) == expected


def _assert_regions_exact(index, network, tol=0.0):
    """``region`` and the stored distances equal live oracle searches."""
    ids = network.poi_ids()
    for pid in ids:
        ap = index.augmented(pid)
        for q, d in zip(ap.region_2rmax, ap.region_dists):
            assert abs(d - network.poi_poi_distance(pid, q)) <= tol
        for radius in (index.r_min, 1.0, 2 * index.r_max):
            expected = [
                q for q in sorted(ids)
                if network.poi_poi_distance(pid, q) <= radius
            ]
            assert index.region(pid, radius) == expected, (pid, radius)


class TestRegionExactness:
    """``region`` filters the stored distance column, never the oracle."""

    @pytest.fixture()
    def live(self):
        network = uni_dataset(
            num_road_vertices=100, num_pois=30, num_users=40, seed=2
        )
        rng = np.random.default_rng(3)
        pivots = select_pivots_road(network.distances.engine, 3, rng)
        return network, RoadIndex(network, pivots, r_min=0.5, r_max=4.0)

    def test_after_build(self, live):
        network, index = live
        assert all(
            len(ap.region_2rmax) == len(ap.region_dists)
            for ap in index._augmented.values()
        )
        _assert_regions_exact(index, network)

    def test_region_runs_no_search(self, live):
        network, index = live
        runs = network.distances.searches_run
        for pid in network.poi_ids():
            index.region(pid, 1.0)
        assert network.distances.searches_run == runs

    def test_after_insert_and_delete(self, live):
        network, index = live
        donor = network.poi(network.poi_ids()[0])
        # 0.25 along the donor's edge: inside both its r_min and 2*r_max.
        position = NetworkPosition(
            donor.position.u, donor.position.v,
            max(donor.position.offset - 0.25, 0.0),
        )
        network.add_poi(POI(
            poi_id=1000,
            location=network.road.position_coords(position),
            position=position,
            keywords=donor.keywords,
        ))
        index.insert_poi(1000)
        for removed in network.poi_ids()[5:8]:
            region_dists = network.poi_distances_within(
                removed, 2 * index.r_max
            )
            network.remove_poi(removed)
            index.delete_poi(removed, region_dists)
        assert index.refreeze_if_dirty()
        assert 1000 in index.augmented(donor.poi_id).region_2rmax
        # A neighbour's entry for the inserted POI is d(new, q), read
        # from the new POI's search; a cold build reads d(q, new).
        _assert_regions_exact(index, network, tol=1e-9)

    def test_edit_drops_only_touched_regions(self, live):
        """An insert or delete drops the cached regions of the seeds it
        touched (and of those answered beyond 2*r_max) and logs them;
        every other cached region is returned as the same list."""
        network, index = live
        far = 2 * index.r_max + 3.0
        far_seeds = network.poi_ids()[-3:]

        def fill():
            cached = {
                (pid, r): index.region(pid, r)
                for pid in network.poi_ids() for r in (1.0, 2 * index.r_max)
            }
            cached.update(
                ((pid, far), index.region(pid, far)) for pid in far_seeds
            )
            return cached

        def check(before, cursor):
            touched = set(index.region_changes.since(cursor))
            fresh = RoadIndex(
                network, index.pivots, r_min=index.r_min, r_max=index.r_max
            )
            kept = 0
            for (pid, r), cached in before.items():
                if not network.has_poi(pid):
                    continue
                got = index.region(pid, r)
                assert got == fresh.region(pid, r), (pid, r)
                if pid not in touched:
                    assert got is cached, (pid, r)
                    kept += 1
            assert kept > 0
            return touched

        donor = network.poi(network.poi_ids()[0])
        position = NetworkPosition(
            donor.position.u, donor.position.v,
            max(donor.position.offset - 0.25, 0.0),
        )
        before, cursor = fill(), index.region_changes.end
        network.add_poi(POI(
            poi_id=1000,
            location=network.road.position_coords(position),
            position=position,
            keywords=donor.keywords,
        ))
        index.insert_poi(1000)
        touched = check(before, cursor)
        # Seeds answered beyond 2*r_max come from a bounded search.
        assert {1000, donor.poi_id, *far_seeds} <= touched

        before, cursor = fill(), index.region_changes.end
        removed = network.poi_ids()[5]
        region_dists = network.poi_distances_within(removed, 2 * index.r_max)
        network.remove_poi(removed)
        index.delete_poi(removed, region_dists)
        assert removed in check(before, cursor)

    def test_after_freeze_attach(self, tmp_path):
        from repro.experiments.harness import (
            ExperimentScale,
            build_dataset,
            make_processor,
        )
        from repro.io.snapshot import FrozenSnapshot, freeze

        scale = ExperimentScale(road_vertices=60, num_pois=20, num_users=40)
        network = build_dataset("UNI", scale, seed=3)
        processor = make_processor(network, seed=3)
        path = tmp_path / "net.gpsnap"
        freeze(network, path, processor=processor)
        attached_network, attached = FrozenSnapshot.open(path).attach()
        index = attached.road_index
        for pid in network.poi_ids():
            live_ap = processor.road_index.augmented(pid)
            ap = index.augmented(pid)
            assert ap.region_2rmax == live_ap.region_2rmax
            assert ap.region_dists == live_ap.region_dists
        _assert_regions_exact(index, attached_network)

    def test_fallback_beyond_2rmax(self, road_index, small_uni):
        radius = 2.5 * road_index.r_max
        for pid in small_uni.poi_ids():
            assert road_index.region(pid, radius) == sorted(
                small_uni.pois_within(pid, radius)
            )


class TestVisitCounting:
    def test_visits_counted_once_per_query(self, road_index):
        road_index.counter.reset()
        road_index.visit(0)
        road_index.visit(0)
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
