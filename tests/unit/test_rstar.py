"""Unit and property tests for the from-scratch R*-tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IndexStateError, InvalidParameterError
from repro.geometry import MBR
from repro.index.rstar import RStarTree

coord = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False)
points = st.lists(st.tuples(coord, coord), min_size=1, max_size=150)


def build_tree(pts, max_entries=8):
    tree = RStarTree(max_entries=max_entries)
    for i, (x, y) in enumerate(pts):
        tree.insert(MBR.from_point((x, y)), i)
    return tree


class TestConstruction:
    def test_bad_parameters_rejected(self):
        with pytest.raises(InvalidParameterError):
            RStarTree(max_entries=2)
        with pytest.raises(InvalidParameterError):
            RStarTree(min_fill=0.9)

    def test_empty_tree(self):
        tree = RStarTree()
        assert tree.size == 0
        assert tree.height == 1
        assert tree.search(MBR((0, 0), (1, 1))) == []
        tree.check_invariants()

    def test_single_insert(self):
        tree = RStarTree()
        tree.insert(MBR.from_point((5, 5)), "payload")
        assert tree.size == 1
        assert tree.search(MBR((0, 0), (10, 10))) == ["payload"]

    def test_split_grows_height(self):
        tree = build_tree([(i, i) for i in range(30)], max_entries=4)
        assert tree.height >= 2
        tree.check_invariants()

    def test_duplicate_points_allowed(self):
        tree = build_tree([(1.0, 1.0)] * 20, max_entries=4)
        assert tree.size == 20
        assert sorted(tree.search(MBR((1, 1), (1, 1)))) == list(range(20))

    def test_bulk_load(self):
        tree = RStarTree(max_entries=6)
        tree.bulk_load([(MBR.from_point((i, 0)), i) for i in range(40)])
        assert tree.size == 40
        tree.check_invariants()


class TestSearch:
    def test_exact_match_with_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.random((200, 2)) * 100
        tree = build_tree([tuple(p) for p in pts], max_entries=6)
        query = MBR((20, 20), (60, 70))
        expected = sorted(
            i for i, (x, y) in enumerate(pts)
            if 20 <= x <= 60 and 20 <= y <= 70
        )
        assert sorted(tree.search(query)) == expected

    def test_all_payloads(self):
        tree = build_tree([(i, i) for i in range(25)], max_entries=5)
        assert sorted(tree.all_payloads()) == list(range(25))

    def test_empty_region(self):
        tree = build_tree([(i, 0) for i in range(10)])
        assert tree.search(MBR((0, 50), (10, 60))) == []

    def test_node_visits_counted(self):
        tree = build_tree([(i, i) for i in range(50)], max_entries=4)
        before = tree.node_visits
        tree.search(MBR((0, 0), (10, 10)))
        after_search = tree.node_visits
        assert after_search > before  # at least the root was visited
        tree.nearest((25.0, 25.0))
        assert tree.node_visits > after_search


class TestStructure:
    def test_node_level(self):
        tree = build_tree([(i, i) for i in range(50)], max_entries=4)
        assert tree.node_level(tree.root) == tree.height - 1

    def test_invariant_checker_catches_corruption(self):
        tree = build_tree([(i, i) for i in range(30)], max_entries=4)
        # Corrupt: shrink the root MBR so it no longer covers children.
        tree.root.mbr = MBR((0, 0), (0.5, 0.5))
        with pytest.raises(IndexStateError):
            tree.check_invariants()


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(points)
    def test_invariants_after_any_insert_sequence(self, pts):
        tree = build_tree(pts, max_entries=5)
        tree.check_invariants()
        assert tree.size == len(pts)

    @settings(max_examples=25, deadline=None)
    @given(points, st.tuples(coord, coord), st.tuples(coord, coord))
    def test_search_equals_brute_force(self, pts, c1, c2):
        tree = build_tree(pts, max_entries=5)
        low = (min(c1[0], c2[0]), min(c1[1], c2[1]))
        high = (max(c1[0], c2[0]), max(c1[1], c2[1]))
        query = MBR(low, high)
        expected = sorted(
            i for i, (x, y) in enumerate(pts)
            if low[0] <= x <= high[0] and low[1] <= y <= high[1]
        )
        assert sorted(tree.search(query)) == expected

    @settings(max_examples=10, deadline=None)
    @given(points)
    def test_every_payload_reachable(self, pts):
        tree = build_tree(pts, max_entries=5)
        assert sorted(tree.all_payloads()) == list(range(len(pts)))
