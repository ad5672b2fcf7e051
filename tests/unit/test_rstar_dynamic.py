"""Dynamic R*-tree operations: k-nearest-neighbour search, deletion, and
edits on an STR bulk-loaded tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IndexStateError, InvalidParameterError
from repro.geometry import MBR
from repro.index.rstar import RStarTree

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


def build(pts, max_entries=6):
    tree = RStarTree(max_entries=max_entries)
    for i, (x, y) in enumerate(pts):
        tree.insert(MBR.from_point((x, y)), i)
    return tree


class TestNearest:
    def test_single_nearest(self):
        tree = build([(0, 0), (10, 0), (0, 10), (50, 50)])
        assert tree.nearest((9, 1), k=1) == [1]

    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(4)
        pts = rng.random((150, 2)) * 100
        tree = build([tuple(p) for p in pts])
        for q in [(0, 0), (50, 50), (99, 1), (33, 66)]:
            got = tree.nearest(q, k=9)
            want = sorted(
                range(150),
                key=lambda i: (pts[i][0] - q[0]) ** 2 + (pts[i][1] - q[1]) ** 2,
            )[:9]
            assert set(got) == set(want)

    def test_results_ordered_by_distance(self):
        rng = np.random.default_rng(5)
        pts = [tuple(p) for p in rng.random((60, 2)) * 100]
        tree = build(pts)
        q = (20.0, 80.0)
        got = tree.nearest(q, k=10)
        dists = [
            (pts[i][0] - q[0]) ** 2 + (pts[i][1] - q[1]) ** 2 for i in got
        ]
        assert dists == sorted(dists)

    def test_k_exceeds_size(self):
        tree = build([(0, 0), (1, 1)])
        assert set(tree.nearest((0, 0), k=10)) == {0, 1}

    def test_empty_tree(self):
        assert RStarTree().nearest((0, 0), k=3) == []

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            build([(0, 0)]).nearest((0, 0), k=0)


class TestDelete:
    def test_delete_existing(self):
        tree = build([(i, i) for i in range(20)])
        assert tree.delete(MBR.from_point((5.0, 5.0)), 5)
        assert tree.size == 19
        assert 5 not in tree.all_payloads()
        tree.check_invariants()

    def test_delete_missing_returns_false(self):
        tree = build([(0, 0)])
        assert not tree.delete(MBR.from_point((9.0, 9.0)), 0)
        assert not tree.delete(MBR.from_point((0.0, 0.0)), 42)
        assert tree.size == 1

    def test_delete_everything(self):
        pts = [(i % 7 * 10.0, i // 7 * 10.0) for i in range(49)]
        tree = build(pts, max_entries=4)
        for i, p in enumerate(pts):
            assert tree.delete(MBR.from_point(p), i)
        assert tree.size == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_duplicate_points_deleted_individually(self):
        tree = build([(1.0, 1.0)] * 6, max_entries=4)
        assert tree.delete(MBR.from_point((1.0, 1.0)), 2)
        assert tree.size == 5
        assert 2 not in tree.all_payloads()
        assert 3 in tree.all_payloads()

    @settings(max_examples=12, deadline=None)
    @given(
        pts=st.lists(st.tuples(coord, coord), min_size=5, max_size=80),
        seed=st.integers(0, 100),
    )
    def test_random_delete_sequences_keep_invariants(self, pts, seed):
        tree = build(pts, max_entries=5)
        rng = np.random.default_rng(seed)
        order = list(rng.permutation(len(pts)))
        victims = order[: len(pts) // 2]
        for i in victims:
            assert tree.delete(MBR.from_point(pts[i]), int(i))
        tree.check_invariants()
        survivors = sorted(set(range(len(pts))) - set(int(v) for v in victims))
        assert sorted(tree.all_payloads()) == survivors
        # Search still exact after the churn.
        query = MBR((10, 10), (70, 70))
        expected = sorted(
            i for i in survivors
            if 10 <= pts[i][0] <= 70 and 10 <= pts[i][1] <= 70
        )
        assert sorted(tree.search(query)) == expected


@st.composite
def point_sets(draw):
    """Up to 600 points: scattered, heavy with duplicates, or collinear."""
    n = draw(st.integers(1, 600))
    shape = draw(st.sampled_from(["scatter", "duplicates", "diagonal", "vertical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    t = rng.random(n) * 100
    if shape == "scatter":
        pts = np.stack([t, rng.random(n) * 100], axis=1)
    elif shape == "duplicates":
        pool = rng.random((max(1, n // 8), 2)) * 100
        pts = pool[rng.integers(len(pool), size=n)]
    elif shape == "diagonal":
        pts = np.stack([t, 0.5 * t + 3.0], axis=1)
    else:
        pts = np.stack([np.full(n, 42.0), t], axis=1)
    return [(float(x), float(y)) for x, y in pts]


def brute_force(live, query):
    return sorted(
        i for i, (x, y) in live.items()
        if query.low[0] <= x <= query.high[0]
        and query.low[1] <= y <= query.high[1]
    )


def random_query(rng):
    x0, y0 = rng.random(2) * 100
    w, h = rng.random(2) * 60
    return MBR((x0, y0), (x0 + w, y0 + h))


class TestBulkLoad:
    @settings(max_examples=25, deadline=None)
    @given(
        pts=point_sets(),
        max_entries=st.integers(4, 32),
        seed=st.integers(0, 1000),
    )
    def test_packed_tree_valid_and_exact_through_edits(
        self, pts, max_entries, seed
    ):
        tree = RStarTree(max_entries=max_entries)
        tree.bulk_load([(MBR.from_point(p), i) for i, p in enumerate(pts)])
        assert tree.size == len(pts)
        tree.check_invariants()
        live = dict(enumerate(pts))
        rng = np.random.default_rng(seed)
        for _ in range(3):
            query = random_query(rng)
            assert sorted(tree.search(query)) == brute_force(live, query)

        next_id = len(pts)
        for _ in range(60):
            if live and rng.random() < 0.5:
                victim = list(live)[int(rng.integers(len(live)))]
                assert tree.delete(MBR.from_point(live.pop(victim)), victim)
            else:
                # New points reuse an existing location half the time.
                if live and rng.random() < 0.5:
                    p = live[list(live)[int(rng.integers(len(live)))]]
                else:
                    p = tuple(float(c) for c in rng.random(2) * 100)
                tree.insert(MBR.from_point(p), next_id)
                live[next_id] = p
                next_id += 1
        tree.check_invariants()
        assert tree.size == len(live)
        assert sorted(tree.all_payloads()) == sorted(live)
        for _ in range(3):
            query = random_query(rng)
            assert sorted(tree.search(query)) == brute_force(live, query)

    def test_nodes_keep_min_entries(self):
        # 17 entries at max 16: a naive cut would leave a 1-entry leaf.
        tree = RStarTree(max_entries=16)
        tree.bulk_load([(MBR.from_point((i, 0)), i) for i in range(17)])
        assert sorted(len(c.entries) for c in tree.root.children) == [8, 9]
        tree.check_invariants()

    def test_layout_is_deterministic(self):
        rng = np.random.default_rng(9)
        items = [(MBR.from_point(tuple(rng.random(2) * 10)), i)
                 for i in range(300)]
        items += [(MBR.from_point((5.0, 5.0)), 300 + i) for i in range(20)]

        def layout(tree):
            return [
                [e.payload for e in node.entries]
                for node in tree.iter_nodes() if node.is_leaf
            ]

        first, second = RStarTree(max_entries=8), RStarTree(max_entries=8)
        first.bulk_load(items)
        second.bulk_load(items)
        assert layout(first) == layout(second)
        # Equal centres keep input order inside a leaf.
        for leaf in layout(first):
            dup = [p for p in leaf if p >= 300]
            assert dup == sorted(dup)

    def test_empty_input_leaves_tree_empty(self):
        tree = RStarTree()
        tree.bulk_load([])
        assert tree.size == 0
        assert tree.search(MBR((0, 0), (1, 1))) == []

    def test_non_empty_tree_rejected(self):
        tree = build([(0, 0), (1, 1)])
        with pytest.raises(IndexStateError):
            tree.bulk_load([(MBR.from_point((2, 2)), 2)])
