"""Unit tests for the vectorized pair-evaluation infrastructure.

Every structure here has a scalar reference in the codebase; the tests
assert *bitwise* agreement with it, because the vectorized refinement
path promises byte-identical query outcomes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from repro import GPSSNQueryProcessor, uni_dataset
from repro.core.query import GPSSNQuery
from repro.core.refinement import (
    BallArrays,
    BlockGates,
    GroupSpace,
    GroupState,
    PairKernel,
    best_region_for_seed,
    enumerate_connected_groups,
    enumerate_group_indices,
    group_distance_maps,
)
from repro.core.scores import match_score
from repro.obs.funnel import ExplainRecorder
from repro.roadnet.shortest_path import (
    PositionArrays,
    VertexIndexer,
    position_distance_from_map,
)


class TestVertexIndexer:
    def test_order_matches_road_iteration(self, small_uni):
        indexer = VertexIndexer(small_uni.road)
        assert indexer.ids == list(small_uni.road.vertices())
        assert indexer.size == len(indexer.ids)
        for i, vid in enumerate(indexer.ids):
            assert indexer.index_of[vid] == i

    def test_dense_distances_roundtrip(self, small_uni):
        indexer = VertexIndexer(small_uni.road)
        user = small_uni.social.user(0)
        dist_map = small_uni.distances.distances_from(("user", 0), user.home)
        row = indexer.dense_distances(dist_map)
        assert row.shape == (indexer.size,)
        for i, vid in enumerate(indexer.ids):
            expected = dist_map.get(vid, math.inf)
            assert row[i] == expected  # bitwise, inf included

    def test_empty_map_is_all_inf(self, small_uni):
        indexer = VertexIndexer(small_uni.road)
        row = indexer.dense_distances({})
        assert np.all(np.isinf(row))


class TestPositionArrays:
    def test_matches_scalar_per_position(self, small_uni):
        road = small_uni.road
        indexer = VertexIndexer(road)
        positions = [small_uni.poi(p).position for p in small_uni.poi_ids()]
        arrays = PositionArrays(road, indexer, positions)
        user = small_uni.social.user(3)
        dist_map = small_uni.distances.distances_from(("user", 3), user.home)
        dense = indexer.dense_distances(dist_map)
        row = arrays.distances_from_dense(road, dense, user.home)
        for i, pos in enumerate(positions):
            expected = position_distance_from_map(
                road, dist_map, pos, user.home
            )
            assert row[i] == expected, i  # bitwise

    def test_same_edge_correction_applies(self, tiny_network):
        # User 0 and POI 0 share edge (0, 1): the direct along-edge walk
        # must win over the vertex detour exactly as the scalar does.
        road = tiny_network.road
        indexer = VertexIndexer(road)
        poi = tiny_network.poi(0)
        arrays = PositionArrays(road, indexer, [poi.position])
        user = tiny_network.social.user(0)
        dist_map = tiny_network.distances.distances_from(
            ("user", 0), user.home
        )
        dense = indexer.dense_distances(dist_map)
        with_src = arrays.distances_from_dense(road, dense, user.home)
        expected = position_distance_from_map(
            road, dist_map, poi.position, user.home
        )
        assert with_src[0] == expected
        assert with_src[0] == pytest.approx(3.0)  # |5.0 - 2.0| along edge


class TestDenseOracle:
    def test_dense_matches_densified_map(self, small_uni):
        oracle = small_uni.distances
        user = small_uni.social.user(7)
        row = oracle.dense_distances_from(("user", 7), user.home)
        dist_map = oracle.distances_from(("user", 7), user.home)
        expected = oracle.vertex_indexer().dense_distances(dist_map)
        assert np.array_equal(row, expected)

    def test_shares_cache_with_dict_requests(self, small_uni):
        oracle = small_uni.distances
        oracle.clear()
        base_runs = oracle.searches_run
        base_hits = oracle.cache_hits
        user = small_uni.social.user(9)
        oracle.distances_from(("user", 9), user.home)
        assert oracle.searches_run == base_runs + 1
        # The dense request for the same key is a hit, not a new search.
        oracle.dense_distances_from(("user", 9), user.home)
        assert oracle.searches_run == base_runs + 1
        assert oracle.cache_hits == base_hits + 1
        # And repeated dense requests return the identical cached row.
        a = oracle.dense_distances_from(("user", 9), user.home)
        b = oracle.dense_distances_from(("user", 9), user.home)
        assert a is b

    def test_dense_first_then_dict(self, small_uni):
        oracle = small_uni.distances
        oracle.clear()
        user = small_uni.social.user(11)
        row = oracle.dense_distances_from(("user", 11), user.home)
        searches = oracle.searches_run
        dist_map = oracle.distances_from(("user", 11), user.home)
        assert oracle.searches_run == searches  # served from cache
        for vid, d in dist_map.items():
            idx = oracle.vertex_indexer().index_of[vid]
            assert row[idx] == d


class TestPruneBatch:
    def test_equivalent_to_scalar_prunes(self):
        margins = [0.5, 2.0, math.inf, 0.25, float("nan"), 1.5]
        batch = ExplainRecorder()
        batch.prune_batch("phase", "rule", margins)
        scalar = ExplainRecorder()
        for m in margins:
            scalar.prune("phase", "rule", 1, m)
        assert batch.as_dict() == scalar.as_dict()

    def test_empty_batch_is_noop(self):
        rec = ExplainRecorder()
        rec.prune_batch("phase", "rule", [])
        assert rec.as_dict() == {}

    def test_funnel_invariant_with_batches(self):
        rec = ExplainRecorder()
        rec.visit("p", 10)
        rec.prune_batch("p", "r", [1.0, 2.0, 3.0])
        rec.survive("p", 7)
        assert rec.phase("p").balanced()


class TestBallArrays:
    def test_first_occurrence_dedup_and_seed_appended(self, small_uni):
        kernel = PairKernel(small_uni)
        pids = small_uni.poi_ids()
        a, b, c, seed = pids[0], pids[1], pids[2], pids[3]
        ball = BallArrays(kernel, seed, [a, b, a, c, b])
        assert ball.poi_ids == [a, b, c, seed]
        assert ball.seed_local == 3
        assert ball.seed_poi == seed

    def test_seed_inside_region_not_duplicated(self, small_uni):
        kernel = PairKernel(small_uni)
        pids = small_uni.poi_ids()
        ball = BallArrays(kernel, pids[1], [pids[0], pids[1], pids[2]])
        assert ball.poi_ids == [pids[0], pids[1], pids[2]]
        assert ball.seed_local == 1

    def test_ball_cache_reuses_instance(self, small_uni):
        kernel = PairKernel(small_uni)
        pids = small_uni.poi_ids()
        a = kernel.ball(pids[0], pids[:4], cache_key=("k", 1))
        b = kernel.ball(pids[0], pids[:4], cache_key=("k", 1))
        assert a is b

    def test_full_cover_is_union_of_keywords(self, small_uni):
        kernel = PairKernel(small_uni)
        pids = small_uni.poi_ids()[:5]
        ball = BallArrays(kernel, pids[0], pids)
        union = frozenset().union(
            *(small_uni.poi(p).keywords for p in ball.poi_ids)
        )
        covered = {
            f for f in range(small_uni.num_keywords)
            if ball.full_cover_f8[f] == 1.0
        }
        assert covered == union


class TestPairKernel:
    def test_member_row_matches_scalar_lookups(self, small_uni):
        kernel = PairKernel(small_uni)
        uid = 5
        row = kernel.member_row(uid)
        user = small_uni.social.user(uid)
        dist_map = small_uni.distances.distances_from(("user", uid), user.home)
        for i, pid in enumerate(kernel.poi_ids):
            expected = position_distance_from_map(
                small_uni.road, dist_map,
                small_uni.poi(pid).position, user.home,
            )
            assert row[i] == expected, pid  # bitwise

    def test_member_row_cached_and_readonly(self, small_uni):
        kernel = PairKernel(small_uni)
        a = kernel.member_row(2)
        b = kernel.member_row(2)
        assert a is b
        assert not a.flags.writeable

    def test_user_poi_feasible_matches_match_score(self, small_uni):
        kernel = PairKernel(small_uni)
        theta = 0.4
        for uid in (0, 3, 8):
            feas = kernel.user_poi_feasible(uid, theta)
            w = small_uni.social.user(uid).interests
            for i, pid in enumerate(kernel.poi_ids):
                expected = (
                    match_score(w, small_uni.poi(pid).keywords) >= theta
                )
                assert bool(feas[i]) == expected, (uid, pid)

    def test_user_poi_feasible_cached_per_theta(self, small_uni):
        kernel = PairKernel(small_uni)
        assert kernel.user_poi_feasible(1, 0.3) is kernel.user_poi_feasible(1, 0.3)
        assert kernel.user_poi_feasible(1, 0.3) is not kernel.user_poi_feasible(1, 0.5)

    def test_best_region_matches_scalar_reference(self, small_uni):
        kernel = PairKernel(small_uni)
        theta = 0.45
        radius = 20.0
        groups = list(
            enumerate_connected_groups(small_uni, 0, 3, 0.0, limit=12)
        )
        assert groups
        checked = 0
        for group in groups:
            members = sorted(group)
            dist_maps = group_distance_maps(small_uni, members)
            interests = [
                small_uni.social.user(u).interests for u in members
            ]
            state = kernel.group_state(group, theta)
            for seed in small_uni.poi_ids()[:10]:
                region = small_uni.pois_within(seed, radius)
                expected = best_region_for_seed(
                    small_uni, interests, dist_maps, seed, region, theta
                )
                ball = kernel.ball(seed, region)
                got = kernel.best_region(ball, state)
                if expected is None:
                    assert got is None, (members, seed)
                else:
                    assert got is not None, (members, seed)
                    assert got[0] == expected[0], (members, seed)
                    assert got[1] == expected[1], (members, seed)  # bitwise
                # skip_gates must not change the outcome either.
                if expected is not None and not state.seed_feasible[
                    ball.seed_dense
                ]:
                    assert kernel.best_region(
                        ball, state, skip_gates=True
                    ) == expected
                checked += 1
        assert checked > 0


class TestMemberBound:
    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_equals_singleton_reference(self, small_uni, theta):
        """For every (user, seed) the bound is the scalar reference's
        value for the singleton group {u}, bit for bit, and +inf exactly
        when the reference finds no region."""
        kernel = PairKernel(small_uni)
        radius = 20.0
        outcomes = set()
        for uid in small_uni.social.user_ids():
            dist_maps = group_distance_maps(small_uni, [uid])
            interests = [small_uni.social.user(uid).interests]
            for seed in small_uni.poi_ids():
                region = small_uni.pois_within(seed, radius)
                expected = best_region_for_seed(
                    small_uni, interests, dist_maps, seed, region, theta
                )
                got = kernel.member_bound(
                    uid, kernel.ball(seed, region), theta
                )
                if expected is None:
                    assert got == math.inf, (uid, seed)
                    outcomes.add("none")
                else:
                    assert got == expected[1], (uid, seed)
                    outcomes.add("seed" if len(expected[0]) == 1 else "scan")
        assert outcomes == {"none", "seed", "scan"}

    def test_bounds_every_scanned_pair_on_golden_networks(
        self, monkeypatch
    ):
        """Replay every golden case with the member gate disabled, so
        every pair the block gates pass reaches the prefix scan: each
        member's bound is at most the scanned value, and the outcomes
        and counts still equal the golden file (the gate moves none)."""
        monkeypatch.syspath_prepend(
            str(Path(__file__).resolve().parent.parent / "properties")
        )
        import refinement_golden as golden

        member_bound = PairKernel.member_bound
        best_region = PairKernel.best_region
        members = {}
        scanned = 0

        def recording_group_state(self, group, theta):
            state = GroupState(self, group, theta)
            # Holding the state keeps its id unique for the whole replay.
            members[id(state)] = (state, sorted(group))
            return state

        def checked_best_region(self, ball, state, skip_gates=False):
            nonlocal scanned
            result = best_region(self, ball, state, skip_gates)
            if result is not None:
                scanned += 1
                for uid in members[id(state)][1]:
                    bound = member_bound(self, uid, ball, state.theta)
                    assert bound <= result[1], (uid, ball.seed_poi)
            return result

        monkeypatch.setattr(PairKernel, "group_state", recording_group_state)
        monkeypatch.setattr(PairKernel, "best_region", checked_best_region)
        monkeypatch.setattr(
            PairKernel, "member_bound",
            lambda self, uid, ball, theta: -math.inf,
        )
        for case in golden.load():
            got = golden.outcome(golden.processor_for(case), case)
            assert got == case["out"], case
        assert scanned > 1000


class TestKernelCacheBounds:
    """theta and radius are client-supplied floats: the per-(user, theta)
    and per-(seed, radius) caches must stay within the kernel budget."""

    CAP = 6

    def _capped_network(self):
        network = uni_dataset(
            num_road_vertices=60, num_pois=20, num_users=30, seed=5
        )
        network.distances.cache_size = self.CAP
        return network

    def test_user_feasible_cache_is_lru_capped(self):
        network = self._capped_network()
        capped = PairKernel(network)
        uncapped = PairKernel(network)
        uncapped._cache_cap = math.inf
        thetas = [0.05 * (i + 1) for i in range(3 * self.CAP)]
        for theta in thetas:
            for uid in (0, 7):
                got = capped.user_poi_feasible(uid, theta)
                assert len(capped._user_feasible) <= self.CAP
                assert np.array_equal(
                    got, uncapped.user_poi_feasible(uid, theta)
                )
        assert len(uncapped._user_feasible) == 2 * len(thetas)
        # LRU, not FIFO: a hit refreshes the entry.
        capped.user_poi_feasible(0, thetas[-1])
        assert next(reversed(capped._user_feasible)) == (0, thetas[-1])

    def test_ball_cache_is_lru_capped(self):
        network = self._capped_network()
        kernel = PairKernel(network)
        seed = network.poi_ids()[0]
        for i in range(3 * self.CAP):
            radius = 1.0 + 0.5 * i
            region = network.pois_within(seed, radius)
            ball = kernel.ball(seed, region, cache_key=(seed, radius))
            assert len(kernel._balls) <= self.CAP
            assert ball.poi_ids == BallArrays(kernel, seed, region).poi_ids

    def test_answers_match_uncapped_kernel(self):
        capped_network = self._capped_network()
        reference = uni_dataset(
            num_road_vertices=60, num_pois=20, num_users=30, seed=5
        )
        capped = GPSSNQueryProcessor(capped_network, seed=3)
        uncapped = GPSSNQueryProcessor(reference, seed=3)
        uncapped._pair_kernel()._cache_cap = math.inf
        for i in range(3 * self.CAP):
            query = GPSSNQuery(
                query_user=i % 5, tau=3, gamma=0.1,
                theta=0.1 + 0.03 * i, radius=1.5 + 0.25 * (i % 4),
            )
            a, _ = capped.answer(query)
            b, _ = uncapped.answer(query)
            assert (a.users, a.pois) == (b.users, b.pois), query
            assert repr(a.max_distance) == repr(b.max_distance), query
        kernel = capped._pair_kernel()
        assert len(kernel._user_feasible) <= self.CAP
        assert len(kernel._balls) <= self.CAP
        assert len(kernel._member_rows) <= self.CAP


class TestBlockGates:
    def test_reduce_matches_group_state(self, small_uni):
        kernel = PairKernel(small_uni)
        theta = 0.45
        radius = 20.0
        seeds = small_uni.poi_ids()[:12]
        balls = [
            kernel.ball(s, small_uni.pois_within(s, radius)) for s in seeds
        ]
        seed_dense = np.array([b.seed_dense for b in balls])
        full_cover = np.stack([b.full_cover_f8 for b in balls])
        space = GroupSpace(small_uni, 0, 3, 0.0)
        gates = BlockGates(kernel, space.users, seed_dense, full_cover, theta)
        groups = list(enumerate_group_indices(space, 3, limit=40))
        assert len(groups) > 2
        # Two blocks: the second reuses the member rows of the first.
        for block in (groups[:15], groups[15:]):
            lb, seed_ok, ball_ok, g_min = gates.reduce(np.array(block))
            for j, members in enumerate(block):
                group = [space.users[m] for m in members]
                state = kernel.group_state(group, theta)
                assert np.array_equal(lb[j], state.gmax[seed_dense])
                assert np.array_equal(
                    seed_ok[j], state.seed_feasible[seed_dense]
                )
                expected_ball = (
                    (full_cover @ state.interests.T).min(axis=1) >= theta
                )
                assert np.array_equal(ball_ok[j], expected_ball)
                viable = [
                    float(lb[j][i]) for i in range(len(seeds))
                    if seed_ok[j][i] or ball_ok[j][i]
                ]
                assert g_min[j] == (min(viable) if viable else math.inf)

    def test_reduce_width_is_a_seed_prefix(self, small_uni):
        kernel = PairKernel(small_uni)
        theta = 0.45
        seeds = small_uni.poi_ids()[:12]
        balls = [
            kernel.ball(s, small_uni.pois_within(s, 20.0)) for s in seeds
        ]
        seed_dense = np.array([b.seed_dense for b in balls])
        full_cover = np.stack([b.full_cover_f8 for b in balls])
        space = GroupSpace(small_uni, 0, 3, 0.0)
        index = np.array(list(enumerate_group_indices(space, 3, limit=40)))
        full = BlockGates(
            kernel, space.users, seed_dense, full_cover, theta
        ).reduce(index)
        for width in (0, 1, 5, len(seeds)):
            part = BlockGates(
                kernel, space.users, seed_dense, full_cover, theta
            ).reduce(index, width)
            for got, want in zip(part[:3], full[:3]):
                assert np.array_equal(got, want[:, :width])
            lb, seed_ok, ball_ok, g_min = part
            viable = np.where(seed_ok | ball_ok, lb, np.inf)
            for j in range(len(index)):
                assert g_min[j] == min(viable[j].tolist(), default=math.inf)
