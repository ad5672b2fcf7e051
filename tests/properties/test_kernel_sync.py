"""Property: the kept pair kernel equals a cold kernel after mutations.

The processor keeps one :class:`~repro.core.refinement.PairKernel` for
the life of the road graph and lets it follow POI and user mutations
(stable POI slots, per-user invalidation, balls dropped by the road
index's region log). After every batch of a random stream over all five
mutation ops — with a POI removed and re-added under the same id, and a
user moved away and back, inside one batch — the kernel must still be
the same object, and every live slot of every row, feasibility array
and ball the test has read must equal a kernel built fresh on the
mutated network. The standing queries' member-distance margins must
equal the margins computed from fresh rows.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.core.refinement import PairKernel
from repro.dynamic import (
    ContinuousQueryRegistry,
    DynamicIndexMaintainer,
    synthesize_mutations,
)
from repro.dynamic.ops import AddPoi, MoveUser, RemovePoi

BUILD = dict(num_road_pivots=2, num_social_pivots=2)
THETAS = (0.2, 0.5)
RADII = (1.0, 2.0, 9.0)  # 9.0 > 2 * r_max: a bounded-search region


def network_for(seed):
    # 40 POIs: three batches of at most 5 retirements each never let
    # retired slots outnumber live ones, so the kernel is never rebuilt.
    return uni_dataset(
        num_road_vertices=60, num_pois=40, num_users=20, seed=seed
    )


def batch_for(network, rng, count, stream_seed, readd, move_back):
    """``count`` synthesized ops, optionally framed by a user moved away
    and back and followed by a POI removed and re-added (same id)."""
    batch = list(synthesize_mutations(network, count, seed=stream_seed))
    edges = sorted(network.road.edges())

    def random_position():
        u, v, length = edges[int(rng.integers(len(edges)))]
        return u, v, float(rng.uniform(0.0, length))

    if move_back:
        uid = int(rng.choice(sorted(network.social.user_ids())))
        home = network.social.user(uid).home
        batch.insert(0, MoveUser(uid, *random_position()))
        batch.append(MoveUser(uid, home.u, home.v, home.offset))
    if readd:
        alive = set(network.poi_ids())
        for m in batch:
            if m.op == "add_poi":
                alive.add(m.poi)
            elif m.op == "remove_poi":
                alive.discard(m.poi)
        pid = int(rng.choice(sorted(alive)))
        keywords = rng.choice(network.num_keywords, size=2, replace=False)
        batch.append(RemovePoi(pid))
        batch.append(AddPoi(pid, *random_position(), keywords=keywords))
    return batch


def read_everything(processor, kernel):
    """Fill the kernel's caches; return the keys read."""
    network = processor.network
    uids = sorted(network.social.user_ids())
    for uid in uids:
        kernel.member_row(uid)
        for theta in THETAS:
            kernel.user_poi_feasible(uid, theta)
    kernel.user_positions()
    region = processor.road_index.region
    for seed in network.poi_ids():
        for radius in RADII:
            kernel.ball(seed, region(seed, radius), cache_key=(seed, radius))
    return uids


def assert_matches_fresh(processor, kernel, uids):
    network = processor.network
    fresh = PairKernel(network)
    pids = network.poi_ids()
    kept_idx = np.array([kernel.poi_index[p] for p in pids])
    fresh_idx = np.array([fresh.poi_index[p] for p in pids])
    assert sorted(np.flatnonzero(kernel.live)) == sorted(kept_idx)
    for uid in uids:
        assert np.array_equal(
            kernel.member_row(uid)[kept_idx], fresh.member_row(uid)[fresh_idx]
        ), uid
        for theta in THETAS:
            assert np.array_equal(
                kernel.user_poi_feasible(uid, theta)[kept_idx],
                fresh.user_poi_feasible(uid, theta)[fresh_idx],
            ), (uid, theta)
    positions, user_index = kernel.user_positions()
    fresh_positions, fresh_index = fresh.user_positions()
    for uid in uids:
        assert (
            positions.positions[user_index[uid]]
            == fresh_positions.positions[fresh_index[uid]]
        )
    # Regions from an index built cold on the mutated network.
    cold = GPSSNQueryProcessor(network, seed=0, **BUILD).road_index
    region = processor.road_index.region
    for seed in pids:
        for radius in RADII:
            assert region(seed, radius) == cold.region(seed, radius)
            kept = kernel.ball(
                seed, region(seed, radius), cache_key=(seed, radius)
            )
            want = fresh.ball(seed, cold.region(seed, radius))
            assert kept.poi_ids == want.poi_ids, (seed, radius)
            assert [kernel.poi_ids[i] for i in kept.dense_idx] == kept.poi_ids
            assert kernel.live[kept.dense_idx].all()
            assert kernel.poi_ids[kept.seed_dense] == seed
            assert np.array_equal(kept.keywords, want.keywords)
            assert np.array_equal(kept.full_cover_f8, want.full_cover_f8)
    return fresh


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 40),
    batches=st.lists(
        st.tuples(st.integers(0, 4), st.booleans(), st.booleans()),
        min_size=1, max_size=3,
    ),
)
def test_kept_kernel_equals_cold_kernel(seed, batches):
    network = network_for(seed)
    processor = GPSSNQueryProcessor(network, seed=seed, **BUILD)
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    uids = sorted(network.social.user_ids())
    registry.subscribe([
        (GPSSNQuery(query_user=uid, tau=3, gamma=0.2, theta=0.2,
                    radius=2.0), None)
        for uid in (uids[0], uids[len(uids) // 2], uids[-1])
    ])
    kernel = processor._pair_kernel()
    rng = np.random.default_rng(seed)
    for i, (count, readd, move_back) in enumerate(batches):
        read = read_everything(processor, kernel)
        batch = batch_for(
            network, rng, count, seed * 10 + i, readd, move_back
        )
        registry.apply_batch(batch)
        assert processor._pair_kernel() is kernel
        fresh = assert_matches_fresh(processor, kernel, read)
        for sq in registry.queries:
            answer = sq.answer
            if answer is None or not answer.found:
                continue
            for uid in uids:
                if uid in answer.users:
                    continue
                lb = float(np.maximum(
                    fresh.member_row(sq.query.query_user),
                    fresh.member_row(uid),
                ).min())
                want = (
                    lb - answer.max_distance
                    if lb > answer.max_distance else None
                )
                assert registry._member_distance_margin(sq, uid) == want
    assert processor.recorder.metrics.counter("refine.kernel_builds") == 1
