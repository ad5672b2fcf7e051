"""Whole-index social gates equal the per-entry predicates.

The processor decides every I_S entry of Algorithm 2 (Lemmas 3, 4, 8
and 9) from columns evaluated once per query
(``repro.core.social_gates.SocialGates``). Every decision must equal
the scalar predicate called entry by entry — ``pivot_lower_bound``,
``lb_dist_sn_social_node``, ``scorer.score`` and ``scorer.ub_over_box``
on node bounds this test derives from each subtree's users by min and
max — for all four interest metrics, on a social graph with two
components (inf pivot hops) and with ``gamma`` set to exact scores
(ties). Through a stream of user mutations the columns the index
maintains must keep the user rows of an index re-attached from its
snapshot and cover that index's exact node rows, and equal them after a
compaction. Corollary 2 shares the gates' tie band.
"""

import numpy as np
import pytest

from conftest import social_node_bounds
from repro import (
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    RoadNetwork,
    SocialNetwork,
    SpatialSocialNetwork,
    User,
    uni_dataset,
)
from repro.core.index_pruning import lb_dist_sn_social_node
from repro.core.metrics import PAIR_TOL, InterestMetric, MetricScorer
from repro.core.query import GPSSNQuery, QueryStatistics
from repro.core.social_gates import (
    HOPS,
    INTEREST,
    KEEP,
    SocialGates,
    box_upper_bounds,
    interest_scores,
)
from repro.dynamic import DynamicIndexMaintainer
from repro.dynamic.ops import synthesize_mutations
from repro.index.pivots import pivot_lower_bound
from repro.index.social_index import NODE_BOUNDS, SocialIndex

METRICS = list(InterestMetric)
NUM_KEYWORDS = 8


def _two_community_network(seed=4, per_side=20):
    """One road grid, two friendship communities with no edge between
    them: a social pivot in one is inf hops from the other's users."""
    rng = np.random.default_rng(seed)
    road = RoadNetwork()
    side = 5
    for r in range(side):
        for c in range(side):
            road.add_vertex(r * side + c, float(c), float(r))
    for r in range(side):
        for c in range(side):
            vid = r * side + c
            if c + 1 < side:
                road.add_edge(vid, vid + 1)
            if r + 1 < side:
                road.add_edge(vid, vid + side)
    edges = sorted(road.edges())

    def position():
        u, v, length = edges[int(rng.integers(len(edges)))]
        return NetworkPosition(u, v, float(rng.uniform(0.0, length)))

    pois = []
    for pid in range(12):
        pos = position()
        keywords = rng.choice(NUM_KEYWORDS, size=2, replace=False)
        pois.append(
            POI(pid, road.position_coords(pos), pos,
                frozenset(int(k) for k in keywords))
        )
    social = SocialNetwork()
    for uid in range(2 * per_side):
        # Sparse Dirichlet draws: some topics sit below the set metrics'
        # binarization threshold, so supports differ between users.
        social.add_user(
            User(uid, rng.dirichlet(np.full(NUM_KEYWORDS, 0.5)), position())
        )
    for base in (0, per_side):
        for i in range(per_side):
            social.add_friendship(base + i, base + (i + 1) % per_side)
        for _ in range(per_side // 2):
            a, b = (
                base + int(x)
                for x in rng.choice(per_side, size=2, replace=False)
            )
            if not social.are_friends(a, b):
                social.add_friendship(a, b)
    return SpatialSocialNetwork(road, social, pois, NUM_KEYWORDS)


@pytest.fixture(scope="module")
def split_processor():
    network = _two_community_network()
    return GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=4, seed=5,
        leaf_size=4,
    )


def _expected(processor, scorer, uq_id, tau, gamma, distance, interest):
    """Per slot and per page, the rule the scalar predicates give."""
    index = processor.social_index
    columns = index.columns
    uq = processor.network.social.user(uq_id)
    uq_hops = processor.social_pivots.distances(uq_id)
    users = []
    for slot, uid in enumerate(columns.user_ids):
        hops = pivot_lower_bound(columns.user_social[slot].tolist(), uq_hops)
        interests = processor.network.social.user(uid).interests
        rule = KEEP
        if uid == uq_id:
            pass
        elif distance and hops >= tau:
            rule = HOPS
        elif interest and scorer.score(uq.interests, interests) < gamma:
            rule = INTEREST
        users.append((hops, rule))
    path = set(columns.path_pages(columns.slot_of[uq_id]))
    nodes = []
    for page in range(index.num_pages):
        mbr, (lb, ub), _ = social_node_bounds(index, page)
        hops = lb_dist_sn_social_node(uq_hops, lb, ub)
        rule = KEEP
        if page in path:
            pass
        elif distance and hops >= tau:
            rule = HOPS
        elif interest and scorer.ub_over_box(mbr, uq.interests) < gamma:
            rule = INTEREST
        nodes.append((hops, rule))
    return users, nodes


def _gammas(processor, scorer, uq_id):
    """Exact scores and bounds of u_q (ties) and a few plain values."""
    index = processor.social_index
    social = processor.network.social
    uq = social.user(uq_id)
    exact = [
        scorer.score(uq.interests, social.user(uid).interests)
        for uid in index.columns.user_ids[::5]
    ] + [
        scorer.ub_over_box(social_node_bounds(index, page)[0], uq.interests)
        for page in range(1, index.num_pages, 3)
    ]
    return sorted(set(exact)) + [0.0, 0.15, 0.4, 0.9]


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_gates_equal_per_entry_predicates(split_processor, metric):
    processor = split_processor
    columns = processor.social_index.columns
    scorer = MetricScorer(metric)
    ties = 0
    for uq_id in (0, 7, 23, 31):
        uq = processor.network.social.user(uq_id)
        uq_hops = processor.social_pivots.distances(uq_id)
        for gamma in _gammas(processor, scorer, uq_id):
            scores = interest_scores(
                scorer, uq.interests, columns.user_interests
            )
            ties += int((np.abs(scores - gamma) <= PAIR_TOL).sum())
            for tau in (2, 3, 5):
                for distance, interest in (
                    (True, True), (False, True), (True, False),
                ):
                    gates = SocialGates(
                        columns, scorer, uq.interests, uq_hops, uq_id,
                        tau, gamma, distance, interest,
                    )
                    users, nodes = _expected(
                        processor, scorer, uq_id, tau, gamma,
                        distance, interest,
                    )
                    assert [repr(v) for v in gates.users.hops] == [
                        repr(h) for h, _ in users
                    ]
                    assert gates.users.rules == [r for _, r in users]
                    assert [repr(v) for v in gates.node_hops] == [
                        repr(h) for h, _ in nodes
                    ]
                    assert gates.node_rules == [r for _, r in nodes]
    assert ties  # gamma landed on exact scores: the band was exercised


def test_split_network_has_infinite_pivot_hops(split_processor):
    columns = split_processor.social_index.columns
    assert np.isinf(columns.user_social).any()
    assert np.isfinite(columns.user_social).any()
    assert np.isinf(columns.node_social_ub).any()


@pytest.mark.parametrize("metric", METRICS, ids=lambda m: m.value)
def test_vector_values_track_scalar_values(split_processor, metric):
    """Set metrics are bitwise equal; DOT and COSINE stay inside the
    tie band of the scalar value."""
    index = split_processor.social_index
    columns = index.columns
    social = split_processor.network.social
    scorer = MetricScorer(metric)
    exact_metric = metric in (InterestMetric.JACCARD, InterestMetric.HAMMING)
    for uid in columns.user_ids[::6]:
        anchor = social.user(uid).interests
        got = interest_scores(scorer, anchor, columns.user_interests)
        want = [scorer.score(anchor, social.user(other).interests)
                for other in columns.user_ids]
        bounds = box_upper_bounds(
            scorer, anchor, columns.node_low, columns.node_high
        )
        want_bounds = [
            scorer.ub_over_box(social_node_bounds(index, page)[0], anchor)
            for page in range(index.num_pages)
        ]
        for values, reference in ((got, want), (bounds, want_bounds)):
            if exact_metric:
                assert [repr(float(v)) for v in values] == [
                    repr(v) for v in reference
                ]
            else:
                assert np.all(np.abs(values - reference) <= PAIR_TOL)


USER_ROWS = ("user_social", "user_road", "user_interests")


def _assert_columns_fresh(processor, exact):
    """User rows equal, and node rows cover (``exact``: equal), those
    of an index re-attached from the maintained one's snapshot: the
    same tree and values with every node row reduced exactly."""
    index = processor.social_index
    fresh = SocialIndex.from_snapshot(
        processor.network, processor.social_pivots, processor.road_pivots,
        index.snapshot(),
    ).columns
    maintained = index.columns
    for name in USER_ROWS:
        assert np.array_equal(
            getattr(maintained, name), getattr(fresh, name)
        ), name
    for name, _rows, ufunc in NODE_BOUNDS:
        kept, want = getattr(maintained, name), getattr(fresh, name)
        assert np.array_equal(ufunc(kept, want), kept), name
        if exact:
            assert np.array_equal(kept, want), name
    assert maintained.leaf_slots == fresh.leaf_slots
    assert maintained.slot_of == fresh.slot_of


def test_maintained_columns_equal_fresh_columns():
    network = uni_dataset(
        num_road_vertices=60, num_pois=16, num_users=40, seed=21
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=2
    )
    index = processor.social_index
    stream = [
        m for m in synthesize_mutations(network, 120, seed=6)
        if m.op in ("move_user", "add_friend", "remove_friend")
    ]
    assert {m.op for m in stream} == {
        "move_user", "add_friend", "remove_friend"
    }
    maintainer = DynamicIndexMaintainer(processor, slack_threshold=10_000)
    for start in range(0, len(stream), 10):
        maintainer.apply_all(stream[start:start + 10])
        maintainer.flush()
        _assert_columns_fresh(processor, exact=False)
    assert index.bound_slack > 0  # widening left bounds loose
    index.compact()
    _assert_columns_fresh(processor, exact=True)


def test_corollary2_keeps_user_at_exact_gamma():
    """A pair whose score matrix entry falls below gamma = score(a, b)
    is compatible (Definition 5), so Corollary 2 keeps the user."""
    rng = np.random.default_rng(0)
    scorer = MetricScorer(InterestMetric.DOT)
    for _ in range(5000):
        a, b = rng.dirichlet(np.ones(20), size=2)
        gamma = scorer.score(a, b)
        if scorer.pairwise_matrix(np.stack([a, b]))[0, 1] < gamma:
            break
    else:
        pytest.skip("matrix products equal np.dot on this BLAS")
    network = _two_community_network()
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=2, num_social_pivots=2, seed=5
    )
    home = network.social.user(0).home
    # Corollary 2 reads the candidates' interests from the network.
    network.social.replace_user(User(0, a, home))
    network.social.replace_user(User(1, b, home))
    query = GPSSNQuery(query_user=0, tau=2, gamma=gamma, theta=0.1, radius=1.0)
    kept = processor._corollary2_fixpoint(
        query, [0, 1], QueryStatistics(), scorer
    )
    # The scalar reference: the only other candidate is compatible.
    assert scorer.score(a, b) >= gamma
    assert kept == [0, 1]
