"""Whole-index road gates equal the per-entry reference.

The vector kernel decides every I_R entry of Algorithm 2 (Lemmas 1 and
5-7, Eqs. 16-18) and the line-30 witness from columns evaluated once
per query and I_S level (``repro.core.road_gates.RoadGates``); the
scalar kernel evaluates the same bounds per entry with the Section-4.2
predicates (``ScalarRoadGates``). Both must give bitwise-equal bounds,
hence equal answers, every ``PruningCounters`` field, page accesses,
``traverse.witness_checks`` and EXPLAIN funnel — on a road network
with two components (inf pivot distances), with each pruning rule off,
for top-k queries (delta pruning suspended) and after POI churn.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import (
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    PruningToggles,
    RoadNetwork,
    SocialNetwork,
    SpatialSocialNetwork,
    User,
    uni_dataset,
)
from repro.core.query import GPSSNQuery, PruningCounters
from repro.core.road_gates import RoadGates, ScalarRoadGates
from repro.dynamic import DynamicIndexMaintainer
from repro.dynamic.ops import AddPoi, RemovePoi
from repro.obs import Recorder
from repro.obs.funnel import ExplainRecorder

NUM_KEYWORDS = 3


def _grid_component(road, base, x0, side=4, spacing=2.0):
    for r in range(side):
        for c in range(side):
            road.add_vertex(base + r * side + c, x0 + c * spacing, r * spacing)
    for r in range(side):
        for c in range(side):
            vid = base + r * side + c
            if c + 1 < side:
                road.add_edge(vid, vid + 1)
            if r + 1 < side:
                road.add_edge(vid, vid + side)


def _random_position(road, edges, rng):
    u, v, length = edges[int(rng.integers(len(edges)))]
    pos = NetworkPosition(u, v, float(rng.uniform(0.0, length)))
    return road.position_coords(pos), pos


def two_component_network(seed=5, num_pois=14, num_users=18):
    """Two disconnected 4x4 grids: every pivot is unreachable from the
    POIs and users of the other component."""
    rng = np.random.default_rng(seed)
    road = RoadNetwork()
    _grid_component(road, 0, 0.0)
    _grid_component(road, 16, 1000.0)
    edges = sorted(road.edges())
    pois = []
    for pid in range(num_pois):
        coords, pos = _random_position(road, edges, rng)
        size = int(rng.integers(1, 3))
        keywords = rng.choice(NUM_KEYWORDS, size=size, replace=False)
        pois.append(POI(pid, coords, pos, frozenset(int(k) for k in keywords)))
    social = SocialNetwork()
    for uid in range(num_users):
        _, home = _random_position(road, edges, rng)
        social.add_user(
            User(uid, rng.dirichlet(np.ones(NUM_KEYWORDS)), home)
        )
    for uid in range(num_users):
        social.add_friendship(uid, (uid + 1) % num_users)
    for _ in range(num_users):
        a, b = (int(x) for x in rng.choice(num_users, size=2, replace=False))
        if not social.are_friends(a, b):
            social.add_friendship(a, b)
    return SpatialSocialNetwork(road, social, pois, NUM_KEYWORDS)


def _processor(network, toggles=None, explain=True, **kwargs):
    recorder = Recorder(explain=ExplainRecorder()) if explain else Recorder()
    return GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=11,
        toggles=toggles, recorder=recorder, **kwargs,
    )


def _run(processor, kernel, query, k=None):
    processor.refinement_kernel = kernel
    recorder = processor.recorder
    recorder.explain.clear()
    checks = recorder.metrics.counter("traverse.witness_checks")
    if k is None:
        answer, stats = processor.answer(query)
        answers = [answer]
    else:
        answers, stats = processor.answer_topk(query, k=k)
    return (
        [
            (sorted(a.users), sorted(a.pois), repr(a.max_distance))
            for a in answers
        ],
        dataclasses.asdict(stats.pruning),
        stats.page_accesses,
        stats.candidate_users,
        stats.candidate_pois,
        recorder.metrics.counter("traverse.witness_checks") - checks,
        recorder.explain.as_dict(),
    )


def _assert_kernels_agree(processor, query, k=None):
    scalar = _run(processor, "scalar", query, k)
    vector = _run(processor, "vector", query, k)
    assert vector == scalar, query
    return vector


def _queries(network, users, thetas=(0.2, 0.5), radii=(1.0, 3.0)):
    for uid in users:
        for tau in (2, 3):
            for theta in thetas:
                for radius in radii:
                    yield GPSSNQuery(
                        query_user=uid, tau=tau, gamma=0.1,
                        theta=theta, radius=radius,
                    )


@pytest.fixture(scope="module")
def split_network():
    return two_component_network()


@pytest.fixture(scope="module")
def uni_network():
    return uni_dataset(
        num_road_vertices=60, num_pois=20, num_users=40, seed=29
    )


# -- bound-level parity ------------------------------------------------------


def _assert_gates_bitwise(processor, query, s_ubs, floors):
    uq = processor.network.social.user(query.query_user)
    columns = processor.road_index.columns
    args = (
        columns, uq.interests, processor.road_pivots.distances(uq.home),
        query.theta, query.radius,
    )
    vector, scalar = RoadGates(*args), ScalarRoadGates(*args)
    vector.level(s_ubs, floors)
    scalar.level(s_ubs, floors)
    slots = range(len(columns.aps))
    pages = range(len(columns.nodes))
    for name, keys in (
        ("poi_match", slots), ("node_match", pages),
        ("poi_lb", slots), ("node_lb", pages),
        ("poi_ub", slots), ("poi_witness", slots),
    ):
        got = [repr(getattr(vector, name)[i]) for i in keys]
        want = [repr(getattr(scalar, name)[i]) for i in keys]
        assert got == want, name
    # Each slot twice: ties must resolve to the first minimum.
    order = list(np.random.default_rng(query.query_user).permutation(slots))
    witness = vector.witness(order * 2)
    assert witness == scalar.witness(order * 2)
    return witness


@pytest.mark.parametrize("network_name", ["split_network", "uni_network"])
def test_gates_bitwise_equal_per_entry(request, network_name):
    network = request.getfixturevalue(network_name)
    processor = _processor(network, explain=False)
    social_index = processor.social_index
    users = sorted(network.social.user_ids())
    rng = np.random.default_rng(3)
    h = processor.road_pivots.num_pivots
    witnesses = []
    for uid in users[::3]:
        for theta in (0.1, 0.3, 0.6):
            query = GPSSNQuery(
                query_user=uid, tau=2, theta=theta, radius=2.0
            )
            picked = rng.choice(users, size=2, replace=False)
            floors = [
                social_index.augmented(int(u)).user.interests for u in picked
            ]
            s_ubs = [float(rng.uniform(0.0, 50.0)) for _ in range(h)]
            for level_floors in (
                floors, floors + [social_index.root.interest_mbr.low], [],
            ):
                witnesses.append(
                    _assert_gates_bitwise(
                        processor, query, s_ubs, level_floors
                    )
                )
    assert any(w is not None for w in witnesses)


def test_split_network_has_infinite_pivot_distances(split_network):
    processor = _processor(split_network, explain=False)
    columns = processor.road_index.columns
    assert not columns.poi_finite.all()
    assert not columns.node_finite.all()


# -- query-level parity ------------------------------------------------------


@pytest.mark.parametrize("explain", [False, True])
def test_two_component_network(split_network, explain):
    processor = _processor(split_network, explain=explain)
    found = 0
    for query in _queries(split_network, range(0, 18, 3)):
        answers = _assert_kernels_agree(processor, query)[0]
        found += answers[0][2] != repr(math.inf)
    assert found  # the grid must reach the non-trivial paths


@pytest.mark.parametrize(
    "rule", ["interest", "social_distance", "matching", "road_distance"]
)
def test_each_rule_off(uni_network, rule):
    toggles = PruningToggles(**{rule: False})
    processor = _processor(uni_network, toggles=toggles)
    for query in _queries(uni_network, (0, 7, 21), radii=(2.0,)):
        _assert_kernels_agree(processor, query)


@pytest.mark.parametrize("k", [2, 5])
def test_topk_suspends_delta_identically(uni_network, split_network, k):
    for network in (uni_network, split_network):
        processor = _processor(network)
        for query in _queries(network, (0, 9), thetas=(0.3,)):
            _assert_kernels_agree(processor, query, k=k)


def _churned_processor():
    network = uni_dataset(
        num_road_vertices=60, num_pois=16, num_users=30, seed=14
    )
    return _processor(network)


def test_after_poi_churn_and_refreeze():
    processor = _churned_processor()
    network = processor.network
    maintainer = DynamicIndexMaintainer(processor)
    u, v, length = sorted(network.road.edges())[5]
    new_pid = max(network.poi_ids()) + 1
    queries = list(_queries(network, (0, 11, 23), thetas=(0.3,)))

    maintainer.apply(AddPoi(poi=new_pid, u=u, v=v, offset=length / 2,
                            keywords=(0, 2)))
    road_index = processor.road_index
    for pid in sorted(network.poi_ids())[:4]:
        road_index.refresh_pivot_dists(pid)
    # Before the refreeze the stale mirror still serves queries, and the
    # columns follow the neighbours' material edited in place.
    for query in queries:
        _assert_kernels_agree(processor, query)
    maintainer.apply(RemovePoi(poi=min(network.poi_ids())))
    maintainer.flush()
    assert not road_index._dirty
    for query in queries:
        _assert_kernels_agree(processor, query)


# -- refreeze rebuilds the columns --------------------------------------------


def _single_topic_network():
    """POIs cover topics 0-2 only; user 0 cares about topic 3 alone."""
    road = RoadNetwork()
    _grid_component(road, 0, 0.0, spacing=1.0)
    edges = sorted(road.edges())
    pois = []
    for pid in range(6):
        u, v, length = edges[pid * 3]
        pos = NetworkPosition(u, v, length / 2)
        pois.append(
            POI(pid, road.position_coords(pos), pos, frozenset({pid % 3}))
        )
    social = SocialNetwork()
    u, v, length = edges[0]
    social.add_user(
        User(0, np.array([0.0, 0.0, 0.0, 1.0]), NetworkPosition(u, v, 0.0))
    )
    social.add_user(
        User(1, np.array([0.0, 0.0, 0.0, 1.0]), NetworkPosition(u, v, 0.2))
    )
    social.add_friendship(0, 1)
    return SpatialSocialNetwork(road, social, pois, 4)


def test_refreeze_rebuilds_columns_for_new_keyword():
    network = _single_topic_network()
    processor = _processor(network)
    query = GPSSNQuery(query_user=0, tau=2, gamma=0.0, theta=0.5, radius=1.0)
    _, stats = processor.answer(query)
    assert stats.pruning.road_pruned_by_matching == network.num_pois

    maintainer = DynamicIndexMaintainer(processor)
    u, v, length = sorted(network.road.edges())[0]
    maintainer.apply(
        AddPoi(poi=99, u=u, v=v, offset=length / 2, keywords=(3,))
    )
    maintainer.flush()
    assert 3 in processor.road_index.columns.aps[
        processor.road_index.columns.slot_of[99]
    ].sup_keywords
    for kernel in ("vector", "scalar"):
        processor.refinement_kernel = kernel
        _, r_cand, _ = processor._traverse(query, PruningCounters())
        assert 99 in {ap.poi_id for ap in r_cand}, kernel
        answer, stats = processor.answer(query)
        assert stats.pruning.road_pruned_by_matching < network.num_pois
        assert 99 in answer.pois, kernel
