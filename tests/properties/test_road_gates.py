"""Whole-index road gates equal the per-entry predicates.

The processor decides every I_R entry of Algorithm 2 (Lemmas 1 and
5-7, Eqs. 16-18) and the line-30 witness from columns evaluated once
per query and I_S level (``repro.core.road_gates.RoadGates``). Every
column must be bitwise equal to the Section-4.2 predicates of
``repro.core.index_pruning`` (and ``match_score`` per floor for Eq. 18)
called entry by entry, on node bounds this test derives from each
subtree's POIs by min, max and OR — on a road network with two
components (inf pivot distances) and on ties. At query level, the answers, every
``PruningCounters`` field, page accesses, ``traverse.witness_checks``
and the EXPLAIN funnel must reproduce ``refinement_golden.json`` (see
``refinement_golden.py``): with each pruning rule off, for top-k
queries (delta pruning suspended) and after POI churn.
"""

import math

import numpy as np
import pytest

import refinement_golden as golden
from conftest import road_node_bounds, social_node_bounds
from repro import (
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    RoadNetwork,
    SocialNetwork,
    SpatialSocialNetwork,
    User,
)
from repro.core.index_pruning import (
    lb_maxdist_road_node,
    ub_match_score_road_node,
    ub_maxdist_road_node,
)
from repro.core.query import GPSSNQuery, PruningCounters
from repro.core.road_gates import RoadGates
from repro.core.scores import match_score
from repro.dynamic import DynamicIndexMaintainer
from repro.dynamic.ops import AddPoi, RemovePoi
from repro.obs import Recorder
from repro.obs.funnel import ExplainRecorder

GOLDEN = golden.load()


def _processor(network, explain=True):
    recorder = Recorder(explain=ExplainRecorder()) if explain else Recorder()
    return GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=11,
        recorder=recorder,
    )


def _replay(suite, where=lambda case: True):
    return golden.replay(GOLDEN, suite, where)


@pytest.fixture(scope="module")
def split_network():
    return golden.two_component_network()


@pytest.fixture(scope="module")
def uni_network():
    return golden.uni_network()


# -- bound-level parity ------------------------------------------------------


def _assert_gates_bitwise(processor, query, s_ubs, floors):
    uq = processor.network.social.user(query.query_user)
    interests = uq.interests
    uq_pivots = processor.road_pivots.distances(uq.home)
    columns = processor.road_index.columns
    gates = RoadGates(
        columns, interests, uq_pivots, query.theta, query.radius
    )
    gates.level(s_ubs, floors)
    aps = columns.aps
    nodes = [
        road_node_bounds(processor.road_index, page)
        for page in range(processor.road_index.num_pages)
    ]
    theta, radius = query.theta, query.radius
    reference = {
        "poi_match": [
            ub_match_score_road_node(interests, ap.sup_vector) for ap in aps
        ],
        "node_match": [
            ub_match_score_road_node(interests, sup) for _, _, sup in nodes
        ],
        "poi_lb": [
            lb_maxdist_road_node(uq_pivots, ap.pivot_dists, ap.pivot_dists)
            for ap in aps
        ],
        "node_lb": [
            lb_maxdist_road_node(uq_pivots, lb, ub) for lb, ub, _ in nodes
        ],
        "poi_ub": [
            ub_maxdist_road_node(s_ubs, ap.pivot_dists, radius)
            for ap in aps
        ],
        # Eq. 18: the POI's sub_K may theta-match every S_cand floor.
        "poi_witness": [
            bool(floors) and all(
                match_score(vec, ap.sub_keywords) >= theta for vec in floors
            )
            for ap in aps
        ],
    }
    for name, want in reference.items():
        got = getattr(gates, name)
        assert [repr(v) for v in got] == [repr(v) for v in want], name
    # Each slot twice: ties must resolve to the first minimum.
    slots = range(len(aps))
    order = list(np.random.default_rng(query.query_user).permutation(slots))
    order = order * 2
    best, best_key = None, math.inf
    for pos, slot in enumerate(order):
        key = reference["poi_ub"][slot]
        if reference["poi_witness"][slot] and key < best_key:
            best, best_key = pos, key
    witness = gates.witness(order)
    assert witness == best
    return witness


@pytest.mark.parametrize("network_name", ["split_network", "uni_network"])
def test_gates_bitwise_equal_per_entry(request, network_name):
    network = request.getfixturevalue(network_name)
    processor = _processor(network, explain=False)
    social_index = processor.social_index
    users = sorted(network.social.user_ids())
    rng = np.random.default_rng(3)
    h = processor.road_pivots.num_pivots
    root_floor = social_node_bounds(social_index, 0)[0].low
    witnesses = []
    for uid in users[::3]:
        for theta in (0.1, 0.3, 0.6):
            query = GPSSNQuery(
                query_user=uid, tau=2, theta=theta, radius=2.0
            )
            picked = rng.choice(users, size=2, replace=False)
            floors = [network.social.user(int(u)).interests for u in picked]
            s_ubs = [float(rng.uniform(0.0, 50.0)) for _ in range(h)]
            for level_floors in (
                floors, floors + [root_floor], [],
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


# -- query-level outcomes against the golden file -----------------------------


@pytest.mark.parametrize("explain", [False, True])
def test_two_component_network(explain):
    outs = _replay(
        "split", lambda case: case.get("explain", True) == explain
    )
    # the grid must reach the non-trivial paths
    assert any(out["answers"][0][2] != repr(math.inf) for out in outs)


@pytest.mark.parametrize(
    "rule", ["interest", "social_distance", "matching", "road_distance"]
)
def test_each_rule_off(rule):
    _replay("rule_off", lambda case: case["off"] == rule)


@pytest.mark.parametrize("k", [2, 5])
def test_topk_suspends_delta_identically(k):
    _replay("topk_delta", lambda case: case["k"] == k)


def test_after_poi_churn_and_refreeze():
    for stage in ("insert", "delete"):
        _replay("churn", lambda case: case["stage"] == stage)


# -- queries refreeze a mutated index first ------------------------------------


def test_query_between_delete_and_refreeze_refreezes_first():
    """A query right after a POI delete (no refreeze in between) sees
    the refrozen mirror, so it equals the answer after an explicit
    refreeze instead of reading the removed POI from a stale mirror."""

    def delete_lowest_poi(refreeze):
        processor = _processor(golden.churn_network())
        network = processor.network
        road_index = processor.road_index
        pid = min(network.poi_ids())
        region = network.poi_distances_within(pid, 2.0 * road_index.r_max)
        network.apply(RemovePoi(poi=pid))
        road_index.delete_poi(pid, region)
        processor.note_incremental_maintenance()
        if refreeze:
            assert road_index.refreeze_if_dirty()
        return processor, pid

    lazy, removed = delete_lowest_poi(refreeze=False)
    eager, _ = delete_lowest_poi(refreeze=True)
    assert lazy.road_index._dirty
    cases = [
        {"q": q} for q in golden.queries((0, 11, 23), thetas=(0.1, 0.3))
    ]
    for case in cases:
        got = golden.outcome(lazy, case)
        assert not lazy.road_index._dirty
        assert got == golden.outcome(eager, case), case
        assert all(removed not in pois for _, pois, _ in got["answers"])
    for case in cases:  # top-k suspends delta: the witness pass differs
        case["k"] = 3
        assert golden.outcome(lazy, case) == golden.outcome(eager, case)


# -- refreeze rebuilds the columns --------------------------------------------


def _single_topic_network():
    """POIs cover topics 0-2 only; user 0 cares about topic 3 alone."""
    road = RoadNetwork()
    golden.grid_component(road, 0, 0.0, spacing=1.0)
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
    _, r_cand, _ = processor._traverse(query, PruningCounters())
    assert 99 in {ap.poi_id for ap in r_cand}
    answer, stats = processor.answer(query)
    assert stats.pruning.road_pruned_by_matching < network.num_pois
    assert 99 in answer.pois
