"""The social skip rules of ``ContinuousQueryRegistry``, case by case.

Each positive case is a mutation inside the issuer's (tau-1)-hop ball,
so ``cq.social_hops`` alone would re-answer it; ``cq.issuer_interest``
or ``cq.member_distance`` must skip it instead, and the cached answer
must still equal a cold rebuild byte for byte. The negative cases are
mutations neither rule may skip.
"""

import numpy as np
import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.core.metrics import MetricScorer
from repro.core.refinement import PairKernel
from repro.dynamic import ContinuousQueryRegistry, DynamicIndexMaintainer
from repro.dynamic.continuous import CONTINUOUS_PHASE
from repro.dynamic.ops import AddFriend, MoveUser, RemoveFriend
from repro.obs import ExplainRecorder
from repro.obs.registry import Recorder

SEED = 3
ISSUER = 0
BUILD = dict(num_road_pivots=2, num_social_pivots=2)


def make_network():
    return uni_dataset(
        num_road_vertices=60, num_pois=14, num_users=20, seed=SEED
    )


def make_query(theta=0.2):
    return GPSSNQuery(
        query_user=ISSUER, tau=3, gamma=0.2, theta=theta, radius=2.0
    )


def make_registry(network, query, explain=False):
    recorder = Recorder(explain=ExplainRecorder()) if explain else None
    processor = GPSSNQueryProcessor(
        network, seed=SEED, recorder=recorder, **BUILD
    )
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe([(query, None)])
    return registry


def pruned_by_rule(registry):
    funnel = registry.processor.recorder.explain.phase(CONTINUOUS_PHASE)
    return {rule: stats.pruned for rule, stats in funnel.rules.items()}


def hostile(network, query, uid):
    social = network.social
    return MetricScorer(query.metric).score(
        social.user(uid).interests, social.user(query.query_user).interests
    ) < query.gamma


def ball(network, query):
    return network.social.hop_distances_from(
        query.query_user, max_hops=query.tau - 1
    )


def midpoint_move(user_id, edge):
    u, v, length = edge
    return MoveUser(user=user_id, u=u, v=v, offset=length / 2)


def farthest_move(user_id):
    """The move to the road-edge midpoint maximizing the bound
    ``min_o max(dist_RN(u_q, o), dist_RN(u, o))``, and that bound.

    Probed on separate copies of the network, so the registry under
    test sees only the one mutation.
    """
    best = None
    for edge in sorted(make_network().road.edges()):
        move = midpoint_move(user_id, edge)
        probe = make_network()
        probe.apply(move)
        kernel = PairKernel(probe)
        lb = float(np.maximum(
            kernel.member_row(ISSUER), kernel.member_row(user_id)
        ).min())
        if best is None or lb > best[0]:
            best = (lb, move)
    return best


def apply_one(network, query, mutation):
    registry = make_registry(network, query, explain=True)
    report = registry.apply_batch([mutation])
    assert registry.outcome_lines() == (
        make_registry(network, query).outcome_lines()
    )
    return registry, report


@pytest.fixture()
def setup():
    network = make_network()
    query = make_query()
    answer = make_registry(network, query).queries[0].answer
    assert answer.found
    reach = ball(network, query)
    hostiles = sorted(
        uid for uid in reach if uid != ISSUER and hostile(network, query, uid)
    )
    assert hostiles
    return network, query, answer, reach, hostiles


class TestIssuerInterest:
    def test_hostile_move_inside_ball_is_skipped(self, setup):
        network, query, _answer, reach, hostiles = setup
        uid = hostiles[0]
        assert uid in reach
        edge = sorted(network.road.edges())[0]
        registry, report = apply_one(
            network, query, midpoint_move(uid, edge)
        )
        assert report["reanswered"] == 0
        assert pruned_by_rule(registry) == {"cq.issuer_interest": 1}

    def test_friend_edits_with_hostile_endpoint_are_skipped(self, setup):
        network, query, answer, reach, hostiles = setup
        uid = hostiles[0]
        friend = next(
            m for m in sorted(answer.users)
            if m != ISSUER and not network.social.are_friends(uid, m)
        )
        assert friend in reach
        registry, report = apply_one(
            network, query, AddFriend(a=friend, b=uid)
        )
        assert report["reanswered"] == 0
        assert pruned_by_rule(registry) == {"cq.issuer_interest": 1}

        # Drop the edge again: the removal is skipped the same way.
        report = registry.apply_batch([RemoveFriend(a=uid, b=friend)])
        assert report["reanswered"] == 0
        assert pruned_by_rule(registry) == {"cq.issuer_interest": 2}
        assert registry.outcome_lines() == (
            make_registry(network, query).outcome_lines()
        )

    def test_moving_the_issuer_is_reanswered(self, setup):
        network, query, _answer, _reach, _hostiles = setup
        edge = sorted(network.road.edges())[0]
        registry, report = apply_one(
            network, query, midpoint_move(ISSUER, edge)
        )
        assert report["reanswered"] == 1
        assert pruned_by_rule(registry) == {}


class TestMemberDistance:
    def test_far_move_of_non_member_is_skipped(self, setup):
        network, query, answer, reach, hostiles = setup
        uid = next(
            u for u in sorted(reach)
            if u != ISSUER and u not in hostiles and u not in answer.users
        )
        lb, move = farthest_move(uid)
        assert lb > answer.max_distance
        registry, report = apply_one(network, query, move)
        assert report["reanswered"] == 0
        assert pruned_by_rule(registry) == {"cq.member_distance": 1}

    def test_moving_an_incumbent_member_is_reanswered(self, setup):
        network, query, answer, _reach, _hostiles = setup
        uid = max(answer.users - {ISSUER})
        _lb, move = farthest_move(uid)
        registry, report = apply_one(network, query, move)
        assert report["reanswered"] == 1
        assert pruned_by_rule(registry) == {}

    def test_query_without_answer_is_reanswered(self, setup):
        network, _query, _answer, reach, _hostiles = setup
        query = make_query(theta=0.99)
        assert not make_registry(network, query).queries[0].answer.found
        uid = next(
            u for u in sorted(reach)
            if u != ISSUER and not hostile(network, query, u)
        )
        _lb, move = farthest_move(uid)
        registry, report = apply_one(network, query, move)
        assert report["reanswered"] == 1
        assert pruned_by_rule(registry) == {}
