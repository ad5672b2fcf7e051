"""Subset-sampling refinement: validity, approximation, determinism."""

import hashlib
import math

import numpy as np
import pytest

from repro import (
    BaselineProcessor,
    GPSSNQuery,
    GPSSNQueryProcessor,
    uni_dataset,
    zipf_dataset,
)
from repro.core.metrics import InterestMetric, MetricScorer
from repro.core.query import PruningCounters
from repro.core.refinement import (
    GroupSpace,
    best_region_for_seed,
    group_distance_maps,
    sample_connected_groups,
)
from repro.core.scores import interest_score
from repro.exceptions import InvalidParameterError
from repro.roadnet.shortest_path import position_distance_from_map


def sample(
    network, query_user, tau, gamma, rng, num_samples, allowed=None,
    scorer=None, max_attempts_factor=25,
):
    """:func:`sample_connected_groups` over the issuer's group space,
    mapped back to user-id frozensets."""
    space = GroupSpace(network, query_user, tau, gamma, allowed, scorer)
    return [
        frozenset(space.users[i] for i in group)
        for group in sample_connected_groups(
            space, tau, rng, num_samples, max_attempts_factor
        )
    ]


@pytest.fixture(scope="module")
def setup():
    network = uni_dataset(
        num_road_vertices=90, num_pois=28, num_users=48, seed=12
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=12
    )
    return network, processor, BaselineProcessor(network)


class TestSampling:
    def test_sampled_groups_are_valid(self, setup):
        network, _, _ = setup
        rng = np.random.default_rng(1)
        groups = sample(
            network, 0, tau=3, gamma=0.2, rng=rng, num_samples=10
        )
        for group in groups:
            assert 0 in group
            assert len(group) == 3
            assert network.social.is_connected_subset(sorted(group))
            members = sorted(group)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    assert interest_score(
                        network.social.user(a).interests,
                        network.social.user(b).interests,
                    ) >= 0.2

    def test_groups_distinct(self, setup):
        network, _, _ = setup
        rng = np.random.default_rng(1)
        groups = sample(
            network, 0, tau=3, gamma=0.0, rng=rng, num_samples=15
        )
        assert len(groups) == len(set(groups))

    def test_tau_one(self, setup):
        network, _, _ = setup
        rng = np.random.default_rng(1)
        assert sample(
            network, 5, tau=1, gamma=0.0, rng=rng, num_samples=3
        ) == [frozenset({5})]

    def test_deterministic_for_fixed_rng(self, setup):
        network, _, _ = setup
        a = sample(network, 0, 3, 0.2, np.random.default_rng(7), 8)
        b = sample(network, 0, 3, 0.2, np.random.default_rng(7), 8)
        assert a == b

    def test_successes_do_not_consume_attempt_budget(self, setup):
        """S2 regression: the attempt budget only counts failures.

        With ``max_attempts_factor=1`` the budget is ``num_samples``
        failed expansions. Before the fix *every* expansion counted, so
        a rich neighbourhood (user 0 has many compatible friends) would
        stop far short of ``num_samples`` distinct groups even though
        sampling never hit a dead end. After the fix the sampler keeps
        going as long as it makes progress.
        """
        network, _, _ = setup
        num_samples = 12
        groups = sample(
            network, 0, tau=3, gamma=0.0,
            rng=np.random.default_rng(3),
            num_samples=num_samples,
            max_attempts_factor=1,
        )
        # Sanity: the neighbourhood really is rich enough.
        plenty = sample(
            network, 0, tau=3, gamma=0.0,
            rng=np.random.default_rng(3),
            num_samples=num_samples,
            max_attempts_factor=100,
        )
        assert len(plenty) == num_samples
        assert len(groups) == num_samples

    def test_terminates_when_fewer_groups_exist(self, tiny_network):
        """The failure budget still bounds the loop: user 4's only
        tau=2 group is {4, 5}; asking for more must return just it."""
        groups = sample(
            tiny_network, 4, tau=2, gamma=0.0,
            rng=np.random.default_rng(0),
            num_samples=5,
            max_attempts_factor=2,
        )
        assert groups == [frozenset({4, 5})]


    def test_group_lists_pinned(self, setup):
        """The sampled group lists over a fixed grid, digested: every
        draw of the expansion is fixed by ids alone."""
        network = setup[0]
        networks = (network, zipf_dataset(
            num_road_vertices=90, num_pois=28, num_users=48, seed=12
        ))
        lists = []
        for net in networks:
            allowed = {u for u in net.social.user_ids() if u % 4 != 3}
            for uq in range(0, 48, 8):
                for tau in (2, 3, 4, 5):
                    for gamma in (0.0, 0.2, 0.35):
                        for metric in ("dot", "cosine"):
                            scorer = MetricScorer(InterestMetric(metric))
                            for rng_seed in (0, 1):
                                for n in (5, 40):
                                    groups = sample(
                                        net, uq, tau, gamma,
                                        np.random.default_rng(rng_seed), n,
                                        allowed, scorer,
                                    )
                                    lists.append(
                                        [tuple(sorted(g)) for g in groups]
                                    )
        digest = hashlib.sha256(repr(lists).encode()).hexdigest()
        assert digest == (
            "fb9d8cebf4ba910a87214e3dfd07524fe9cfa917dbaf49891ac5128cfeced0d1"
        )


def scalar_sampled_answer(network, processor, query, num_samples, seed):
    """The sampled answer by the scalar reference: the same sampled
    groups, seeds in ``(dist, id)`` order, :func:`best_region_for_seed`
    per pair, and the first strictly smaller value wins."""
    scorer = MetricScorer(query.metric)
    s_cand, r_cand, _ = processor._traverse(query, PruningCounters(), scorer)
    uq = query.query_user
    allowed = set(s_cand) | {uq}
    groups = sample(
        network, uq, query.tau, query.gamma,
        np.random.default_rng(seed), num_samples, allowed, scorer,
    )
    home = network.social.user(uq).home
    uq_map = network.distances.distances_from(("user", uq), home)
    dist = {
        ap.poi_id: position_distance_from_map(
            network.road, uq_map, ap.poi.position, home
        )
        for ap in r_cand
    }
    seeds = sorted(dist, key=lambda pid: (dist[pid], pid))
    best_value, best = math.inf, None
    for group in groups:
        maps = group_distance_maps(network, group)
        interests = [network.social.user(u).interests for u in sorted(group)]
        for seed_poi in seeds:
            if dist[seed_poi] >= best_value:
                break
            result = best_region_for_seed(
                network, interests, maps, seed_poi,
                processor.road_index.region(seed_poi, query.radius),
                query.theta,
            )
            if result is not None and result[1] < best_value:
                best_value = result[1]
                best = (sorted(group), sorted(result[0]), repr(best_value))
    return best


class TestAnswerSampled:
    @pytest.mark.parametrize("tau", [2, 3, 4])
    def test_matches_scalar_reference(self, setup, tau):
        network, processor, _ = setup
        for uq in network.social.user_ids():
            query = GPSSNQuery(
                query_user=uq, tau=tau, gamma=0.2, theta=0.3, radius=2.5
            )
            answer, _ = processor.answer_sampled(
                query, num_samples=20, seed=4
            )
            got = (
                (sorted(answer.users), sorted(answer.pois),
                 repr(answer.max_distance))
                if answer.found else None
            )
            assert got == scalar_sampled_answer(
                network, processor, query, 20, 4
            ), uq

    def test_sampled_answer_is_valid_and_at_least_optimum(self, setup):
        network, processor, baseline = setup
        query = GPSSNQuery(query_user=0, tau=3, gamma=0.2, theta=0.3, radius=2.5)
        exact, _ = baseline.answer(query)
        approx, stats = processor.answer_sampled(query, num_samples=60, seed=4)
        if approx.found:
            # An approximate answer can never beat the true optimum.
            assert approx.max_distance >= exact.max_distance - 1e-9
            # And it must satisfy the predicates (spot check two).
            assert query.query_user in approx.users
            assert network.social.is_connected_subset(sorted(approx.users))
        if exact.found and stats.groups_refined > 0:
            # With many samples, the sampled answer usually exists too.
            assert approx.found

    def test_more_samples_never_worse(self, setup):
        _, processor, _ = setup
        query = GPSSNQuery(query_user=0, tau=3, gamma=0.2, theta=0.3, radius=2.5)
        few, _ = processor.answer_sampled(query, num_samples=5, seed=9)
        # Same seed: the first 5 sampled groups are a subset of the 50.
        many, _ = processor.answer_sampled(query, num_samples=50, seed=9)
        if few.found and many.found:
            assert many.max_distance <= few.max_distance + 1e-9

    def test_deterministic_by_seed(self, setup):
        _, processor, _ = setup
        query = GPSSNQuery(query_user=1, tau=3, gamma=0.2, theta=0.3, radius=2.5)
        a, _ = processor.answer_sampled(query, num_samples=20, seed=3)
        b, _ = processor.answer_sampled(query, num_samples=20, seed=3)
        assert a.found == b.found
        if a.found:
            assert a.users == b.users and a.pois == b.pois

    def test_bad_num_samples_rejected(self, setup):
        _, processor, _ = setup
        with pytest.raises(InvalidParameterError):
            processor.answer_sampled(GPSSNQuery(query_user=0), num_samples=0)
