"""Network mutation, index staleness detection, and rebuild."""

import numpy as np
import pytest

from repro import (
    GPSSNQuery,
    GPSSNQueryProcessor,
    NetworkPosition,
    POI,
    User,
    uni_dataset,
)
from repro.exceptions import (
    GraphConstructionError,
    IndexStateError,
    UnknownEntityError,
)


@pytest.fixture()
def setup():
    network = uni_dataset(
        num_road_vertices=80, num_pois=24, num_users=32, seed=14
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=2, num_social_pivots=2, seed=14
    )
    return network, processor


def make_poi(network, poi_id):
    u, v, length = next(iter(network.road.edges()))
    position = NetworkPosition(u, v, length / 2)
    return POI(
        poi_id=poi_id,
        location=network.road.position_coords(position),
        position=position,
        keywords=frozenset({0, 1}),
    )


class TestMutation:
    def test_add_and_remove_poi(self, setup):
        network, _ = setup
        before = network.num_pois
        network.add_poi(make_poi(network, 9000))
        assert network.num_pois == before + 1
        removed = network.remove_poi(9000)
        assert removed.poi_id == 9000
        assert network.num_pois == before

    def test_duplicate_poi_rejected(self, setup):
        network, _ = setup
        with pytest.raises(GraphConstructionError):
            network.add_poi(make_poi(network, 0))

    def test_remove_unknown_poi_rejected(self, setup):
        network, _ = setup
        with pytest.raises(UnknownEntityError):
            network.remove_poi(123456)

    def test_add_user_with_friends(self, setup):
        network, _ = setup
        u, v, length = next(iter(network.road.edges()))
        user = User(
            9000,
            np.asarray([0.2] * network.num_keywords),
            NetworkPosition(u, v, 0.0),
        )
        network.add_user(user, friends=[0, 1])
        assert network.social.are_friends(9000, 0)
        assert network.social.are_friends(9000, 1)

    def test_version_moves_on_mutation(self, setup):
        network, _ = setup
        v0 = network.version
        network.add_poi(make_poi(network, 9000))
        assert network.version > v0


class TestStalenessGuard:
    def test_stale_index_refused(self, setup):
        network, processor = setup
        query = GPSSNQuery(query_user=0, tau=2, gamma=0.2, theta=0.2)
        processor.answer(query)  # fresh: fine
        network.add_poi(make_poi(network, 9000))
        with pytest.raises(IndexStateError, match="rebuild"):
            processor.answer(query)
        with pytest.raises(IndexStateError):
            processor.answer_topk(query, 2)
        with pytest.raises(IndexStateError):
            processor.answer_sampled(query, num_samples=5)

    def test_rebuild_restores_service(self, setup):
        network, processor = setup
        query = GPSSNQuery(query_user=0, tau=2, gamma=0.2, theta=0.2)
        baseline_answer, _ = processor.answer(query)
        network.add_poi(make_poi(network, 9000))
        processor.rebuild()
        answer, _ = processor.answer(query)
        # The new POI can only improve or preserve the objective.
        if baseline_answer.found and answer.found:
            assert answer.max_distance <= baseline_answer.max_distance + 1e-9
        assert processor.road_index.columns.size[0] == network.num_pois

    def test_rebuild_after_user_addition(self, setup):
        network, processor = setup
        u, v, length = next(iter(network.road.edges()))
        user = User(
            9000,
            np.asarray([0.3] * network.num_keywords),
            NetworkPosition(u, v, 0.0),
        )
        network.add_user(user, friends=[0])
        processor.rebuild()
        query = GPSSNQuery(query_user=9000, tau=2, gamma=0.0, theta=0.1)
        answer, _ = processor.answer(query)
        assert answer.found or not answer.found  # query simply serves
