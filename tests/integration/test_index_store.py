"""Index persistence: processors attached from a frozen arena answer
identically to the processors they were frozen from."""

import numpy as np
import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.core.metrics import InterestMetric
from repro.exceptions import IndexStateError, SnapshotFormatError
from repro.io.snapshot import FrozenSnapshot, freeze


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    network = uni_dataset(
        num_road_vertices=90, num_pois=30, num_users=60, seed=27
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=27
    )
    path = tmp_path_factory.mktemp("store") / "net.gpsnap"
    freeze(network, path, processor=processor)
    return network, processor, path


def attach(path):
    return FrozenSnapshot.open(path).attach()


class TestRoundTrip:
    def test_answers_identical(self, setup):
        network, original, path = setup
        _net, revived = attach(path)
        rng = np.random.default_rng(0)
        for _ in range(5):
            uq = int(rng.integers(network.social.num_users))
            query = GPSSNQuery(
                query_user=uq, tau=3, gamma=0.3, theta=0.3, radius=2.0
            )
            a, sa = original.answer(query)
            b, sb = revived.answer(query)
            assert a.found == b.found
            if a.found:
                assert a.max_distance == pytest.approx(b.max_distance)
                assert a.users == b.users
                assert a.pois == b.pois
            # Identical structures: identical simulated I/O.
            assert sa.page_accesses == sb.page_accesses

    def test_structure_matches(self, setup):
        _network, original, path = setup
        _net, revived = attach(path)
        assert revived.road_index.height == original.road_index.height
        assert revived.road_index.num_pages == original.road_index.num_pages
        assert revived.social_index.num_pages == original.social_index.num_pages
        assert revived.road_pivots.pivots == original.road_pivots.pivots
        assert revived.social_pivots.pivots == original.social_pivots.pivots
        assert revived._build_args == original._build_args

    def test_augmented_data_survives(self, setup):
        network, original, path = setup
        _net, revived = attach(path)
        for pid in network.poi_ids():
            a = original.road_index.augmented(pid)
            b = revived.road_index.augmented(pid)
            assert a.sup_keywords == b.sup_keywords
            assert a.sub_keywords == b.sub_keywords
            assert a.pivot_dists == pytest.approx(b.pivot_dists)

    def test_topk_and_metrics_work_on_revived(self, setup):
        _network, _, path = setup
        _net, revived = attach(path)
        query = GPSSNQuery(
            query_user=0, tau=2, gamma=0.5, theta=0.2,
            metric=InterestMetric.COSINE,
        )
        answers, _ = revived.answer_topk(query, 3)
        assert isinstance(answers, list)


class TestValidation:
    def test_mutated_network_rejected(self, setup):
        _network, _processor, path = setup
        attached, revived = attach(path)
        from repro import NetworkPosition, POI

        u, v, _length = next(iter(attached.road.edges()))
        position = NetworkPosition(u, v, 0.0)
        attached.add_poi(POI(
            9000, attached.road.position_coords(position), position,
            frozenset({0}),
        ))
        with pytest.raises(IndexStateError, match="network changed"):
            revived.answer(GPSSNQuery(query_user=0, tau=3))

    def test_wrong_format_rejected(self, tmp_path):
        """A JSON index store (the retired persistence format) is not an
        arena and fails with the typed arena error."""
        path = tmp_path / "indexes.json"
        path.write_text('{"format": "gpssn-index-store", "version": 1}')
        with pytest.raises(SnapshotFormatError, match="bad magic"):
            FrozenSnapshot.open(path)
