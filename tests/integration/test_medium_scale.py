"""Medium-scale smoke: the pipeline stays healthy beyond test sizes."""

import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.experiments.harness import sample_query_users


@pytest.mark.slow
def test_thousand_user_network():
    network = uni_dataset(
        num_road_vertices=800, num_pois=300, num_users=1000, seed=23
    )
    processor = GPSSNQueryProcessor(network, seed=23)
    assert processor.road_index.columns.size[0] == 300
    assert processor.social_index.columns.size[0] == 1000

    issuers = sample_query_users(network, 3, seed=5)
    found = 0
    for issuer in issuers:
        query = GPSSNQuery(query_user=issuer, tau=4, gamma=0.4, theta=0.4)
        answer, stats = processor.answer(query, max_groups=1500)
        found += answer.found
        assert stats.cpu_time_sec < 30.0
        assert stats.page_accesses < 2000
        # Pruning keeps candidate sets well below the full population.
        assert stats.candidate_users < 700
    # At least one of three default-parameter queries succeeds.
    assert found >= 1
