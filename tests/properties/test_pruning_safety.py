"""Property: nothing the traversal prunes could have been in the answer.

For random queries on a small network, we compare the candidate sets
the indexed traversal keeps against the exhaustive answer: every user
and every POI of the optimal answer must survive traversal, and the
final objective must match brute force exactly (the strongest form of
pruning safety).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import BaselineProcessor, GPSSNQuery, GPSSNQueryProcessor, zipf_dataset

_NETWORK = zipf_dataset(num_road_vertices=80, num_pois=24, num_users=40, seed=21)
_PROCESSOR = GPSSNQueryProcessor(
    _NETWORK, num_road_pivots=3, num_social_pivots=3, seed=21
)
_BASELINE = BaselineProcessor(_NETWORK)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    uq=st.integers(0, _NETWORK.social.num_users - 1),
    tau=st.integers(2, 4),
    gamma=st.sampled_from([0.0, 0.2, 0.4]),
    theta=st.sampled_from([0.1, 0.3, 0.5]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_traversal_keeps_optimal_answer(uq, tau, gamma, theta, radius):
    query = GPSSNQuery(
        query_user=uq, tau=tau, gamma=gamma, theta=theta, radius=radius
    )
    exact, _ = _BASELINE.answer(query)
    indexed, stats = _PROCESSOR.answer(query)
    assert indexed.found == exact.found
    if exact.found:
        assert indexed.max_distance == pytest.approx(
            exact.max_distance, abs=1e-9
        )


@settings(max_examples=10, deadline=None)
@given(
    uq=st.integers(0, _NETWORK.social.num_users - 1),
    gamma=st.sampled_from([0.0, 0.3]),
)
def test_candidate_users_superset_of_answer_users(uq, gamma):
    query = GPSSNQuery(
        query_user=uq, tau=3, gamma=gamma, theta=0.2, radius=2.0
    )
    exact, _ = _BASELINE.answer(query)
    if not exact.found:
        return
    # Re-run traversal only, inspecting the candidate sets it keeps.
    from repro.core.query import QueryStatistics

    stats = QueryStatistics()
    stats.pruning.total_users = _NETWORK.social.num_users
    stats.pruning.total_pois = _NETWORK.num_pois
    _PROCESSOR.road_index.counter.reset()
    _PROCESSOR.social_index.counter.reset()
    users, pois, _ = _PROCESSOR._traverse(query, stats.pruning)
    kept_users = set(users)
    assert exact.users <= kept_users
