"""Integration tests for the processor's public API and statistics."""


import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor
from repro.exceptions import InvalidParameterError, UnknownEntityError


class TestAPI:
    def test_unknown_query_user_raises(self, small_processor):
        with pytest.raises(UnknownEntityError):
            small_processor.answer(GPSSNQuery(query_user=999999))

    def test_radius_outside_envelope_raises(self, small_processor):
        with pytest.raises(InvalidParameterError):
            small_processor.answer(
                GPSSNQuery(query_user=0, radius=100.0)
            )

    def test_repeated_queries_are_deterministic(self, small_processor):
        query = GPSSNQuery(query_user=0, tau=3, gamma=0.2, theta=0.3, radius=2.0)
        a1, _ = small_processor.answer(query)
        a2, _ = small_processor.answer(query)
        assert a1.found == a2.found
        if a1.found:
            assert a1.max_distance == a2.max_distance
            assert a1.users == a2.users
            assert a1.pois == a2.pois

    def test_prebuilt_pivots_accepted(self, small_uni):
        import numpy as np

        from repro.index.pivots import (
            select_pivots_road,
            select_pivots_social,
        )

        rng = np.random.default_rng(0)
        rp = select_pivots_road(small_uni.distances.engine, 2, rng)
        sp = select_pivots_social(small_uni.social, 2, rng)
        processor = GPSSNQueryProcessor(
            small_uni, road_pivots=rp, social_pivots=sp, seed=0
        )
        assert processor.road_pivots is rp
        assert processor.social_pivots is sp


class TestStatistics:
    def test_io_resets_between_queries(self, small_processor):
        query = GPSSNQuery(query_user=0, tau=2, gamma=0.2, theta=0.3, radius=2.0)
        _, s1 = small_processor.answer(query)
        _, s2 = small_processor.answer(query)
        assert s1.page_accesses == s2.page_accesses
        assert s1.page_accesses > 0

    def test_counters_bounded_by_totals(self, small_processor, small_uni):
        query = GPSSNQuery(query_user=1, tau=3, gamma=0.4, theta=0.4, radius=2.0)
        _, stats = small_processor.answer(query)
        p = stats.pruning
        assert p.total_users == small_uni.social.num_users
        assert p.total_pois == small_uni.num_pois
        assert p.social_index_pruned + p.social_object_pruned <= p.total_users
        assert p.road_index_pruned + p.road_object_pruned <= p.total_pois
        assert 0.0 <= p.pair_pruning_power() <= 1.0

    def test_cpu_time_positive(self, small_processor):
        query = GPSSNQuery(query_user=2, tau=2, gamma=0.2, theta=0.2, radius=2.0)
        _, stats = small_processor.answer(query)
        assert stats.cpu_time_sec > 0

    def test_max_groups_caps_refinement(self, small_processor):
        query = GPSSNQuery(query_user=0, tau=3, gamma=0.0, theta=0.0, radius=2.0)
        _, capped = small_processor.answer(query, max_groups=2)
        assert capped.groups_refined <= 2
