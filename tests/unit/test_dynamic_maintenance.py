"""Unit tests for incremental index maintenance exactness.

The parity property suite checks end-to-end answer bytes; these tests
pin the per-structure contracts the proofs lean on: exact R*-tree
material after POI churn, exact pivot maps after friendship flips,
and widen-then-compact social bounds.
"""

import pytest

from repro import GPSSNQueryProcessor, uni_dataset
from repro.dynamic import DynamicIndexMaintainer, synthesize_mutations
from repro.index.pivots import SocialPivotIndex


@pytest.fixture()
def setup():
    network = uni_dataset(
        num_road_vertices=60, num_pois=14, num_users=20, seed=14
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=2, num_social_pivots=2, seed=14
    )
    return network, processor


def churn(processor, count=60, seed=21, **kwargs):
    maintainer = DynamicIndexMaintainer(processor, **kwargs)
    maintainer.apply_all(
        synthesize_mutations(processor.network, count, seed=seed)
    )
    maintainer.flush()
    return maintainer


class TestRoadIndexExactness:
    def test_augmented_material_matches_fresh_build(self, setup):
        network, processor = setup
        churn(processor)
        fresh = GPSSNQueryProcessor(
            network, num_road_pivots=2, num_social_pivots=2, seed=14
        )
        # Road pivots depend only on the (untouched) road graph + seed,
        # so the per-POI material is directly comparable.
        assert processor.road_pivots.pivots == fresh.road_pivots.pivots
        assert sorted(network.poi_ids()) == sorted(
            processor.road_index._augmented
        )
        for pid in network.poi_ids():
            kept = processor.road_index.augmented(pid)
            want = fresh.road_index.augmented(pid)
            assert kept.sup_keywords == want.sup_keywords, pid
            assert kept.sub_keywords == want.sub_keywords, pid
            assert sorted(kept.region_2rmax) == sorted(want.region_2rmax), pid
            assert kept.pivot_dists == pytest.approx(want.pivot_dists)

    def test_refreeze_only_after_poi_churn(self, setup):
        network, processor = setup
        maintainer = DynamicIndexMaintainer(processor)
        assert processor.road_index.refreeze_if_dirty() is False
        log = synthesize_mutations(network, 40, seed=3)
        poi_ops = [m for m in log if m.op in ("add_poi", "remove_poi")]
        maintainer.apply(poi_ops[0])
        assert processor.road_index.refreeze_if_dirty() is True
        assert processor.road_index.refreeze_if_dirty() is False


class TestSocialPivotExactness:
    def test_maps_exact_after_friendship_flips(self, setup):
        network, processor = setup
        churn(processor)
        pivots = processor.social_pivots
        exact = SocialPivotIndex(network.social, pivots.pivots)
        for uid in network.social.user_ids():
            assert pivots.distances(uid) == exact.distances(uid), uid

    def test_recompute_reports_exactly_the_moved_users(self, setup):
        """The maintainer re-widens only the users ``recompute`` names,
        so that set must hold every user whose pivot row moved."""
        network, processor = setup
        pivots = processor.social_pivots
        inner = pivots.recompute
        calls = []

        def recording(indices):
            users = list(network.social.user_ids())
            before = {uid: pivots.distances(uid) for uid in users}
            changed = inner(indices)
            moved = {
                uid for uid in users if pivots.distances(uid) != before[uid]
            }
            calls.append((changed, moved))
            return changed

        pivots.recompute = recording
        churn(processor)
        assert calls
        for changed, moved in calls:
            assert changed == moved
        columns = processor.social_index.columns
        for uid in network.social.user_ids():
            stored = columns.user_social[columns.slot_of[uid]].tolist()
            assert stored == pivots.distances(uid), uid

    def test_same_level_edge_flip_refreshes_nothing(self, setup):
        network, processor = setup
        pivots = processor.social_pivots
        pivot = pivots.pivots[0]
        levels = network.social.hop_distances_from(pivot)
        same_level = [
            (a, b)
            for a in network.social.user_ids()
            for b in network.social.user_ids()
            if a < b and not network.social.are_friends(a, b)
            and levels.get(a) is not None and levels.get(a) == levels.get(b)
        ]
        if not same_level:
            pytest.skip("no same-level non-edge in this graph")
        a, b = same_level[0]
        # Adding an edge between equal BFS levels cannot shorten any
        # path from that pivot.
        assert 0 not in pivots.plan_edge_change(a, b, removing=False)


class TestSocialIndexCompaction:
    def test_widen_then_compact_restores_exact_bounds(self, setup):
        network, processor = setup
        # A huge threshold keeps flush() from compacting mid-stream, so
        # the stream's full slack is still pending here.
        churn(processor, slack_threshold=10_000)
        social = processor.social_index
        assert social.bound_slack > 0
        social.compact()
        social.check_containment()  # admissibility invariant intact
        assert social.bound_slack == 0
        assert social.compact() == 0  # exact bounds are a fixpoint

    def test_flush_compacts_at_threshold(self, setup):
        network, processor = setup
        maintainer = churn(processor, slack_threshold=1)
        assert maintainer.compactions > 0
        assert processor.social_index.bound_slack == 0
