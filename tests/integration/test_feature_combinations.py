"""Cross-feature combinations: metrics x top-k x sampling x store."""

import pytest

from repro import (
    BaselineProcessor,
    GPSSNQuery,
    GPSSNQueryProcessor,
    InterestMetric,
    uni_dataset,
)


@pytest.fixture(scope="module")
def setup():
    network = uni_dataset(
        num_road_vertices=80, num_pois=24, num_users=36, seed=41
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=2, num_social_pivots=2, seed=41
    )
    return network, processor, BaselineProcessor(network)


class TestMetricTopK:
    @pytest.mark.parametrize(
        "metric,gamma",
        [
            (InterestMetric.COSINE, 0.7),
            (InterestMetric.JACCARD, 0.3),
            (InterestMetric.HAMMING, 0.6),
        ],
    )
    def test_topk_under_alternative_metrics(self, setup, metric, gamma):
        network, processor, baseline = setup
        query = GPSSNQuery(
            query_user=0, tau=2, gamma=gamma, theta=0.2, radius=3.0,
            metric=metric,
        )
        indexed, _ = processor.answer_topk(query, 3)
        exact, _ = baseline.answer_topk(query, 3)
        assert [round(a.max_distance, 9) for a in indexed] == [
            round(a.max_distance, 9) for a in exact
        ]


class TestMetricSampling:
    def test_sampled_answers_respect_metric(self, setup):
        from repro.core.metrics import MetricScorer

        network, processor, _ = setup
        metric = InterestMetric.COSINE
        gamma = 0.75
        query = GPSSNQuery(
            query_user=0, tau=3, gamma=gamma, theta=0.2, radius=3.0,
            metric=metric,
        )
        answer, _ = processor.answer_sampled(query, num_samples=40, seed=2)
        if not answer.found:
            return
        scorer = MetricScorer(metric)
        users = sorted(answer.users)
        for i, a in enumerate(users):
            for b in users[i + 1:]:
                assert scorer.score(
                    network.social.user(a).interests,
                    network.social.user(b).interests,
                ) >= gamma - 1e-9


class TestStoreWithToggles:
    def test_revived_processor_honours_toggles(self, setup, tmp_path):
        from repro import PruningToggles
        from repro.io import FrozenSnapshot, freeze

        network, processor, _ = setup
        path = tmp_path / "net.gpsnap"
        freeze(network, path, processor=processor)
        _net, revived = FrozenSnapshot.open(path).attach(
            toggles=PruningToggles(interest=False)
        )
        query = GPSSNQuery(query_user=1, tau=2, gamma=0.4, theta=0.2)
        a, stats_on = processor.answer(query)
        b, stats_off = revived.answer(query)
        assert a.found == b.found
        if a.found:
            assert a.max_distance == pytest.approx(b.max_distance)
        # The toggle actually took effect: no interest pruning counted.
        assert stats_off.pruning.social_pruned_by_interest == 0


class TestDriverDeterminism:
    def test_figure_drivers_deterministic(self):
        from repro.experiments.figures import fig7d_pair_pruning
        from repro.experiments.harness import ExperimentScale

        scale = ExperimentScale(
            road_vertices=80, num_pois=30, num_users=80, max_groups=200
        )
        a = fig7d_pair_pruning(scale, num_queries=2, seed=5)
        b = fig7d_pair_pruning(scale, num_queries=2, seed=5)
        assert a == b
