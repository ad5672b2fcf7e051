"""Unit and property tests for the alternative interest metrics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.metrics import InterestMetric, MetricScorer, support
from repro.exceptions import InvalidParameterError
from repro.geometry import MBR

vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=4, max_size=4,
).map(np.asarray)

ALL_METRICS = list(InterestMetric)


class TestSupport:
    def test_threshold_boundary(self):
        w = np.asarray([0.05, 0.1, 0.5, 0.0])
        assert support(w, 0.1) == frozenset({1, 2})

    def test_empty_support(self):
        assert support(np.zeros(3), 0.1) == frozenset()


class TestScores:
    def test_dot_matches_eq1(self):
        scorer = MetricScorer(InterestMetric.DOT)
        a = np.asarray([0.7, 0.3, 0.7])
        b = np.asarray([0.2, 0.9, 0.3])
        assert scorer.score(a, b) == pytest.approx(0.62)

    def test_cosine_of_identical_is_one(self):
        scorer = MetricScorer(InterestMetric.COSINE)
        v = np.asarray([0.3, 0.4, 0.0])
        assert scorer.score(v, v) == pytest.approx(1.0)

    def test_cosine_zero_vector(self):
        scorer = MetricScorer(InterestMetric.COSINE)
        assert scorer.score(np.zeros(3), np.ones(3)) == 0.0

    def test_cosine_never_exceeds_one(self):
        """A norm that underflows must not lift a cosine past 1, in
        either scoring path."""
        scorer = MetricScorer(InterestMetric.COSINE)
        a = np.asarray([1.0])
        b = np.asarray([1.5063e-160])
        assert scorer.score(a, b) == 1.0
        assert scorer.score(b, a) == 1.0
        scores = scorer.pairwise_matrix(np.stack([a, b]))
        assert scores.max() == 1.0

    def test_jaccard_known_value(self):
        scorer = MetricScorer(InterestMetric.JACCARD, binarize_threshold=0.5)
        a = np.asarray([0.9, 0.9, 0.0, 0.0])
        b = np.asarray([0.9, 0.0, 0.9, 0.0])
        assert scorer.score(a, b) == pytest.approx(1 / 3)

    def test_jaccard_both_empty_supports(self):
        scorer = MetricScorer(InterestMetric.JACCARD, binarize_threshold=0.5)
        assert scorer.score(np.zeros(3), np.zeros(3)) == 0.0

    def test_hamming_known_value(self):
        scorer = MetricScorer(InterestMetric.HAMMING, binarize_threshold=0.5)
        a = np.asarray([0.9, 0.9, 0.0, 0.0])
        b = np.asarray([0.9, 0.0, 0.9, 0.0])
        assert scorer.score(a, b) == pytest.approx(1.0 - 2 / 4)

    def test_shape_mismatch_rejected(self):
        scorer = MetricScorer(InterestMetric.DOT)
        with pytest.raises(InvalidParameterError):
            scorer.score(np.zeros(3), np.zeros(4))

    def test_bad_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            MetricScorer(InterestMetric.JACCARD, binarize_threshold=0.0)

    def test_bad_metric_rejected(self):
        with pytest.raises(InvalidParameterError):
            MetricScorer("not-a-metric")

    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(a=vectors, b=vectors)
    def test_symmetry(self, metric, a, b):
        scorer = MetricScorer(metric)
        assert scorer.score(a, b) == pytest.approx(scorer.score(b, a))

    @pytest.mark.parametrize(
        "metric",
        [InterestMetric.COSINE, InterestMetric.JACCARD, InterestMetric.HAMMING],
    )
    @given(a=vectors, b=vectors)
    def test_normalized_metrics_bounded(self, metric, a, b):
        scorer = MetricScorer(metric)
        assert -1e-9 <= scorer.score(a, b) <= 1.0 + 1e-9


class TestPairwiseMatrix:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_matrix_matches_scalar_scores(self, metric):
        rng = np.random.default_rng(0)
        matrix = rng.random((6, 4))
        scorer = MetricScorer(metric)
        scores = scorer.pairwise_matrix(matrix)
        for i in range(6):
            for j in range(6):
                assert scores[i, j] == pytest.approx(
                    scorer.score(matrix[i], matrix[j]), abs=1e-9
                )

    @pytest.mark.parametrize(
        "metric", [InterestMetric.JACCARD, InterestMetric.HAMMING]
    )
    def test_set_metric_matrix_is_bitwise_exact(self, metric):
        """Set metrics count overlaps exactly, so every entry equals the
        scalar score bit for bit (empty supports included)."""
        rng = np.random.default_rng(1)
        matrix = rng.random((40, 7)) * (rng.random((40, 7)) < 0.5)
        matrix[0] = 0.0
        matrix[1] = 0.05  # below the binarize threshold: empty support
        scorer = MetricScorer(metric)
        scores = scorer.pairwise_matrix(matrix)
        for i in range(len(matrix)):
            for j in range(len(matrix)):
                assert scores[i, j] == scorer.score(matrix[i], matrix[j])


    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_row_subset_scores_rows_against_all(self, metric):
        """``rows`` scores just those vectors against the whole stack;
        set-metric entries stay bitwise equal to ``score``."""
        rng = np.random.default_rng(2)
        matrix = rng.random((9, 5)) * (rng.random((9, 5)) < 0.6)
        matrix[4] = 0.0
        scorer = MetricScorer(metric)
        rows = [7, 0, 4]
        scores = scorer.pairwise_matrix(matrix, rows)
        assert scores.shape == (3, 9)
        for r, i in enumerate(rows):
            for j in range(9):
                exact = scorer.score(matrix[i], matrix[j])
                if metric in (InterestMetric.JACCARD, InterestMetric.HAMMING):
                    assert scores[r, j] == exact
                else:
                    assert scores[r, j] == pytest.approx(exact, abs=1e-9)


class TestBoxUpperBounds:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @given(anchor=vectors, low=vectors, spread=vectors)
    def test_ub_over_box_sound(self, metric, anchor, low, spread):
        """The generalized Lemma-8 soundness: the bound dominates the
        score of every vector inside the box."""
        scorer = MetricScorer(metric)
        high = np.minimum(low + spread, 1.0)
        low = np.minimum(low, high)
        box = MBR(list(low), list(high))
        ub = scorer.ub_over_box(box, anchor)
        rng = np.random.default_rng(0)
        for _ in range(12):
            x = low + rng.random(4) * (high - low)
            assert scorer.score(x, anchor) <= ub + 1e-9

    def test_node_prunable_boundary(self):
        scorer = MetricScorer(InterestMetric.DOT)
        box = MBR([0.0, 0.0], [0.4, 0.4])
        anchor = np.asarray([0.5, 0.5])
        # max dot over box = 0.4: prunable at gamma 0.5, not at 0.3.
        assert scorer.node_prunable(box, anchor, 0.5)
        assert not scorer.node_prunable(box, anchor, 0.3)


def _hamming_ub_loop(box, anchor, threshold):
    """The pre-vectorization per-topic loop, kept as the reference."""
    d = anchor.shape[0]
    if d == 0:
        return 0.0
    forced_diff = 0
    for f in range(d):
        in_anchor = anchor[f] >= threshold
        if in_anchor and box.high[f] < threshold:
            forced_diff += 1
        elif not in_anchor and box.low[f] >= threshold:
            forced_diff += 1
    return 1.0 - forced_diff / d


class TestHammingVectorization:
    """The numpy-mask HAMMING bound must equal the scalar loop exactly."""

    @given(anchor=vectors, low=vectors, spread=vectors)
    def test_identical_to_loop(self, anchor, low, spread):
        high = np.minimum(low + spread, 1.0)
        low = np.minimum(low, high)
        box = MBR(list(low), list(high))
        for threshold in (0.05, 0.1, 0.5, 1.0):
            scorer = MetricScorer(
                InterestMetric.HAMMING, binarize_threshold=threshold
            )
            assert scorer.ub_over_box(box, anchor) == _hamming_ub_loop(
                box, anchor, threshold
            )

    def test_threshold_boundaries_exact(self):
        # Values sitting exactly on the binarize threshold exercise the
        # >=/< asymmetry of both implementations.
        t = 0.5
        scorer = MetricScorer(InterestMetric.HAMMING, binarize_threshold=t)
        anchor = np.asarray([0.5, 0.5, 0.0, 0.0])
        box = MBR([0.0, 0.5, 0.5, 0.0], [0.4, 0.5, 0.9, 0.4])
        got = scorer.ub_over_box(box, anchor)
        # topic 0: anchor has it, high 0.4 < t  -> forced diff
        # topic 1: anchor has it, high 0.5 >= t -> matchable
        # topic 2: anchor lacks it, low 0.5 >= t -> forced diff
        # topic 3: anchor lacks it, low 0 < t   -> matchable
        assert got == pytest.approx(1.0 - 2 / 4)
        assert got == _hamming_ub_loop(box, anchor, t)

    def test_zero_dimension(self):
        scorer = MetricScorer(InterestMetric.HAMMING)
        box = MBR([], [])
        assert scorer.ub_over_box(box, np.asarray([])) == 0.0
