"""Soundness of the generalized Lemma-8 bounds, for all four metrics.

For every metric, ``ub_over_box(box, anchor)`` must dominate
``score(x, anchor)`` for *every* vector ``x`` inside the interest box —
otherwise index-node pruning would discard users that still satisfy the
gamma threshold. We sample many interior points (corners included, since
set metrics are extremized there) across random boxes, anchors,
dimensionalities, and binarize thresholds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.metrics import InterestMetric, MetricScorer
from repro.geometry import MBR

ALL_METRICS = list(InterestMetric)

dims = st.integers(min_value=1, max_value=8)


def _boxes(draw, d):
    low = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=d, max_size=d,
    ))
    spread = draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=d, max_size=d,
    ))
    low = np.asarray(low)
    high = np.minimum(low + np.asarray(spread), 1.0)
    low = np.minimum(low, high)
    return low, high


@st.composite
def box_and_anchor(draw):
    d = draw(dims)
    low, high = _boxes(draw, d)
    anchor = np.asarray(draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=d, max_size=d,
    )))
    threshold = draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9]))
    return MBR(list(low), list(high)), anchor, threshold


def _interior_samples(box, count=24, seed=0):
    """Corners, edge midpoints, and uniform interior points of the box."""
    low = np.asarray(box.low, dtype=float)
    high = np.asarray(box.high, dtype=float)
    d = low.shape[0]
    yield low
    yield high
    yield (low + high) / 2.0
    # Per-axis corner flips: extremize one coordinate at a time (set
    # metrics attain their extrema at such corners).
    for axis in range(d):
        flipped = low.copy()
        flipped[axis] = high[axis]
        yield flipped
        flipped = high.copy()
        flipped[axis] = low[axis]
        yield flipped
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield low + rng.random(d) * (high - low)


class TestBoundDominatesScore:
    @pytest.mark.parametrize("metric", ALL_METRICS)
    @settings(max_examples=60, deadline=None)
    @given(data=box_and_anchor())
    # The anchor's norm underflows: an unclamped COSINE scored 1.0000431.
    @example(data=(MBR([1.0], [1.0]), np.array([1.5063e-160]), 0.1))
    def test_ub_dominates_every_interior_point(self, metric, data):
        box, anchor, threshold = data
        scorer = MetricScorer(metric, binarize_threshold=threshold)
        ub = scorer.ub_over_box(box, anchor)
        for x in _interior_samples(box):
            assert scorer.score(x, anchor) <= ub + 1e-9, (
                f"{metric.value}: score({x}) > ub {ub}"
            )

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_degenerate_point_box_is_tight_enough(self, metric):
        """A zero-volume box contains exactly one vector; the bound must
        still dominate (it need not be tight for set metrics)."""
        scorer = MetricScorer(metric)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.random(5)
            anchor = rng.random(5)
            box = MBR(list(x), list(x))
            assert scorer.score(x, anchor) <= scorer.ub_over_box(
                box, anchor
            ) + 1e-9

    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_node_prunable_never_discards_a_qualifier(self, metric):
        """If any interior vector reaches gamma, the node is not pruned."""
        scorer = MetricScorer(metric)
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            low = rng.random(d)
            high = np.minimum(low + rng.random(d), 1.0)
            anchor = rng.random(d)
            box = MBR(list(low), list(high))
            best = max(
                scorer.score(x, anchor)
                for x in _interior_samples(box, count=8)
            )
            gamma = best  # a qualifier exists at exactly this threshold
            assert not scorer.node_prunable(box, anchor, gamma)
