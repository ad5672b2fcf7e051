"""Unit tests for the cross-process telemetry plane's data layer.

Covers :mod:`repro.obs.delta` (capture/merge/apply of worker metric
deltas, exact histogram merging, funnel absorption) and
:mod:`repro.obs.context` (deterministic head sampling and the picklable
trace context).
"""

import pickle
import random

import pytest

from repro.obs import (
    ExplainRecorder,
    Histogram,
    MetricsDelta,
    MetricsRegistry,
    Recorder,
    TraceContext,
    head_sample,
    split_worker_metric,
)
from repro.obs.delta import WORKER_PREFIX


def _recorder_with_traffic(seed: int = 0) -> Recorder:
    recorder = Recorder(explain=ExplainRecorder())
    m = recorder.metrics
    m.inc("query.count", 3 + seed)
    m.inc("pruning.social_index_pruned", 40 + seed)
    m.set_gauge("snapshot.attach_seconds", 0.01 * (seed + 1))
    for i in range(5):
        m.observe("query.cpu_time_sec", 0.001 * (i + 1 + seed))
    recorder.explain.visit("traverse.social", 10 + seed)
    recorder.explain.prune(
        "traverse.social", "lemma2_social_distance", margin=0.5 + seed
    )
    recorder.explain.survive("traverse.social", 9 + seed)
    return recorder


def _lognormal_recorders(seed: int = 11, workers: int = 3, n: int = 1200):
    """Worker recorders holding disjoint lognormal observations and
    margins, plus every value in the order a serial run sees them."""
    rng = random.Random(seed)
    recorders, values = [], []
    for _ in range(workers):
        recorder = Recorder(explain=ExplainRecorder())
        for _ in range(n):
            value = rng.lognormvariate(-4.0, 1.5)
            values.append(value)
            recorder.metrics.observe("query.cpu_time_sec", value)
            recorder.explain.prune("refine.pairs", "pair.distance", margin=value)
        recorders.append(recorder)
    return recorders, values


def _summary(stats):
    return stats.count, stats.max, stats.p50, stats.p95, stats.p99


class TestSketch:
    def test_capture_ships_exact_moments(self):
        m = Recorder()
        for v in (1.0, 2.0, 3.0, 10.0):
            m.metrics.observe("h", v)
        hist = MetricsDelta.capture(m).histograms["h"]
        assert hist.count == 4
        assert hist.sum == pytest.approx(16.0)
        assert hist.max == 10.0
        assert hist.min == 1.0

    def test_merge_is_exact_in_the_moments(self):
        a, b = Histogram(), Histogram()
        for v in (1, 2, 3):
            a.observe(v)
        for v in (4, 5):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.sum == pytest.approx(15.0)
        assert a.max == 5.0
        assert a.mean == pytest.approx(3.0)

    def test_merge_with_empty_is_identity(self):
        a = Histogram()
        for v in (1, 2, 3):
            a.observe(v)
        before = a.stats()
        a.merge(Histogram())
        empty = Histogram()
        empty.merge(a)
        assert a.stats() == before == empty.stats()

    def test_worker_merged_quantiles_equal_serial(self):
        """Three disjoint worker deltas applied to a parent registry give
        the same summary a serial registry fed every value reports."""
        recorders, values = _lognormal_recorders()
        serial = MetricsRegistry()
        for value in values:
            serial.observe("query.cpu_time_sec", value)
        want = serial.snapshot().histograms["query.cpu_time_sec"]
        deltas = [
            MetricsDelta.capture(r, worker=str(i))
            for i, r in enumerate(recorders)
        ]
        for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
            parent = MetricsRegistry()
            for i in order:
                deltas[i].apply(parent)
            got = parent.snapshot().histograms["query.cpu_time_sec"]
            assert _summary(got) == _summary(want)
            assert got.sum == pytest.approx(want.sum, rel=1e-12)
        merged = MetricsRegistry()
        deltas[2].merge(deltas[0].merge(deltas[1])).apply(merged)
        got = merged.snapshot().histograms["query.cpu_time_sec"]
        assert _summary(got) == _summary(want)

    def test_worker_merged_margins_equal_serial(self):
        recorders, values = _lognormal_recorders(seed=5)
        serial = ExplainRecorder()
        for value in values:
            serial.prune("refine.pairs", "pair.distance", margin=value)
        want = serial.phase("refine.pairs").rules["pair.distance"].margins
        deltas = [MetricsDelta.capture(r) for r in recorders]
        for order in ((0, 1, 2), (1, 0, 2)):
            parent = ExplainRecorder()
            for i in order:
                deltas[i].apply(MetricsRegistry(), explain=parent)
            got = parent.phase("refine.pairs").rules["pair.distance"]
            assert got.pruned == len(values)
            assert _summary(got.margins.stats()) == _summary(want.stats())
            assert got.margins.sum == pytest.approx(want.sum, rel=1e-12)
        via_merge = deltas[0].merge(deltas[1]).merge(deltas[2]).to_explain()
        got = via_merge.phase("refine.pairs").rules["pair.distance"].margins
        assert _summary(got.stats()) == _summary(want.stats())


class TestCaptureApply:
    def test_capture_resets_the_recorder(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(recorder, worker="0")
        assert not delta.empty
        assert recorder.metrics.counters == {}
        assert recorder.metrics.histograms == {}
        assert list(recorder.explain.iter_phases()) == []
        assert MetricsDelta.capture(recorder, worker="0").empty

    def test_apply_reproduces_serial_counts(self):
        recorder = _recorder_with_traffic()
        expected = dict(recorder.metrics.counters)
        delta = MetricsDelta.capture(recorder, worker="w1")
        parent = MetricsRegistry()
        explain = ExplainRecorder()
        delta.apply(parent, explain=explain)
        for name, value in expected.items():
            assert parent.counters[name] == value
            assert parent.counters[f"{WORKER_PREFIX}w1.{name}"] == value
        assert parent.histograms["query.cpu_time_sec"].count == 5
        assert explain.rule_counts() == {"lemma2_social_distance": 1}

    def test_disjoint_captures_sum_exactly(self):
        parent = MetricsRegistry()
        recorder = _recorder_with_traffic()
        MetricsDelta.capture(recorder, worker="0").apply(parent)
        recorder.metrics.inc("query.count", 2)
        MetricsDelta.capture(recorder, worker="0").apply(parent)
        assert parent.counters["query.count"] == 5
        assert parent.counters[f"{WORKER_PREFIX}0.query.count"] == 5

    def test_unlabelled_apply_skips_worker_series(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(recorder, worker="3")
        parent = MetricsRegistry()
        delta.apply(parent, labelled=False)
        assert not any(
            name.startswith(WORKER_PREFIX) for name in parent.counters
        )

    def test_merge_matches_sequential_apply(self):
        r1, r2 = _recorder_with_traffic(0), _recorder_with_traffic(5)
        d1 = MetricsDelta.capture(r1, worker="0")
        d2 = MetricsDelta.capture(r2, worker="0")
        via_merge, via_seq = MetricsRegistry(), MetricsRegistry()
        d1.merge(d2).apply(via_merge)
        d1.apply(via_seq)
        d2.apply(via_seq)
        assert via_merge.counters == via_seq.counters
        for name in via_seq.histograms:
            assert (
                via_merge.histograms[name].count
                == via_seq.histograms[name].count
            )
            assert via_merge.histograms[name].sum == pytest.approx(
                via_seq.histograms[name].sum
            )

    def test_funnel_absorb_adds_exactly(self):
        explain = ExplainRecorder()
        for recorder in (
            _recorder_with_traffic(0), _recorder_with_traffic(1)
        ):
            MetricsDelta.capture(recorder, worker="0").apply(
                MetricsRegistry(), explain=explain
            )
        phases = explain.as_dict()
        funnel = phases["traverse.social"]
        assert funnel["visited"] == 10 + 11
        assert funnel["survived"] == 9 + 10
        rule = funnel["rules"]["lemma2_social_distance"]
        assert rule["pruned"] == 2
        assert rule["margin"]["count"] == 2

    def test_delta_is_picklable(self):
        recorder = _recorder_with_traffic()
        delta = MetricsDelta.capture(
            recorder, worker="pid1",
            trace={"request_id": "req-1", "spans": [], "shard_sec": 0.0},
        )
        clone = pickle.loads(pickle.dumps(delta))
        assert clone.counters == delta.counters
        assert clone.trace["request_id"] == "req-1"


class TestWorkerNames:
    def test_split_roundtrip(self):
        assert split_worker_metric("worker.pid42.query.count") == (
            "query.count", "pid42"
        )
        assert split_worker_metric("query.count") is None
        assert split_worker_metric("worker.") is None
        assert split_worker_metric("worker.x") is None


class TestTraceContext:
    def test_head_sample_deterministic(self):
        decisions = {
            rid: head_sample(rid, 0.5)
            for rid in (f"req-{i}" for i in range(200))
        }
        for rid, decision in decisions.items():
            assert head_sample(rid, 0.5) is decision
        sampled = sum(decisions.values())
        assert 60 <= sampled <= 140  # ~50% of 200, loose bounds

    def test_rate_edges(self):
        assert head_sample("anything", 0.0) is False
        assert head_sample("anything", 1.0) is True

    def test_sampled_force_overrides_rate(self):
        assert TraceContext.sampled("req-x", 0.0) is None
        ctx = TraceContext.sampled("req-x", 0.0, force=True)
        assert ctx is not None and ctx.request_id == "req-x"

    def test_context_pickles(self):
        ctx = TraceContext(request_id="req-y", max_spans=64)
        clone = pickle.loads(pickle.dumps(ctx))
        assert clone == ctx
