"""Unit tests for the observability layer (tracer, registry, exporters)."""

import dataclasses
import inspect
import io
import json
import math
import pickle
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import PruningCounters, QueryStatistics
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullTracer,
    Recorder,
    Tracer,
    aggregate_spans,
    format_stats_line,
    phase_table,
    prometheus_text,
    spans_to_jsonl,
    write_trace_jsonl,
)
from repro.obs.registry import ALPHA


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_durations_are_positive_and_nested(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration >= 0.002
        assert outer.duration >= inner.duration

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set(candidates=7, dataset="UNI")
        assert tracer.roots[0].attributes == {"candidates": 7, "dataset": "UNI"}

    def test_child_totals_aggregates_by_name(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("phase"):
                pass
            with tracer.span("phase"):
                pass
            with tracer.span("other"):
                pass
        totals = tracer.roots[0].child_totals()
        assert set(totals) == {"phase", "other"}
        assert totals["phase"] >= 0.0

    def test_clear_refuses_open_spans(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(RuntimeError):
            tracer.clear()
        span.__exit__(None, None, None)
        tracer.clear()
        assert tracer.roots == []

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything") as span:
            span.set(ignored=True)
        assert list(tracer.iter_spans()) == []
        assert tracer.roots == ()
        assert span.child_totals() == {}
        assert not tracer.active

    def test_null_tracer_returns_shared_span(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_threads_keep_independent_stacks(self):
        """Spans opened concurrently from several threads nest within
        their own thread's stack; finished roots land on the shared
        forest without corruption."""
        tracer = Tracer()
        errors = []

        def work(tid):
            try:
                for _ in range(25):
                    with tracer.span(f"t{tid}"):
                        with tracer.span(f"t{tid}.inner"):
                            pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(tracer.roots) == 4 * 25
        for root in tracer.roots:
            # Nesting never crossed threads: each root holds exactly its
            # own thread's inner span.
            assert [c.name for c in root.children] == [root.name + ".inner"]

    def test_reentrant_nesting_same_thread(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("mid"):  # same name, deeper level
                    pass
        root = tracer.roots[0]
        assert root.children[0].name == "mid"
        assert root.children[0].children[0].name == "mid"

    def test_clear_only_checks_calling_threads_stack(self):
        tracer = Tracer()
        with tracer.span("done"):
            pass
        # Another thread's finished work must not block this clear.
        t = threading.Thread(target=lambda: tracer.span("x").__enter__())
        t.start()
        t.join()
        with pytest.raises(RuntimeError):
            # ... but the calling thread's own open span does.
            span = tracer.span("open")
            span.__enter__()
            try:
                tracer.clear()
            finally:
                span.__exit__(None, None, None)
        tracer.clear()
        assert tracer.roots == []

    def test_aggregate_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("query"):
                with tracer.span("work"):
                    pass
        stats = aggregate_spans(tracer.roots, relative_to="query")
        assert stats["query"]["count"] == 3
        assert stats["work"]["count"] == 3
        assert stats["query"]["share"] == pytest.approx(1.0)
        assert 0.0 <= stats["work"]["share"] <= 1.0
        assert stats["work"]["total_sec"] <= stats["query"]["total_sec"]


def _nearest_rank(values, p):
    """The exact nearest-rank percentile the histogram approximates."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _within_alpha(estimate, exact):
    # 1e-9 absorbs float rounding at a bucket boundary, where the
    # error is exactly ALPHA.
    return abs(estimate - exact) <= ALPHA * exact * (1 + 1e-9)


class TestHistogram:
    def test_percentiles_on_known_values(self):
        hist = Histogram()
        for v in range(1, 101):  # 1..100
            hist.observe(v)
        assert hist.count == 100
        assert hist.p50 == pytest.approx(50, rel=ALPHA)
        assert hist.p95 == pytest.approx(95, rel=ALPHA)
        assert hist.max == 100
        assert hist.min == 1
        assert hist.mean == pytest.approx(50.5)

    def test_empty_histogram(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.p50 == 0.0
        assert hist.p95 == 0.0
        assert hist.max == 0.0
        assert hist.mean == 0.0

    def test_single_value(self):
        hist = Histogram()
        hist.observe(42.0)
        assert hist.p50 == 42.0
        assert hist.p95 == 42.0

    def test_all_equal_values_exact(self):
        hist = Histogram()
        for _ in range(1000):
            hist.observe(0.123)
        stats = hist.stats()
        assert (stats.p50, stats.p95, stats.p99, stats.max) == (0.123,) * 4

    def test_invalid_percentile(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_non_finite_value_rejected(self):
        hist = Histogram()
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                hist.observe(bad)
        assert hist.count == 0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e300, allow_subnormal=False),
        ),
        min_size=1, max_size=300,
    ))
    def test_quantiles_within_alpha_of_nearest_rank(self, values):
        hist = Histogram()
        for v in values:
            hist.observe(v)
        stats = hist.stats()
        for p, estimate in ((50, stats.p50), (95, stats.p95), (99, stats.p99)):
            assert _within_alpha(estimate, _nearest_rank(values, p)), p
        assert stats.count == len(values)
        assert stats.max == max(values)
        assert hist.min == min(values)

    def test_buckets_bound_memory_over_a_million_values(self):
        """A million observations keep exact count/sum/max in a bucket
        count set by the value range, not by the observation count."""
        hist = Histogram()
        n = 1_000_000
        for v in range(n):
            hist.observe(v)
        assert hist.count == n
        assert hist.sum == pytest.approx(n * (n - 1) / 2)
        assert hist.max == n - 1
        assert hist.mean == pytest.approx((n - 1) / 2)
        # One bucket per factor gamma over [1, n), plus the zero bucket.
        gamma = (1 + ALPHA) / (1 - ALPHA)
        assert hist.num_buckets <= math.log(n) / math.log(gamma) + 2
        assert _within_alpha(hist.p50, n // 2 - 1)

    def test_merge_equals_direct_observation(self):
        values = [0.0] + [1.07 ** i for i in range(300)]
        direct = Histogram()
        for v in values:
            direct.observe(v)
        parts = [Histogram() for _ in range(3)]
        for i, v in enumerate(values):
            parts[i % 3].observe(v)
        for order in ((0, 1, 2), (2, 0, 1)):
            merged = Histogram()
            for i in order:
                merged.merge(parts[i])
            stats, want = merged.stats(), direct.stats()
            assert (stats.count, stats.p50, stats.p95, stats.p99, stats.max) \
                == (want.count, want.p50, want.p95, want.p99, want.max)
            assert stats.sum == pytest.approx(want.sum, rel=1e-12)

    def test_pickles_without_its_lock(self):
        hist = Histogram()
        for v in (0.0, 1.0, 2.5, 40.0):
            hist.observe(v)
        clone = pickle.loads(pickle.dumps(hist))
        assert clone.stats() == hist.stats()
        clone.observe(1.0)  # the clone has a working lock of its own
        assert clone.count == hist.count + 1


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_gauges_keep_last_value(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.5)
        reg.set_gauge("g", 2.5)
        assert reg.gauges["g"] == 2.5

    def test_histograms_created_on_demand(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        reg.observe("h", 3.0)
        assert reg.histograms["h"].count == 2

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("h", 1.0)
        reg.set_gauge("g", 1.0)
        reg.reset()
        assert not reg.counters and not reg.gauges and not reg.histograms

    def test_as_dict_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set_gauge("g", 0.5)
        reg.observe("h", 1.0)
        snapshot = json.loads(json.dumps(reg.as_dict()))
        assert snapshot["counters"]["c"] == 2
        assert snapshot["histograms"]["h"]["count"] == 1


class TestRecorder:
    def test_default_recorder_is_untraced_but_metered(self):
        rec = Recorder()
        assert not rec.active
        assert isinstance(rec.metrics, MetricsRegistry)

    def test_traced_recorder(self):
        rec = Recorder.traced()
        assert rec.active
        with rec.span("s"):
            pass
        assert [r.name for r in rec.tracer.roots] == ["s"]

    def test_record_query_absorbs_pruning_counters_verbatim(self):
        rec = Recorder()
        stats = QueryStatistics(
            cpu_time_sec=0.25,
            page_accesses=17,
            pruning=PruningCounters(
                social_index_pruned=5,
                social_object_pruned=3,
                road_index_pruned=11,
                total_users=100,
                total_pois=50,
                candidate_pairs_examined=9,
            ),
            candidate_users=4,
            candidate_pois=6,
            groups_refined=2,
            dijkstra_searches=8,
            dijkstra_cache_hits=20,
        )
        rec.record_query(stats)
        m = rec.metrics
        assert m.counter("query.count") == 1
        assert m.counter("pruning.social_index_pruned") == 5
        assert m.counter("pruning.social_object_pruned") == 3
        assert m.counter("pruning.road_index_pruned") == 11
        assert m.counter("pruning.total_users") == 100
        assert m.counter("pruning.candidate_pairs_examined") == 9
        assert m.counter("dijkstra.searches") == 8
        assert m.counter("dijkstra.cache_hits") == 20
        assert m.histograms["query.cpu_time_sec"].max == 0.25
        assert m.histograms["query.page_accesses"].max == 17

    def test_record_query_accumulates_across_queries(self):
        rec = Recorder()
        for _ in range(3):
            stats = QueryStatistics(
                pruning=PruningCounters(social_index_pruned=2)
            )
            rec.record_query(stats)
        assert rec.metrics.counter("query.count") == 3
        assert rec.metrics.counter("pruning.social_index_pruned") == 6


class TestExporters:
    def _forest(self):
        tracer = Tracer()
        with tracer.span("query") as q:
            q.set(dataset="UNI")
            with tracer.span("traverse"):
                pass
            with tracer.span("refine"):
                pass
        return tracer.roots

    def test_jsonl_is_valid_and_linked(self):
        roots = self._forest()
        lines = spans_to_jsonl(roots)
        records = [json.loads(line) for line in lines]
        assert len(records) == 3
        root = records[0]
        assert root["parent"] is None
        assert root["name"] == "query"
        assert root["attrs"] == {"dataset": "UNI"}
        by_id = {r["id"]: r for r in records}
        for rec in records[1:]:
            assert rec["parent"] in by_id
            parent = by_id[rec["parent"]]
            # children start inside the parent's interval
            assert rec["start"] >= parent["start"]
            assert rec["duration"] <= parent["duration"] + 1e-6

    def test_jsonl_roundtrip_through_file(self, tmp_path):
        roots = self._forest()
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(roots, str(path))
        assert count == 3
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["name"] for r in loaded] == ["query", "traverse", "refine"]

    def test_write_to_file_object(self):
        buf = io.StringIO()
        write_trace_jsonl(self._forest(), buf)
        assert buf.getvalue().count("\n") == 3

    def test_empty_forest(self):
        assert spans_to_jsonl([]) == []
        buf = io.StringIO()
        assert write_trace_jsonl([], buf) == 0
        assert buf.getvalue() == ""

    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        reg.inc("pruning.social_index_pruned", 12)
        reg.set_gauge("index.height", 3)
        reg.observe("query.cpu_time_sec", 0.5)
        reg.observe("query.cpu_time_sec", 1.5)
        text = prometheus_text(reg)
        assert "# TYPE gpssn_pruning_social_index_pruned counter" in text
        assert "gpssn_pruning_social_index_pruned 12" in text
        assert "# TYPE gpssn_index_height gauge" in text
        assert 'gpssn_query_cpu_time_sec{quantile="0.5"}' in text
        assert "gpssn_query_cpu_time_sec_count 2" in text
        assert "gpssn_query_cpu_time_sec_sum 2" in text

    def test_prometheus_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_phase_table_lists_every_phase(self):
        table = phase_table(self._forest())
        assert "query" in table
        assert "traverse" in table
        assert "refine" in table
        assert "share" in table
        assert "100.0%" in table  # the query row relative to itself

    def test_format_stats_line(self):
        stats = QueryStatistics(
            cpu_time_sec=0.0123, page_accesses=45, groups_refined=6
        )
        line = format_stats_line(stats)
        assert line == "[cpu 12.3 ms, 45 page accesses, 6 groups refined]"


class TestPrometheusGolden:
    def test_exact_exposition_output(self):
        """Golden output: HELP/TYPE headers per family, sorted names,
        summary quantiles, and the _max companion gauge — byte for
        byte."""
        reg = MetricsRegistry()
        reg.inc("query.count", 2)
        reg.set_gauge("index.height", 3)
        reg.observe("query.cpu_time_sec", 1.0)
        expected = "\n".join([
            "# HELP gpssn_query_count Per-query measurement of the GP-SSN pipeline",
            "# TYPE gpssn_query_count counter",
            "gpssn_query_count 2",
            "# HELP gpssn_index_height GP-SSN metric",
            "# TYPE gpssn_index_height gauge",
            "gpssn_index_height 3",
            "# HELP gpssn_query_cpu_time_sec Per-query measurement of the GP-SSN pipeline",
            "# TYPE gpssn_query_cpu_time_sec summary",
            'gpssn_query_cpu_time_sec{quantile="0.5"} 1',
            'gpssn_query_cpu_time_sec{quantile="0.95"} 1',
            'gpssn_query_cpu_time_sec{quantile="0.99"} 1',
            "gpssn_query_cpu_time_sec_count 1",
            "gpssn_query_cpu_time_sec_sum 1",
            "# HELP gpssn_query_cpu_time_sec_max Per-query measurement of the GP-SSN pipeline",
            "# TYPE gpssn_query_cpu_time_sec_max gauge",
            "gpssn_query_cpu_time_sec_max 1",
        ]) + "\n"
        assert prometheus_text(reg) == expected

    def test_metric_name_sanitization_consistent(self):
        reg = MetricsRegistry()
        reg.inc("weird name.with-dashes", 1)
        text = prometheus_text(reg)
        # The HELP/TYPE headers carry the same sanitized name as the
        # sample line (no drift between header and body).
        assert "# HELP gpssn_weird_name_with_dashes" in text
        assert "# TYPE gpssn_weird_name_with_dashes counter" in text
        assert "gpssn_weird_name_with_dashes 1" in text

    def test_explain_labels_escaped(self):
        from repro.obs import ExplainRecorder

        reg = MetricsRegistry()
        ex = ExplainRecorder()
        ex.prune('pha"se\n', "rule\\id", 3)
        text = prometheus_text(reg, explain=ex)
        assert (
            'gpssn_explain_pruned_total{phase="pha\\"se\\n"'
            ',rule="rule\\\\id"} 3'
        ) in text
        assert "# TYPE gpssn_explain_pruned_total counter" in text

    def test_inactive_explain_emits_no_funnel_lines(self):
        from repro.obs import NULL_EXPLAIN

        reg = MetricsRegistry()
        reg.inc("a", 1)
        assert "explain_pruned" not in prometheus_text(
            reg, explain=NULL_EXPLAIN
        )


TRACER_API = sorted(n for n in dir(Tracer) if not n.startswith("_"))
SPAN_API = sorted(n for n in dir(Tracer().span("s")) if not n.startswith("_"))


class TestNullParity:
    """NullTracer/_NullSpan mirror the live API surface exactly, so a
    processor never needs to know which variant it holds."""

    @pytest.mark.parametrize("name", TRACER_API)
    def test_null_tracer_has_attr(self, name):
        assert hasattr(NullTracer, name), name
        real, null = getattr(Tracer, name, None), getattr(NullTracer, name)
        if callable(real) and callable(null):
            assert (
                inspect.signature(real).parameters
                == inspect.signature(null).parameters
            ), name

    @pytest.mark.parametrize("name", SPAN_API)
    def test_null_span_has_attr(self, name):
        null_span = NullTracer().span("x")
        assert hasattr(null_span, name), name

    def test_null_span_behaviour_matches_types(self):
        span = NullTracer().span("x")
        assert span.set(a=1) is span          # chainable like Span.set
        assert span.duration == 0.0
        assert list(span.walk()) == []
        with span as entered:
            assert entered is span

    def test_active_flags_disagree(self):
        assert Tracer.active and not NullTracer.active


class TestMetricsSnapshot:
    def test_snapshot_is_frozen_and_decoupled(self):
        registry = MetricsRegistry()
        registry.inc("a", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 3.0)
        registry.observe_window("w", 0.25)
        snap = registry.snapshot()
        registry.inc("a", 40)
        registry.observe("h", 100.0)
        # The snapshot is a point in time: later writes don't leak in.
        assert snap.counters["a"] == 2
        assert snap.histograms["h"].count == 1
        assert snap.window_totals["w"].count == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            snap.counters = {}

    def test_snapshot_feeds_prometheus_text(self):
        registry = MetricsRegistry()
        registry.inc("service.requests", 3)
        registry.observe_window("http.request_seconds", 0.5)
        text = prometheus_text(registry.snapshot(), uptime_sec=12.5)
        assert "process_uptime_seconds 12.5" in text
        assert "gpssn_service_requests 3" in text
        assert 'gpssn_http_request_seconds{quantile="0.99"} 0.5' in text
        assert "gpssn_http_request_seconds_count 1" in text
        assert "gpssn_http_request_seconds_window_seconds 300" in text

    def test_window_counts_stay_monotone_in_exposition(self):
        clock_now = [0.0]
        registry = MetricsRegistry(window_sec=1.0)
        registry.clock = lambda: clock_now[0]
        for _ in range(3):
            registry.observe_window("w", 1.0)
        clock_now[0] = 100.0  # everything ages out of the window
        snap = registry.snapshot()
        assert snap.windows["w"].count == 0
        # ... but the exported _count/_sum never go backwards.
        text = prometheus_text(snap)
        assert "gpssn_w_count 3" in text

    def test_histogram_stats_shape(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        stats = hist.stats()
        assert (stats.count, stats.sum) == (4, 10.0)
        assert stats.mean == 2.5
        assert stats.p50 == pytest.approx(2.0, rel=ALPHA)
        assert stats.p99 == 4.0  # clamped to the exact max
        assert stats.max == 4.0

    def test_as_dict_includes_windows(self):
        registry = MetricsRegistry()
        registry.observe_window("w", 2.0)
        doc = registry.as_dict()
        assert doc["windows"]["w"]["total_count"] == 1
        json.dumps(doc)  # JSON-serializable
        assert "windows" not in MetricsRegistry().as_dict()
