"""Thread-safety of the metrics plane + Prometheus escaping round-trips.

The serve daemon observes metrics from every handler thread while a
scraper reads ``/metrics`` concurrently; these tests hammer the shared
structures from many threads and check nothing is lost or torn.
"""

import threading

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.exporters import (
    _prom_label_value,
    _prom_name,
    prometheus_text,
)

THREADS = 8
PER_THREAD = 500


def _hammer(target):
    """Run ``target(thread_index)`` from THREADS threads, join all."""
    errors = []

    def run(idx):
        try:
            target(idx)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


class TestConcurrentObserve:
    def test_histogram_loses_no_observation(self):
        hist = Histogram()
        _hammer(lambda idx: [
            hist.observe(float(i)) for i in range(PER_THREAD)
        ])
        assert hist.count == THREADS * PER_THREAD
        expected = THREADS * sum(range(PER_THREAD))
        assert hist.sum == pytest.approx(expected)
        assert hist.max == float(PER_THREAD - 1)

    def test_histogram_stats_consistent_under_writes(self):
        hist = Histogram()
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                stats = hist.stats()
                # Torn reads would break count<->sum consistency.
                assert stats.sum == pytest.approx(float(stats.count))
                assert 0.0 <= stats.p50 <= stats.p99 <= 1.0 or stats.count == 0

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            _hammer(lambda idx: [
                hist.observe(1.0) for _ in range(PER_THREAD)
            ])
        finally:
            stop.set()
            reader.join()
        assert hist.count == THREADS * PER_THREAD

    def test_registry_counters_and_windows(self):
        registry = MetricsRegistry()

        def work(idx):
            for i in range(PER_THREAD):
                registry.inc("service.requests")
                registry.inc(f"worker.{idx}.queries")
                registry.observe("query.cpu_time_sec", 0.001)
                registry.observe_window("http.request_seconds", 0.002)

        _hammer(work)
        total = THREADS * PER_THREAD
        assert registry.counter("service.requests") == total
        for idx in range(THREADS):
            assert registry.counter(f"worker.{idx}.queries") == PER_THREAD
        assert registry.histograms["query.cpu_time_sec"].count == total
        snap = registry.snapshot()
        # Every observation reached both the window ring and the
        # lifetime totals (the default window spans the whole test).
        assert snap.windows["http.request_seconds"].count == total
        totals = snap.window_totals["http.request_seconds"]
        assert totals.count == total
        assert totals.sum == pytest.approx(total * 0.002)

    def test_snapshot_while_writing(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def scrape_loop():
            while not stop.is_set():
                snap = registry.snapshot()
                # Counters are monotone; a snapshot may lag but never
                # exceeds what has been written.
                assert snap.counters.get("n", 0.0) <= THREADS * PER_THREAD
                prometheus_text(snap)  # must never raise mid-write

        reader = threading.Thread(target=scrape_loop)
        reader.start()
        try:
            _hammer(lambda idx: [
                registry.inc("n") for _ in range(PER_THREAD)
            ])
        finally:
            stop.set()
            reader.join()
        assert registry.counter("n") == THREADS * PER_THREAD


class TestPrometheusEscaping:
    def test_metric_names_are_sanitized(self):
        assert _prom_name("service.queue_depth") == "gpssn_service_queue_depth"
        assert _prom_name("phase.compute dist") == "gpssn_phase_compute_dist"
        assert _prom_name("a-b/c") == "gpssn_a_b_c"

    @pytest.mark.parametrize("raw,escaped", [
        ('plain', 'plain'),
        ('with "quotes"', 'with \\"quotes\\"'),
        ('back\\slash', 'back\\\\slash'),
        ('line\nbreak', 'line\\nbreak'),
        ('\\"\n', '\\\\\\"\\n'),
    ])
    def test_label_value_escaping_round_trips(self, raw, escaped):
        assert _prom_label_value(raw) == escaped
        # Round-trip: undo the three escapes and recover the original.
        unescaped = (
            escaped.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        )
        assert unescaped == raw

    def test_exposition_with_hostile_rule_names(self):
        from repro.obs import ExplainRecorder

        registry = MetricsRegistry()
        explain = ExplainRecorder()
        explain.visit('phase "x"\n', 2)
        explain.prune('phase "x"\n', 'rule\\one', 2, margin=0.5)
        text = prometheus_text(registry.snapshot(), explain=explain)
        line = next(
            l for l in text.splitlines()
            if l.startswith("gpssn_explain_pruned_total{")
        )
        assert '\n' not in line  # newline escaped, exposition stays line-based
        assert 'phase=\"phase \\"x\\"\\n\"' in line
        assert 'rule=\"rule\\\\one\"' in line
        assert line.endswith(" 2")
