"""Unit tests for the registry's rolling windows (daemon latency stats)."""

import pytest

from repro.obs import Histogram, MetricsRegistry
from repro.obs.registry import ALPHA, WINDOW_SLOTS


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


def _registry(window_sec, clock):
    registry = MetricsRegistry(window_sec=window_sec)
    registry.clock = clock
    return registry


class TestRollingWindow:
    def test_empty_snapshot_is_zero(self):
        clock = FakeClock()
        registry = _registry(10.0, clock)
        registry.observe_window("w", 5.0)
        clock.now = 100.0  # the only observation left the window
        snap = registry.snapshot()
        stats = snap.windows["w"]
        assert stats.count == 0
        assert stats.p50 == 0.0
        assert stats.p99 == 0.0
        assert stats.mean == 0.0
        assert snap.window_totals["w"].count == 1

    def test_percentiles_over_recent_values_only(self):
        clock = FakeClock()
        registry = _registry(10.0, clock)
        registry.observe_window("w", 100.0)  # will age out
        clock.now = 20.0
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe_window("w", v)
        stats = registry.snapshot().windows["w"]
        assert stats.count == 4
        assert stats.max == 4.0  # the 100.0 left the window
        assert stats.p50 == pytest.approx(2.0, rel=ALPHA)
        assert stats.p99 == 4.0

    def test_totals_stay_monotone_across_pruning(self):
        clock = FakeClock()
        registry = _registry(5.0, clock)
        for i in range(10):
            registry.observe_window("w", 1.0)
            clock.now += 2.0
        snap = registry.snapshot()
        # Window keeps only the recent observations ...
        assert snap.windows["w"].count < 10
        # ... but the lifetime totals (the Prometheus _count/_sum) never
        # shrink: a scraper's delta math must not go backwards.
        assert snap.window_totals["w"].count == 10
        assert snap.window_totals["w"].sum == pytest.approx(10.0)

    def test_ring_bounds_memory(self):
        clock = FakeClock()
        registry = _registry(10.0, clock)
        for i in range(1000):
            clock.now = float(i)
            registry.observe_window("w", float(i))
        # One slot per second of a 10 s window: the ring never grows.
        assert len(registry.windows["w"]) == WINDOW_SLOTS
        stats = registry.snapshot().windows["w"]
        assert stats.count == WINDOW_SLOTS  # the last ten seconds only
        assert stats.max == 999.0
        assert stats.p50 >= 990.0 * (1 - ALPHA)
        assert registry.snapshot().window_totals["w"].count == 1000

    def test_window_merges_slots_exactly(self):
        clock = FakeClock()
        registry = _registry(60.0, clock)
        direct = Histogram()
        for i in range(600):
            clock.now = i * 0.1  # spread over every slot of the window
            value = 1.0 + (i * 37 % 101) / 7.0
            registry.observe_window("w", value)
            direct.observe(value)
        stats, want = registry.snapshot().windows["w"], direct.stats()
        assert (stats.count, stats.p50, stats.p95, stats.p99, stats.max) == (
            want.count, want.p50, want.p95, want.p99, want.max
        )

    def test_window_stats_mean(self):
        clock = FakeClock()
        registry = _registry(60.0, clock)
        for v in (1.0, 2.0, 3.0):
            registry.observe_window("w", v)
        assert registry.snapshot().windows["w"].mean == 2.0
