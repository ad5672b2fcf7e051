"""End-to-end tests for the tracing + metrics layer on real queries."""

import dataclasses
import json
import threading
import time
import urllib.request

import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor
from repro.cli import main
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    run_workload,
    sample_query_users,
)
from repro.obs import Recorder
from repro.service.server import ServerConfig, create_server

QUERY = GPSSNQuery(query_user=0, tau=3, gamma=0.2, theta=0.3, radius=2.0)


@pytest.fixture()
def traced_processor(small_uni):
    return GPSSNQueryProcessor(small_uni, seed=0, recorder=Recorder.traced())


class TestSpanTree:
    def test_query_span_brackets_cpu_time(self, traced_processor):
        """Acceptance criterion: the top-level span durations account for
        the reported ``cpu_time_sec`` (the span wraps the timed region,
        so it is an upper bound, and a tight one)."""
        _, stats = traced_processor.answer(QUERY)
        roots = traced_processor.recorder.tracer.roots
        assert [r.name for r in roots] == ["query"]
        qspan = roots[0]
        assert qspan.duration >= stats.cpu_time_sec
        # No hidden work between the span entry and the timer: the span
        # is at most 20% (plus scheduling slack) wider than the timer.
        assert qspan.duration <= stats.cpu_time_sec * 1.2 + 0.01

    def test_span_hierarchy_matches_pipeline(self, traced_processor):
        answer, _ = traced_processor.answer(QUERY)
        qspan = traced_processor.recorder.tracer.roots[0]
        names = [c.name for c in qspan.children]
        assert names[0] == "traverse"
        assert "refine" in names
        traverse = qspan.children[0]
        sub = {c.name for c in traverse.children}
        assert "traverse.social_pruning" in sub
        assert "traverse.road_sweep" in sub

    def test_children_nest_within_parents(self, traced_processor):
        traced_processor.answer(QUERY)
        for span, _depth in traced_processor.recorder.tracer.iter_spans():
            for child in span.children:
                assert child.start >= span.start
                assert child.end <= span.end + 1e-9
            child_sum = sum(c.duration for c in span.children)
            assert child_sum <= span.duration + 1e-9

    def test_phase_times_recorded_on_stats(self, traced_processor):
        _, stats = traced_processor.answer(QUERY)
        assert "traverse" in stats.phase_times
        assert stats.phase_times["traverse"] > 0.0
        assert sum(stats.phase_times.values()) <= stats.cpu_time_sec + 1e-9

    def test_untraced_processor_has_no_spans_but_keeps_stats(self, small_uni):
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        _, stats = processor.answer(QUERY)
        assert processor.recorder.tracer.roots == ()
        assert stats.phase_times == {}
        assert stats.cpu_time_sec > 0.0


class TestRegistryAbsorption:
    def test_pruning_counters_identical_to_stats(self, small_uni):
        """Acceptance criterion: the registry view of PruningCounters is
        bit-identical to the per-query stats (no semantic drift)."""
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        _, stats = processor.answer(QUERY)
        metrics = processor.recorder.metrics
        for field in dataclasses.fields(stats.pruning):
            assert metrics.counter(f"pruning.{field.name}") == getattr(
                stats.pruning, field.name
            ), field.name

    def test_dijkstra_accounting(self, small_uni):
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        _, s1 = processor.answer(QUERY)
        _, s2 = processor.answer(QUERY)
        # The oracle was consulted (the cache may already be warm from
        # other tests — the oracle is shared per network); a rerun of the
        # same query never needs a fresh search.
        assert s1.dijkstra_searches + s1.dijkstra_cache_hits > 0
        assert s2.dijkstra_searches == 0
        assert s2.dijkstra_cache_hits > 0
        m = processor.recorder.metrics
        assert m.counter("dijkstra.searches") == (
            s1.dijkstra_searches + s2.dijkstra_searches
        )
        assert m.counter("dijkstra.cache_hits") == (
            s1.dijkstra_cache_hits + s2.dijkstra_cache_hits
        )

    def test_query_histograms_grow(self, small_uni):
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        processor.answer(QUERY)
        processor.answer(QUERY)
        m = processor.recorder.metrics
        assert m.counter("query.count") == 2
        assert m.histograms["query.cpu_time_sec"].count == 2
        assert m.histograms["query.page_accesses"].max > 0

    def test_witness_checks_counter(self, small_uni):
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        processor.answer(QUERY)
        # delta-pruning (use_delta) is on by default, so the witness gate
        # ran at least once whenever candidates survived traversal.
        assert processor.recorder.metrics.counter(
            "traverse.witness_checks"
        ) >= 0

    def test_member_bound_counters(self):
        """A capped paper-default UNI query skips prefix scans by the
        member gate; the refinement counters (live groups included) reach
        the enumerate span, the daemon's /metrics and /trace/<id>."""
        network = build_dataset(
            "UNI", ExperimentScale(100, 40, 100), seed=7
        )
        (uid,) = sample_query_users(network, 1, seed=7)
        processor = GPSSNQueryProcessor(
            network, seed=7, recorder=Recorder.traced()
        )
        query = GPSSNQuery(query_user=uid)
        _, stats = processor.answer(query, max_groups=1500)
        metrics = processor.recorder.metrics
        scans = metrics.counter("refine.prefix_scans")
        skips = metrics.counter("refine.member_bound_skips")
        live = metrics.counter("refine.live_groups")
        assert skips > 0
        assert 0 < live < stats.groups_refined
        (espan,) = [
            span for span, _depth in processor.recorder.tracer.iter_spans()
            if span.name == "refine.enumerate"
        ]
        attributes = {
            "prefix_scans": scans, "member_bound_skips": skips,
            "live_groups": live, "group_space": espan.attributes.get(
                "group_space"
            ),
        }
        assert espan.attributes == attributes
        assert query.tau <= attributes["group_space"] <= network.social.num_users

        server = create_server(
            network,
            ServerConfig(
                port=0, backend="serial",
                default_max_groups=1500,
            ),
            build_args={"seed": 7},
        )
        server.service.warm()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            base_url = f"http://{host}:{port}"
            request = urllib.request.Request(
                base_url + "/query", data=f'{{"user": {uid}}}\n'.encode(),
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            with urllib.request.urlopen(base_url + "/metrics") as response:
                exported = {
                    line.split()[0]: float(line.split()[1])
                    for line in response.read().decode().splitlines()
                    if line.startswith("gpssn_refine_")
                }
            request = urllib.request.Request(
                base_url + "/query?trace=1", data=f'{{"user": {uid}}}\n'.encode(),
                method="POST", headers={"X-Request-Id": "req-live-groups"},
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
            with urllib.request.urlopen(
                base_url + "/trace/req-live-groups"
            ) as response:
                spans = json.loads(response.read())["spans"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert exported == {
            "gpssn_refine_prefix_scans": scans,
            "gpssn_refine_member_bound_skips": skips,
            "gpssn_refine_live_groups": live,
            # The daemon's processor built its pair kernel once.
            "gpssn_refine_kernel_builds": 1.0,
        }
        (traced,) = [s for s in spans if s["name"] == "refine.enumerate"]
        assert traced["attrs"] == attributes


class TestHarness:
    def test_run_workload_exposes_phase_breakdown(self, small_processor):
        result = run_workload(
            small_processor, query_users=[0, 1], tau=3, gamma=0.2,
            theta=0.3, radius=2.0,
        )
        assert result.num_queries == 2
        assert "query" in result.phase_times
        assert "traverse" in result.phase_times
        assert result.mean_phase("traverse") > 0.0
        assert result.mean_phase("traverse") <= result.mean_phase("query")
        assert result.metrics is not None
        assert result.metrics.counter("query.count") == 2

    def test_run_workload_restores_processor_recorder(self, small_processor):
        before = small_processor.recorder
        run_workload(
            small_processor, query_users=[0], tau=3, gamma=0.2,
            theta=0.3, radius=2.0,
        )
        assert small_processor.recorder is before


class TestCLI:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs-cli") / "net.json"
        code = main([
            "generate", "--dataset", "UNI",
            "--users", "60", "--pois", "25", "--road-vertices", "60",
            "--seed", "3", "--output", str(path),
        ])
        assert code == 0
        return path

    def test_trace_flag_writes_valid_jsonl(self, bundle, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.2", "--theta", "0.3",
            "--trace", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "page accesses" in out       # stats line unchanged
        assert "per-phase timing" in out.lower() or "share" in out
        records = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert records, "trace file is empty"
        roots = [r for r in records if r["parent"] is None]
        assert [r["name"] for r in roots] == ["query"]
        ids = {r["id"] for r in records}
        assert all(
            r["parent"] in ids for r in records if r["parent"] is not None
        )

    def test_metrics_out_writes_prometheus_text(self, bundle, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.2", "--theta", "0.3",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        text = metrics_path.read_text()
        assert "# TYPE gpssn_query_count counter" in text
        assert "gpssn_pruning_total_users" in text
        assert "gpssn_query_cpu_time_sec_count 1" in text

    def test_query_without_flags_unchanged(self, bundle, tmp_path, capsys):
        code = main([
            "query", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.2", "--theta", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "page accesses" in out
        assert "share" not in out           # no phase table unless traced
        assert not list(tmp_path.iterdir())


class TestOverhead:
    def test_tracing_overhead_under_twenty_percent(self, small_uni):
        """ISSUE guard: an active tracer may not slow a small query by
        more than 20% over the NullTracer (catches accidental per-edge
        work in the hot path). Min-of-reps on a warm oracle cache."""
        plain = GPSSNQueryProcessor(small_uni, seed=0)
        traced = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.traced()
        )

        def min_time(processor, reps=7):
            best = float("inf")
            for _ in range(reps):
                if processor.recorder.active:
                    processor.recorder.tracer.clear()
                start = time.perf_counter()
                processor.answer(QUERY)
                best = min(best, time.perf_counter() - start)
            return best

        min_time(plain, reps=2)   # warm caches before measuring
        min_time(traced, reps=2)
        t_plain = min_time(plain)
        t_traced = min_time(traced)
        # 20% relative budget plus a small absolute slack so sub-ms
        # queries on a noisy box don't flake.
        assert t_traced <= t_plain * 1.2 + 0.002, (
            f"tracing overhead too high: {t_plain:.6f}s -> {t_traced:.6f}s"
        )
