"""Integration tests for the cross-process telemetry plane.

The plane's contract: a worker shard ships a :class:`MetricsDelta`
(metric tallies + funnel + optional span forest) back on its result
envelope, and after the parent applies it the observable surface —
funnel counters, per-worker series, merged traces — is identical no
matter which backend ran the shard. Serial is the ground truth; process
workers must match it exactly in every exact tally.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.harness import ExperimentScale, build_dataset
from repro.obs.delta import WORKER_PREFIX, split_worker_metric
from repro.obs import TraceContext
from repro.service import outcome_lines, parse_query_lines
from repro.service.executor import BatchQueryExecutor, plan_batch
from repro.service.server import (
    GPSSNService,
    ProfilerBusyError,
    ServerConfig,
    create_server,
)

SEED = 7
QUERY_LINES = [
    '{"user": 3}',
    '{"user": 5, "tau": 3}',
    '{"user": 3}',
    '{"user": 8, "gamma": 0.3, "theta": 0.4, "radius": 3.0}',
]


@pytest.fixture(scope="module")
def network():
    scale = ExperimentScale(road_vertices=60, num_pois=20, num_users=40)
    return build_dataset("UNI", scale, seed=SEED)


@pytest.fixture(scope="module")
def entries():
    return parse_query_lines(QUERY_LINES)


def _run_backend(network, entries, backend, workers=2, **overrides):
    """Run the batch on one backend; return the observable surface."""
    config = ServerConfig(
        workers=workers, backend=backend, explain=True,
        timeout_sec=None, **overrides,
    )
    service = GPSSNService(network, config, build_args={"seed": SEED})
    with service:
        result = service.execute(entries, request_id=f"req-{backend}")
        counters = dict(service.registry.counters)
        funnel = {
            name: {
                "visited": doc["visited"],
                "survived": doc["survived"],
                "pruned": doc["pruned"],
            }
            for name, doc in service._explain.as_dict().items()
        }
    return {
        "outcomes": outcome_lines(result.outcomes),
        "counters": counters,
        "funnel": funnel,
    }


@pytest.fixture(scope="module")
def per_backend(network, entries):
    return {
        backend: _run_backend(network, entries, backend)
        for backend in ("serial", "process")
    }


class TestBackendParity:
    """The tentpole invariant: the telemetry plane is backend-blind."""

    def test_outcomes_identical(self, per_backend):
        serial = per_backend["serial"]["outcomes"]
        assert per_backend["process"]["outcomes"] == serial

    def test_pruning_counters_identical(self, per_backend):
        def pruning(surface):
            return {
                name: value
                for name, value in surface["counters"].items()
                if name.startswith("pruning.")
            }

        serial = pruning(per_backend["serial"])
        assert serial  # the plane must ship the funnel tallies at all
        assert pruning(per_backend["process"]) == serial

    def test_explain_funnel_identical(self, per_backend):
        serial = per_backend["serial"]["funnel"]
        assert serial
        assert per_backend["process"]["funnel"] == serial

    def test_worker_series_partition_the_totals(self, per_backend):
        for backend, surface in per_backend.items():
            worker_counts = {
                name: value
                for name, value in surface["counters"].items()
                if split_worker_metric(name)
                and split_worker_metric(name)[0] == "query.count"
            }
            assert worker_counts, backend
            assert sum(worker_counts.values()) == (
                surface["counters"]["query.count"]
            ), backend

    def test_worker_labels_name_the_backend(self, per_backend):
        def labels(surface, metric="query.count"):
            found = set()
            for name in surface["counters"]:
                split = split_worker_metric(name)
                if split and split[0] == metric:
                    found.add(split[1])
            return found

        assert labels(per_backend["serial"]) == {"0"}
        assert all(
            label.startswith("pid")
            for label in labels(per_backend["process"])
        )


class TestMergedTrace:
    def test_process_trace_is_one_tree(self, network, entries):
        config = ServerConfig(
            workers=2, backend="process", explain=True, timeout_sec=None,
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            result = service.execute(
                entries, request_id="req-merged", trace=True
            )
            assert result.traced
            record = service.trace("req-merged")
        assert record is not None
        spans = [json.loads(line) for line in record.span_lines]
        names = {span["name"] for span in spans}
        assert {"request", "queue.wait", "dispatch", "query"} <= names

        by_id = {}
        for span in spans:
            assert span["id"] not in by_id, "duplicate span id"
            if span["parent"] is not None:
                # Parents precede children: any prefix is a valid forest.
                assert span["parent"] in by_id
            by_id[span["id"]] = span
        root = by_id[0]
        assert root["name"] == "request"
        assert root["parent"] is None
        # Every worker span nests (transitively) under the request root.
        for span in spans:
            node = span
            while node["parent"] is not None:
                node = by_id[node["parent"]]
            assert node is root

    def test_pooled_trace_has_measured_queue_wait(self, network, entries):
        config = ServerConfig(
            workers=1, backend="serial", explain=True, timeout_sec=None,
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            service.execute(entries, request_id="req-pool", trace=True)
            record = service.trace("req-pool")
        spans = [json.loads(line) for line in record.span_lines]
        waits = [s for s in spans if s["name"] == "queue.wait"]
        assert len(waits) == 1
        assert waits[0]["duration"] >= 0.0


class TestHeadSampling:
    def test_rate_one_traces_every_request(self, network, entries):
        config = ServerConfig(
            workers=1, backend="serial", trace_sample_rate=1.0,
            timeout_sec=None,
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            result = service.execute(entries, request_id="req-sampled")
            assert result.traced
            assert service.trace("req-sampled") is not None

    def test_rate_zero_traces_nothing_untraced(self, network, entries):
        config = ServerConfig(
            workers=1, backend="serial", timeout_sec=None,
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            result = service.execute(entries, request_id="req-dark")
            assert not result.traced
            assert service.trace("req-dark") is None

    def test_rate_validated(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="trace_sample_rate"):
            ServerConfig(trace_sample_rate=1.5)


class TestSpanBudget:
    def test_span_cap_drops_are_counted(self, network, entries, tmp_path):
        from repro.io import freeze
        from repro.service import ExecutionLimits, NetworkSnapshot
        from repro.service.executor import WorkerState, _worker_recorder

        path = tmp_path / "net.gpsnap"
        freeze(network, path, build_args={"seed": SEED})
        state = WorkerState(
            NetworkSnapshot.from_frozen(path),
            recorder=_worker_recorder(traced=True),
        )
        plan = plan_batch(entries, 1)
        ctx = TraceContext(request_id="req-capped", max_spans=2)
        shard = state.run_shard(
            list(plan.items), ExecutionLimits(), worker=0,
            trace_ctx=ctx, label="0",
        )
        delta = shard.delta
        assert delta is not None and delta.trace is not None
        assert len(delta.trace["spans"]) <= 2
        assert delta.counters.get("obs.worker_spans_dropped", 0) > 0


@pytest.fixture(scope="module")
def profiled_server(network):
    config = ServerConfig(
        port=0, workers=1, backend="serial",
        profile_endpoint=True, timeout_sec=None,
    )
    server = create_server(network, config, build_args={"seed": SEED})
    server.service.warm()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url):
    with urllib.request.urlopen(url) as response:
        return response.status, dict(response.headers), response.read()


class TestProfileEndpoint:
    def test_collapsed_profile_over_http(self, profiled_server):
        _, base_url = profiled_server
        status, headers, body = _get(
            base_url + "/debug/profile?seconds=0.1&format=collapsed"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        for line in body.decode().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit()

    def test_json_profile_schema(self, profiled_server):
        _, base_url = profiled_server
        status, _, body = _get(
            base_url + "/debug/profile?seconds=0.1&interval_ms=2"
        )
        assert status == 200
        doc = json.loads(body)
        assert doc["schema"] == "gpssn.profile/1"
        assert doc["num_samples"] >= 0

    def test_bad_format_is_400(self, profiled_server):
        _, base_url = profiled_server
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base_url + "/debug/profile?seconds=0.1&format=pprof")
        assert info.value.code == 400

    def test_concurrent_profile_is_409(self, profiled_server):
        server, base_url = profiled_server
        service = server.service
        assert service._profile_lock.acquire(timeout=5)
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(base_url + "/debug/profile?seconds=0.1")
            assert info.value.code == 409
            assert "Retry-After" in info.value.headers
        finally:
            service._profile_lock.release()

    def test_profile_busy_error_direct(self, network):
        service = GPSSNService(
            network, ServerConfig(workers=1, backend="serial"),
            build_args={"seed": SEED},
        )
        assert service._profile_lock.acquire(timeout=5)
        try:
            with pytest.raises(ProfilerBusyError):
                service.profile(0.05)
        finally:
            service._profile_lock.release()
        service.close()

    def test_endpoint_gated_off_by_default(self, network):
        config = ServerConfig(port=0, workers=1, backend="serial")
        server = create_server(network, config, build_args={"seed": SEED})
        server.service.warm()
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            host, port = server.server_address[:2]
            with pytest.raises(urllib.error.HTTPError) as info:
                _get(f"http://{host}:{port}/debug/profile?seconds=0.1")
            assert info.value.code == 404
            assert "--profile" in json.loads(info.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestWorkerPanel:
    def test_status_dashboard_lists_workers(self, network, entries):
        config = ServerConfig(
            workers=2, backend="process", explain=True, timeout_sec=None,
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            service.execute(entries, request_id="req-panel")
            view = service.status_view()
        from repro.service.dashboard import worker_rows

        rows = worker_rows(view)
        assert rows
        labels = [row[0] for row in rows]
        assert labels == sorted(labels)
        assert all(label.startswith("pid") for label in labels)
        total_queries = sum(int(row[1]) for row in rows)
        # The plan dedupes the repeated query: workers answer the
        # unique items, not the raw entry count.
        assert total_queries == len(plan_batch(entries, 1).items)
