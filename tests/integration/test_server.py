"""Integration tests for the ``gpssn serve`` daemon (repro.service.server).

One small dataset, one live HTTP server per backend under test; the
byte-identity test compares the daemon's ``POST /query`` body against
the serial batch executor's canonical JSONL — the contract CI's
serve-smoke job also enforces against the real CLI.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.exceptions import InvalidParameterError
from repro.experiments.harness import ExperimentScale, build_dataset
from repro.service import (
    BatchQueryExecutor,
    outcome_lines,
    parse_query_lines,
)
from repro.service.server import (
    GPSSNService,
    ServerConfig,
    ServiceOverloadedError,
    create_server,
)

SEED = 7
QUERY_BODY = (
    '{"user": 3}\n'
    '{"user": 5, "tau": 3}\n'
    '{"user": 3}\n'
    '{"user": 8, "gamma": 0.3, "theta": 0.4, "radius": 3.0}\n'
)


@pytest.fixture(scope="module")
def network():
    scale = ExperimentScale(road_vertices=60, num_pois=20, num_users=40)
    return build_dataset("UNI", scale, seed=SEED)


@pytest.fixture(scope="module")
def server(network):
    config = ServerConfig(
        port=0, workers=2, backend="thread", explain=True,
        slow_query_sec=0.0,  # every query lands in the slow ring
    )
    server = create_server(network, config, build_args={"seed": SEED})
    server.service.warm()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


@pytest.fixture(scope="module")
def base_url(server):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


def _get(base_url, path, headers=None):
    request = urllib.request.Request(base_url + path, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


def _post(base_url, path, body, headers=None):
    request = urllib.request.Request(
        base_url + path, data=body, method="POST", headers=headers or {}
    )
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


class TestServerConfig:
    @pytest.mark.parametrize("window_sec", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_window(self, window_sec):
        with pytest.raises(InvalidParameterError, match="window_sec"):
            ServerConfig(window_sec=window_sec)


class TestHealthAndReadiness:
    def test_healthz(self, base_url):
        status, _, body = _get(base_url, "/healthz")
        assert (status, body) == (200, b"ok\n")

    def test_readyz_after_warm(self, base_url):
        status, _, body = _get(base_url, "/readyz")
        assert (status, body) == (200, b"ready\n")

    def test_readyz_503_before_warm(self, network):
        service = GPSSNService(network, ServerConfig())
        assert not service.ready  # not warmed yet

    def test_unknown_route_is_json_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base_url, "/nope")
        assert info.value.code == 404
        doc = json.loads(info.value.read())
        assert doc["request_id"]


class TestQueryEndpoint:
    def test_outcomes_byte_identical_to_serial_executor(
        self, base_url, network
    ):
        status, headers, body = _post(
            base_url, "/query", QUERY_BODY.encode()
        )
        assert status == 200
        assert headers["X-Query-Count"] == "4"

        entries = parse_query_lines(QUERY_BODY.splitlines())
        with BatchQueryExecutor(
            network, backend="serial", build_args={"seed": SEED}
        ) as executor:
            expected = executor.run_entries(entries)
        assert body.decode() == "\n".join(outcome_lines(expected)) + "\n"

    def test_request_id_header_honored_and_echoed(self, base_url):
        _, headers, _ = _post(
            base_url, "/query", b'{"user": 3}\n',
            headers={"X-Request-Id": "req-mine"},
        )
        assert headers["X-Request-Id"] == "req-mine"

    def test_request_id_generated_when_absent(self, base_url):
        _, headers, _ = _post(base_url, "/query", b'{"user": 3}\n')
        assert headers["X-Request-Id"].startswith("req-")

    def test_outcome_lines_carry_query_ids(self, base_url):
        _, _, body = _post(base_url, "/query", QUERY_BODY.encode())
        docs = [json.loads(line) for line in body.decode().splitlines()]
        assert all(d["request_id"].startswith("q-") for d in docs)
        # Positions 0 and 2 are the same query: same content-derived id.
        assert docs[0]["request_id"] == docs[2]["request_id"]
        assert docs[0]["request_id"] != docs[1]["request_id"]

    def test_malformed_line_is_400_with_line_number(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base_url, "/query", b'{"user": 1}\n{broken\n')
        assert info.value.code == 400
        doc = json.loads(info.value.read())
        assert "body:2" in doc["error"]

    def test_unknown_key_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base_url, "/query", b'{"user": 1, "taus": 2}\n')
        assert info.value.code == 400

    def test_empty_body_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base_url, "/query", b"\n\n")
        assert info.value.code == 400

    def test_oversized_body_is_413(self, network):
        config = ServerConfig(port=0, max_body_bytes=64)
        server = create_server(network, config, build_args={"seed": SEED})
        server.service.warm()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(
                    f"http://{host}:{port}", "/query",
                    b'{"user": 1}\n' * 100,
                )
            assert info.value.code == 413
        finally:
            server.shutdown()
            server.server_close()

    def test_unknown_user_becomes_error_outcome_not_http_error(
        self, base_url
    ):
        status, headers, body = _post(
            base_url, "/query", b'{"user": 99999}\n'
        )
        assert status == 200  # per-query failures are outcome lines
        assert headers["X-Failed-Count"] == "1"
        doc = json.loads(body)
        assert doc["status"] == "error"


class TestAdmissionControl:
    def test_admit_release_cycle(self, network):
        service = GPSSNService(
            network, ServerConfig(workers=1, max_queue=1)
        )
        assert service.capacity == 2
        service.admit()
        service.admit()
        assert service.queue_depth == 2
        with pytest.raises(ServiceOverloadedError):
            service.admit()
        assert service.registry.counter("service.rejected") == 1
        service.release()
        service.admit()  # a freed slot admits again
        service.release()
        service.release()
        assert service.queue_depth == 0

    def test_overload_is_http_429_with_retry_after(self, network):
        config = ServerConfig(
            port=0, workers=1, backend="serial", max_queue=0
        )
        server = create_server(network, config, build_args={"seed": SEED})
        server.service.warm()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            server.service.admit()  # occupy the only slot
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(url, "/query", b'{"user": 3}\n')
            assert info.value.code == 429
            assert info.value.headers["Retry-After"] == "1"
            server.service.release()
            status, _, _ = _post(url, "/query", b'{"user": 3}\n')
            assert status == 200
        finally:
            server.shutdown()
            server.server_close()


class TestMetricsEndpoint:
    def test_scrape_shape_and_monotonicity(self, base_url):
        _post(base_url, "/query", b'{"user": 3}\n')
        _, headers, body = _get(base_url, "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "process_uptime_seconds" in text
        assert "gpssn_service_queue_depth 0" in text
        assert 'gpssn_http_request_seconds{quantile="0.99"}' in text
        assert "gpssn_pruning_total_users" in text

        def counter(text, name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            raise AssertionError(f"{name} not exported")

        before = counter(text, "gpssn_service_queries")
        _post(base_url, "/query", b'{"user": 3}\n')
        _, _, body = _get(base_url, "/metrics")
        after = counter(body.decode(), "gpssn_service_queries")
        assert after == before + 1  # monotone across scrapes

    def test_explain_funnel_exported(self, base_url):
        _post(base_url, "/query", b'{"user": 3}\n')
        _, _, body = _get(base_url, "/metrics")
        funnel_lines = [
            line for line in body.decode().splitlines()
            if line.startswith("gpssn_explain_pruned_total{")
        ]
        assert funnel_lines  # per-rule counters with phase/rule labels
        assert all('phase="' in l and 'rule="' in l for l in funnel_lines)


class TestStatusDashboard:
    def test_text_dashboard_has_funnel_and_admission(self, base_url):
        _post(base_url, "/query", QUERY_BODY.encode())
        _, _, body = _get(base_url, "/status?format=text")
        text = body.decode()
        assert "Pruning funnel" in text
        assert "users visited" in text
        assert "in flight / capacity" in text
        assert "http.request_seconds" in text

    def test_html_dashboard_renders(self, base_url):
        _post(base_url, "/query", QUERY_BODY.encode())
        _, headers, body = _get(base_url, "/status")
        assert headers["Content-Type"].startswith("text/html")
        text = body.decode()
        assert "<h1>gpssn serve" in text
        assert "Pruning funnel" in text

    def test_slow_query_ring_populated(self, server, base_url):
        _post(base_url, "/query", b'{"user": 3}\n')
        # slow_query_sec=0.0 in the fixture: everything is "slow".
        assert server.service.slow
        entry = server.service.slow[-1]
        assert entry["query_id"].startswith("q-")
        assert entry["request_id"]


class TestTracing:
    def test_traced_request_exposes_span_tree(self, base_url):
        _, headers, _ = _post(
            base_url, "/query?trace=1", b'{"user": 3}\n',
            headers={"X-Request-Id": "req-traced"},
        )
        assert headers["X-Trace-Url"] == "/trace/req-traced"
        _, _, body = _get(base_url, "/trace/req-traced")
        doc = json.loads(body)
        assert doc["request_id"] == "req-traced"
        names = {span["name"] for span in doc["spans"]}
        assert "request" in names
        assert "query" in names  # the processor's per-query root span
        assert doc["rule_totals"]  # funnel captured alongside spans

    def test_unknown_trace_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base_url, "/trace/req-never-seen")
        assert info.value.code == 404

    def test_untraced_requests_leave_no_trace(self, base_url):
        _, headers, _ = _post(
            base_url, "/query", b'{"user": 3}\n',
            headers={"X-Request-Id": "req-plain"},
        )
        assert "X-Trace-Url" not in headers
        with pytest.raises(urllib.error.HTTPError):
            _get(base_url, "/trace/req-plain")


class TestAccessLog:
    def test_jsonl_access_log_written(self, network, tmp_path):
        log_path = tmp_path / "access.jsonl"
        config = ServerConfig(
            port=0, workers=1, backend="serial",
            access_log_path=str(log_path),
        )
        server = create_server(network, config, build_args={"seed": SEED})
        server.service.warm()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}"
            _post(
                url, "/query", b'{"user": 3}\n',
                headers={"X-Request-Id": "req-logged"},
            )
            _get(url, "/healthz")
        finally:
            server.shutdown()
            server.server_close()
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 2
        # Handler threads log independently, so record order between two
        # back-to-back requests is not guaranteed — look up by path.
        by_path = {record["path"]: record for record in records}
        post = by_path["/query"]
        assert post["method"] == "POST"
        assert post["request_id"] == "req-logged"
        assert post["status"] == 200
        assert post["queries"] == 1
        assert post["query_ids"][0].startswith("q-")
        assert by_path["/healthz"]["method"] == "GET"


class TestProcessBackendParity:
    def test_process_service_matches_serial(self, network):
        entries = parse_query_lines(QUERY_BODY.splitlines())
        with BatchQueryExecutor(
            network, backend="serial", build_args={"seed": SEED}
        ) as executor:
            expected = outcome_lines(executor.run_entries(entries))

        config = ServerConfig(
            workers=2, backend="process", phase_timing=False,
            timeout_sec=None,
        )
        service = GPSSNService(
            network, config, build_args={"seed": SEED}
        )
        with service:
            result = service.execute(entries, request_id="req-proc")
        assert outcome_lines(result.outcomes) == expected
        # Metrics were absorbed in the parent despite process workers.
        assert service.registry.counter("service.queries") == 4
        assert service.registry.counter("pruning.total_users") > 0


class TestTimeouts:
    def test_posthoc_timeout_becomes_timeout_outcome(self, network):
        config = ServerConfig(
            workers=1, backend="serial", timeout_sec=1e-9
        )
        service = GPSSNService(network, config, build_args={"seed": SEED})
        with service:
            result = service.execute(
                parse_query_lines(['{"user": 3}']), request_id="req-t"
            )
        [outcome] = result.outcomes
        assert outcome.status == "timeout"
        assert service.registry.counter("service.timeouts") == 1


class TestShutdown:
    @pytest.mark.parametrize("group", [False, True], ids=["pid", "pgid"])
    def test_sigterm_closes_pool_and_arena(self, tmp_path, group):
        """SIGTERM to a process-backend daemon takes the graceful path:
        exit 0, no pool worker outlives it, the temporary arena is gone.
        Sent to the whole process group it also reaches the pool worker,
        which must stop instead of raising KeyboardInterrupt inside its
        query loop."""
        bundle = tmp_path / "net.json"
        assert main([
            "generate", "--dataset", "UNI", "--users", "40", "--pois", "20",
            "--road-vertices", "60", "--seed", "3", "--output", str(bundle),
        ]) == 0
        arena_dir = tmp_path / "arena"
        arena_dir.mkdir()
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(
            os.environ, TMPDIR=str(arena_dir),
            PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
            ),
        )
        stderr = tmp_path / "stderr.txt"
        with stderr.open("w") as err:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--input", str(bundle), "--port", "0",
                    "--workers", "1", "--backend", "process",
                ],
                env=env, stdout=subprocess.PIPE, stderr=err, text=True,
                start_new_session=True,
            )
        pgid = proc.pid  # a new session leads its own process group
        try:
            port = re.search(
                r"http://[^:]+:(\d+)", proc.stdout.readline()
            ).group(1)
            deadline = time.monotonic() + 60
            while True:
                try:
                    _get(f"http://127.0.0.1:{port}", "/readyz")
                    break
                except (urllib.error.URLError, ConnectionError):
                    assert time.monotonic() < deadline, "never became ready"
                    time.sleep(0.1)
            assert len(list(arena_dir.glob("*.gpsnap"))) == 1
            if group:
                os.killpg(pgid, signal.SIGTERM)
            else:
                proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            proc.stdout.close()
            try:
                os.killpg(pgid, 0)
                survivors = True
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                survivors = False
            if proc.poll() is None:
                proc.wait()
        assert not survivors
        assert not list(arena_dir.glob("*.gpsnap"))
        assert "KeyboardInterrupt" not in stderr.read_text()
