"""Frozen snapshots through the service stack: executor backends, the
serve daemon's telemetry, live networks frozen at warm-up, header
mismatches, and the CLI paths."""

import tempfile

import pytest

from repro.cli import main
from repro.core.algorithm import GPSSNQueryProcessor
from repro.core.query import GPSSNQuery
from repro.dynamic import synthesize_mutations
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)
from repro.io.snapshot import freeze
from repro.obs import Recorder
from repro.service import BACKENDS, BatchQueryExecutor, outcome_lines
from repro.service.batch import query_request_id
from repro.service.executor import NetworkSnapshot
from repro.service.limits import ExecutionLimits, run_with_limits
from repro.service.server import GPSSNService, ServerConfig

SCALE = ExperimentScale(
    road_vertices=120, num_pois=40, num_users=100, max_groups=400
)
SEED = 5


@pytest.fixture(scope="module")
def frozen_setup(tmp_path_factory):
    network = build_dataset("UNI", SCALE, seed=SEED)
    processor = make_processor(network, seed=SEED)
    path = tmp_path_factory.mktemp("svc") / "net.gpsnap"
    freeze(network, path, processor=processor)
    issuers = sample_query_users(network, 4, seed=2)
    entries = [
        (GPSSNQuery(query_user=uq, tau=3), SCALE.max_groups)
        for uq in issuers
    ]
    return network, path, entries, processor


def in_memory_lines(processor, entries):
    """Outcome lines straight from an in-memory processor, no arena."""
    return outcome_lines([
        run_with_limits(
            lambda q=query, mg=max_groups: processor.answer(q, max_groups=mg),
            ExecutionLimits(), index=i, worker=0,
            request_id=query_request_id(query, max_groups),
        )
        for i, (query, max_groups) in enumerate(entries)
    ])


@pytest.fixture(scope="module")
def reference_lines(frozen_setup):
    _network, _path, entries, processor = frozen_setup
    return in_memory_lines(processor, entries)


@pytest.fixture
def arena_dir(tmp_path, monkeypatch):
    """Temporary arenas land here, so a test can see what is left."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


class TestExecutorBackends:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_frozen_matches_in_memory(
        self, frozen_setup, reference_lines, backend
    ):
        _network, path, entries, _processor = frozen_setup
        with BatchQueryExecutor.from_frozen(
            path, workers=2, backend=backend
        ) as executor:
            outcomes = executor.run_entries(entries)
        assert outcome_lines(outcomes) == reference_lines


class TestRebuildFallback:
    def test_changed_file_counts_fallback_but_still_serves(
        self, frozen_setup, tmp_path
    ):
        network, path, entries, _processor = frozen_setup
        copy = tmp_path / "drift.gpsnap"
        copy.write_bytes(path.read_bytes())
        snapshot = NetworkSnapshot.from_frozen(copy)
        # The file changes after the handle was made: refrozen with
        # other pivots, so the header hash differs.
        freeze(network, copy, build_args={"seed": SEED + 1})
        recorder = Recorder()
        _net, processor = snapshot.build_worker(recorder)
        assert recorder.metrics.counters["snapshot.header_mismatch"] == 1
        # The worker attached the current file and serves from it.
        assert processor._build_args["seed"] == SEED + 1
        query, max_groups = entries[0]
        answer, _stats = processor.answer(query, max_groups=max_groups)
        assert answer is not None


class TestLiveNetworkService:
    """``GPSSNService(network, ...)`` freezes the live network to a
    temporary arena at warm-up and serves exactly what an arena-started
    service serves."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_frozen_service_and_removes_its_arena(
        self, frozen_setup, reference_lines, arena_dir, backend
    ):
        _network, path, entries, _processor = frozen_setup
        config = ServerConfig(workers=2, backend=backend, timeout_sec=None)
        with GPSSNService(
            None, config, snapshot=NetworkSnapshot.from_frozen(path)
        ) as frozen:
            want = outcome_lines(frozen.execute(entries, "req-a").outcomes)
        live = GPSSNService(
            build_dataset("UNI", SCALE, seed=SEED), config,
            build_args={"seed": SEED},
        )
        assert live.snapshot is None  # nothing frozen before warm-up
        with live:
            assert len(list(arena_dir.glob("*.gpsnap"))) == 1
            got = outcome_lines(live.execute(entries, "req-b").outcomes)
        assert got == want == reference_lines
        assert not list(arena_dir.glob("*.gpsnap"))

    def test_updates_never_reach_the_query_plane(
        self, frozen_setup, reference_lines, arena_dir
    ):
        _network, _path, entries, _processor = frozen_setup
        network = build_dataset("UNI", SCALE, seed=SEED)
        config = ServerConfig(workers=1, backend="serial", timeout_sec=None)
        with GPSSNService(network, config, build_args={"seed": SEED}) as svc:
            before = outcome_lines(svc.execute(entries, "req-a").outcomes)
            version = network.version
            _lines, report = svc.update(
                list(synthesize_mutations(network, 40, seed=SEED))
            )
            assert report["failed"] == 0 and network.version != version
            after = outcome_lines(svc.execute(entries, "req-b").outcomes)
        assert before == after == reference_lines
        # The mutations do change the answers of a cold rebuild.
        cold = GPSSNQueryProcessor(network, seed=SEED)
        assert in_memory_lines(cold, entries) != before
        assert not list(arena_dir.glob("*.gpsnap"))


class TestExecutorFromProcessor:
    def test_freezes_the_given_processor_without_rebuilding(
        self, frozen_setup, reference_lines, arena_dir, monkeypatch
    ):
        _network, _path, entries, processor = frozen_setup

        def no_build(*args, **kwargs):
            raise AssertionError("from_processor rebuilt the indexes")

        monkeypatch.setattr(GPSSNQueryProcessor, "__init__", no_build)
        with BatchQueryExecutor.from_processor(
            processor, backend="serial"
        ) as executor:
            lines = outcome_lines(executor.run_entries(entries))
        assert lines == reference_lines
        assert not list(arena_dir.glob("*.gpsnap"))


class TestServiceTelemetry:
    def test_attach_gauges_and_metrics_text(self, frozen_setup,
                                            reference_lines):
        _network, path, entries, _processor = frozen_setup
        config = ServerConfig(workers=1, backend="serial", timeout_sec=None)
        snapshot = NetworkSnapshot.from_frozen(path)
        with GPSSNService(None, config, snapshot=snapshot) as service:
            service.warm()
            gauges = service.registry.gauges
            assert gauges["snapshot.attach_seconds"] > 0.0
            assert gauges["snapshot.bytes_mapped"] == path.stat().st_size
            assert "snapshot.header_mismatch" not in \
                service.registry.counters
            result = service.execute(entries, request_id="req-frozen")
            assert outcome_lines(result.outcomes) == reference_lines
            text = service.metrics_text()
            assert "snapshot" in text and "attach_seconds" in text
            status = service.status_view()
            assert status["ready"]


class TestCLI:
    def test_freeze_then_query_matches_input_path(self, tmp_path, capsys):
        bundle = tmp_path / "net.json"
        assert main([
            "generate", "--dataset", "UNI",
            "--users", "80", "--pois", "30", "--road-vertices", "80",
            "--seed", "3", "--output", str(bundle),
        ]) == 0
        snap = tmp_path / "net.gpsnap"
        assert main([
            "freeze", "--input", str(bundle), "--output", str(snap),
        ]) == 0
        assert snap.exists()
        capsys.readouterr()

        def answer_lines(text):
            # Keep the answers, drop the stats line (cpu time / search
            # counts are volatile across warm vs cold oracles).
            return [
                line for line in text.splitlines()
                if line.startswith("#") or "no (S, R) pair" in line
            ]

        query_args = ["--user", "0", "--tau", "3",
                      "--gamma", "0.3", "--theta", "0.3"]
        assert main(["query", "--input", str(bundle)] + query_args) == 0
        from_bundle = answer_lines(capsys.readouterr().out)
        assert main(["query", "--snapshot", str(snap)] + query_args) == 0
        from_snapshot = answer_lines(capsys.readouterr().out)

        assert from_bundle  # the query actually printed something
        assert from_snapshot == from_bundle

    def test_input_and_snapshot_are_exclusive(self, tmp_path, capsys):
        code = main([
            "query", "--input", str(tmp_path / "a.json"),
            "--snapshot", str(tmp_path / "b.gpsnap"), "--user", "0",
        ])
        assert code != 0
