"""Integration tests for the batch executor and network snapshots."""

import os
import pickle

import pytest

from repro.core.query import GPSSNQuery
from repro.exceptions import InvalidParameterError
from repro.io.snapshot import freeze
from repro.obs import Recorder
from repro.service import (
    BatchQueryExecutor,
    ExecutionLimits,
    NetworkSnapshot,
    WorkerState,
)
from repro.experiments.harness import run_workload, sample_query_users


@pytest.fixture(scope="module")
def issuers(small_uni):
    return sample_query_users(small_uni, 4, seed=5)


def _queries(issuers):
    return [
        GPSSNQuery(query_user=uq, tau=3, gamma=0.3, theta=0.3, radius=2.5)
        for uq in issuers
    ]


class TestNetworkSnapshot:
    def test_pickle_round_trip_preserves_answers(
        self, small_processor, issuers, tmp_path
    ):
        path = tmp_path / "net.gpsnap"
        freeze(small_processor.network, path, processor=small_processor)
        snapshot = NetworkSnapshot.from_frozen(path)
        restored = pickle.loads(pickle.dumps(snapshot))
        assert restored == snapshot
        query = _queries(issuers)[0]
        a = WorkerState(snapshot).processor.answer(query, max_groups=150)[0]
        b = WorkerState(restored).processor.answer(query, max_groups=150)[0]
        assert a == b
        assert a == small_processor.answer(query, max_groups=150)[0]

    @pytest.mark.parametrize("engine", ["csr"])
    def test_engine_choice_survives_restore(self, small_uni, engine):
        snapshot = NetworkSnapshot.freeze_temporary(small_uni, {"seed": 1})
        try:
            network, _processor = snapshot.build_worker()
        finally:
            os.unlink(snapshot.snapshot_path)
        restored = network.distances.engine
        assert restored.name == engine
        # The CSR arrays are adopted from the arena, not rebuilt.
        assert restored._graph is not None


class TestBatchQueryExecutor:
    def test_auto_backend_resolution(self, small_processor):
        serial = BatchQueryExecutor.from_processor(small_processor)
        assert serial.backend == "serial"
        parallel = BatchQueryExecutor.from_processor(
            small_processor, workers=2
        )
        assert parallel.backend == "process"

    def test_unknown_backend_rejected(self, small_processor):
        for backend in ("fibers", "thread"):
            with pytest.raises(InvalidParameterError):
                BatchQueryExecutor.from_processor(
                    small_processor, workers=2, backend=backend
                )

    def test_empty_batch(self, small_processor):
        with BatchQueryExecutor.from_processor(small_processor) as executor:
            assert executor.run([]) == []

    def test_error_entries_become_envelopes_in_place(
        self, small_processor, issuers
    ):
        queries = _queries(issuers)
        queries.insert(1, GPSSNQuery(query_user=987654, tau=3))
        with BatchQueryExecutor.from_processor(
            small_processor, workers=2, backend="process"
        ) as executor:
            outcomes = executor.run(queries, max_groups=150)
        assert len(outcomes) == len(queries)
        assert not outcomes[1].ok
        assert outcomes[1].error_kind == "UnknownEntityError"
        assert all(
            o.ok for i, o in enumerate(outcomes) if i != 1
        )

    def test_metrics_and_span_recorded(self, small_processor, issuers):
        recorder = Recorder.traced()
        queries = _queries(issuers) + _queries(issuers)[:2]
        with BatchQueryExecutor.from_processor(
            small_processor, workers=2, backend="process", recorder=recorder
        ) as executor:
            executor.run(queries, max_groups=150)
        m = recorder.metrics
        assert m.counter("service.batches") == 1
        assert m.counter("service.queries") == len(queries)
        assert m.counter("service.dedup_saved") == 2
        assert "service.query_latency_sec" in m.histograms
        assert "service.worker.0.queries" in m.gauges
        assert "service.batch.throughput_qps" in m.gauges
        roots = [span.name for span in recorder.tracer.roots]
        assert "service.batch" in roots

    def test_per_query_limits_flow_through(self, small_processor, issuers):
        limits = ExecutionLimits(timeout_sec=60.0, retries=1)
        with BatchQueryExecutor.from_processor(
            small_processor, backend="serial", limits=limits
        ) as executor:
            outcomes = executor.run(_queries(issuers), max_groups=150)
        assert all(o.ok and o.attempts == 1 for o in outcomes)


class TestHarnessWorkers:
    def test_concurrent_workload_matches_serial_answers(
        self, small_processor, issuers
    ):
        kwargs = dict(
            tau=3, gamma=0.3, theta=0.3, radius=2.5, max_groups=150
        )
        serial = run_workload(small_processor, issuers, **kwargs)
        concurrent = run_workload(
            small_processor, issuers, workers=2, backend="process", **kwargs
        )
        assert concurrent.num_queries == serial.num_queries
        assert concurrent.answers_found == serial.answers_found
        assert concurrent.page_accesses == serial.page_accesses
        assert concurrent.groups_refined == serial.groups_refined
