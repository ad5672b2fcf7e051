"""Determinism property: batch outcomes are backend- and
worker-count-invariant.

The acceptance bar for the batch executor is that concurrency is purely
an execution detail: the same seeded batch answered by the ``serial``
correctness oracle and the ``process`` backend — at any worker count —
yields byte-identical canonical outcomes
``(S, R, maxdist_RN)`` in the same input order.
"""

import json

import pytest

from repro.core.query import GPSSNQuery
from repro.service import BatchQueryExecutor
from repro.experiments.harness import sample_query_users


def _canonical_lines(outcomes):
    return [json.dumps(o.to_dict(), sort_keys=True) for o in outcomes]


@pytest.fixture(scope="module")
def batch_queries(small_uni):
    issuers = sample_query_users(small_uni, 5, seed=11)
    queries = [
        GPSSNQuery(
            query_user=uq, tau=3, gamma=0.3, theta=0.3, radius=2.5
        )
        for uq in issuers
    ]
    # duplicates on purpose: the planner must fan identical queries
    # back out to every original position
    return queries + queries[:2]


@pytest.fixture(scope="module")
def serial_lines(small_processor, batch_queries):
    with BatchQueryExecutor.from_processor(
        small_processor, backend="serial"
    ) as executor:
        outcomes = executor.run(batch_queries, max_groups=150)
    assert all(o.ok for o in outcomes)
    return _canonical_lines(outcomes)


@pytest.mark.parametrize("backend", ["process"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_backend_and_worker_count_never_change_outcomes(
    small_processor, batch_queries, serial_lines, backend, workers
):
    with BatchQueryExecutor.from_processor(
        small_processor, workers=workers, backend=backend
    ) as executor:
        outcomes = executor.run(batch_queries, max_groups=150)
    assert _canonical_lines(outcomes) == serial_lines


def test_outcomes_arrive_in_input_order(small_processor, batch_queries):
    with BatchQueryExecutor.from_processor(
        small_processor, workers=2, backend="process"
    ) as executor:
        outcomes = executor.run(batch_queries, max_groups=150)
    assert [o.index for o in outcomes] == list(range(len(batch_queries)))


def test_duplicate_positions_get_identical_answers(
    small_processor, batch_queries
):
    with BatchQueryExecutor.from_processor(
        small_processor, workers=2, backend="process"
    ) as executor:
        outcomes = executor.run(batch_queries, max_groups=150)
    n_dups = 2
    for offset in range(n_dups):
        original = outcomes[offset].to_dict()
        duplicate = outcomes[len(batch_queries) - n_dups + offset].to_dict()
        original.pop("index"), duplicate.pop("index")
        assert original == duplicate


def test_serial_rerun_is_stable(small_processor, batch_queries, serial_lines):
    with BatchQueryExecutor.from_processor(
        small_processor, backend="serial"
    ) as executor:
        outcomes = executor.run(batch_queries, max_groups=150)
    assert _canonical_lines(outcomes) == serial_lines
