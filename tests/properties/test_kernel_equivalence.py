"""S4 — refinement outcomes are pinned exactly and agree with brute force.

Two references hold the processor's refinement (Algorithm 2 lines
29-31) in place:

* ``refinement_golden.json`` (written by ``refinement_golden.py``; see
  its docstring for the regeneration command) records the outcomes of a
  per-pair scalar refinement path that agreed with the vectorized one
  on every case: same answers, ``groups_refined``, every
  ``PruningCounters`` field and EXPLAIN funnel count (``pair.distance``
  above all — the dominant rule the block-gated group loop
  reorganizes). The processor must reproduce every case exactly, with
  EXPLAIN on and off, across block boundaries and group caps.
* Hypothesis sweeps compare the processor with the exhaustive
  :class:`~repro.BaselineProcessor` on random queries: equal
  feasibility and objective value, and a pair that satisfies every
  predicate of Definition 5. The pair itself may differ on ties.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_valid_answer
from refinement_golden import (
    load,
    processor_for,
    replay,
    uni_network,
)
from repro import BaselineProcessor
from repro.core.query import GPSSNQuery
from repro.core.refinement import GROUP_BLOCK

GOLDEN = load()


def _explain(case):
    return case.get("explain", True)


def _replay(suite, where=lambda case: True):
    return replay(GOLDEN, suite, where)


def _found(out):
    return out["answers"][0][2] != repr(float("inf"))


# -- golden replay -------------------------------------------------------------


def test_vector_matches_scalar():
    """The fixed (uid, tau, gamma, theta, r) grid, EXPLAIN on."""
    assert len(_replay("grid", _explain)) >= 40


def test_vector_matches_scalar_explain_off():
    """The same grid without EXPLAIN, as answer and top-3."""
    outs = _replay("grid", lambda case: not _explain(case))
    assert len(outs) >= 60
    assert any(len(out["answers"]) == 3 for out in outs)


def test_vector_matches_scalar_capped_refinement():
    """The group cap truncates the same enumeration prefix."""
    assert len(_replay("grid_capped")) >= 15


def test_topk_matches_scalar():
    outs = _replay("topk")
    assert [len(out["answers"]) for out in outs] == [2, 3, 5]


def test_tiny_network_exhaustive_grid():
    """Hand-checkable network, exhaustive parameter grid."""
    outs = _replay("tiny_grid")
    assert any(_found(out) for out in outs)  # non-trivial paths reached


def test_infeasible_query_parity():
    """The all-pruned path (no feasible pair)."""
    (out,) = _replay("infeasible")
    assert not _found(out)


@pytest.mark.parametrize("explain", [True, False])
@pytest.mark.parametrize("uid", [9, 4])
def test_uncapped_enumeration_crosses_block_boundary(uid, explain):
    outs = _replay(
        "block_boundary",
        lambda case: case["q"][0] == uid and _explain(case) == explain,
    )
    assert all(out["groups"] > GROUP_BLOCK for out in outs)


@pytest.mark.parametrize("explain", [True, False])
def test_cap_at_exact_block_multiple(explain):
    outs = _replay(
        "block_multiple", lambda case: _explain(case) == explain
    )
    assert all(out["groups"] == 2 * GROUP_BLOCK for out in outs)


# -- the exhaustive baseline -----------------------------------------------------

_NETWORK = uni_network()
_EXACT = {}

QUERY_PARAMS = dict(
    uid=st.integers(0, 39),
    tau=st.integers(2, 4),
    gamma=st.sampled_from([0.0, 0.2, 0.4]),
    theta=st.sampled_from([0.2, 0.4, 0.6]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)


def _exact(query):
    """The baseline's optimum, memoized."""
    key = (query.query_user, query.tau, query.gamma, query.theta, query.radius)
    if key not in _EXACT:
        _EXACT[key] = BaselineProcessor(_NETWORK).answer(query)[0]
    return _EXACT[key]


def _assert_matches_baseline(query, answer):
    exact = _exact(query)
    assert answer.found == exact.found, query
    if answer.found:
        assert answer.max_distance == pytest.approx(
            exact.max_distance, abs=1e-9
        ), query
        assert_valid_answer(_NETWORK, query, answer)


def _query(uid, tau, gamma, theta, radius):
    return GPSSNQuery(
        query_user=uid, tau=tau, gamma=gamma, theta=theta, radius=radius
    )


@settings(max_examples=40, deadline=None)
@given(**QUERY_PARAMS)
def test_matches_baseline(uid, tau, gamma, theta, radius):
    query = _query(uid, tau, gamma, theta, radius)
    answer, _ = processor_for({"net": "uni"}).answer(query)
    _assert_matches_baseline(query, answer)


@settings(max_examples=30, deadline=None)
@given(**QUERY_PARAMS)
def test_topk_matches_baseline_explain_off(uid, tau, gamma, theta, radius):
    """Top-3 leads with the optimum; every pair is distinct and valid."""
    query = _query(uid, tau, gamma, theta, radius)
    processor = processor_for({"net": "uni", "explain": False})
    answer, _ = processor.answer(query)
    _assert_matches_baseline(query, answer)
    top, _ = processor.answer_topk(query, k=3)
    assert len(top) <= 3 and bool(top) == answer.found
    values = [a.max_distance for a in top]
    assert values == sorted(values)
    assert len({(a.users, a.pois) for a in top}) == len(top)
    if top:
        assert repr(values[0]) == repr(answer.max_distance)
    for pair in top:
        assert_valid_answer(_NETWORK, query, pair)


@settings(max_examples=15, deadline=None)
@given(
    uid=st.integers(0, 39),
    tau=st.integers(2, 3),
    max_groups=st.sampled_from([1, 5, 50]),
)
def test_capped_refinement_is_valid(uid, tau, max_groups):
    """A capped answer is a valid pair no better than the optimum."""
    query = _query(uid, tau, 0.2, 0.4, 2.0)
    answer, stats = processor_for({"net": "uni"}).answer(
        query, max_groups=max_groups
    )
    assert stats.groups_refined <= max_groups
    exact = _exact(query)
    if answer.found:
        assert exact.found
        assert answer.max_distance >= exact.max_distance - 1e-9
        assert_valid_answer(_NETWORK, query, answer)
