"""S4 — scalar vs. vector refinement kernels are indistinguishable.

The vectorized pair-evaluation path (``refinement_kernel="vector"``)
promises *byte-identical* outcomes to the scalar reference, including
the EXPLAIN funnel: same answers, same ``candidate_pairs_examined``,
same per-rule prune counts (``pair.distance`` above all — it is the
dominant rule the vectorization reorganizes). Hypothesis sweeps query
parameters over random networks and all three distance engines, with
EXPLAIN on and off: the vector loop skips whole blocks of groups whose
Lemma-5 bounds cannot beat the running k-th value, and that skip must
keep every ``PruningCounters`` field exact either way.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro import GPSSNQueryProcessor, uni_dataset
from repro.core.query import GPSSNQuery
from repro.core.refinement import GROUP_BLOCK
from repro.obs import Recorder
from repro.obs.funnel import ExplainRecorder

ENGINES = ("csr", "ch")

_NETWORKS = {}
_PROCESSORS = {}


def _network(engine):
    if engine not in _NETWORKS:
        net = uni_dataset(
            num_road_vertices=60, num_pois=20, num_users=40, seed=29
        )
        net.use_distance_engine(engine)
        _NETWORKS[engine] = net
    return _NETWORKS[engine]


def _processor(engine, kernel, explain=True):
    key = (engine, kernel, explain)
    if key not in _PROCESSORS:
        _PROCESSORS[key] = GPSSNQueryProcessor(
            _network(engine),
            num_road_pivots=3,
            num_social_pivots=3,
            seed=11,
            recorder=(
                Recorder(explain=ExplainRecorder()) if explain else Recorder()
            ),
            refinement_kernel=kernel,
        )
    return _PROCESSORS[key]


def _funnel_snapshot(processor):
    ex = processor.recorder.explain
    snap = {}
    for funnel in ex.iter_phases():
        snap[funnel.name] = (
            funnel.visited,
            funnel.pruned,
            funnel.survived,
            {rule: stats.pruned for rule, stats in funnel.rules.items()},
        )
    return snap


def _run(processor, query, max_groups=None):
    processor.recorder.explain.clear()
    answer, stats = processor.answer(query, max_groups=max_groups)
    return answer, stats, _funnel_snapshot(processor)


def _assert_identical(query, scalar_run, vector_run):
    (a_s, st_s, f_s) = scalar_run
    (a_v, st_v, f_v) = vector_run
    assert a_v.found == a_s.found, query
    assert a_v.users == a_s.users, query
    assert a_v.pois == a_s.pois, query
    # Bitwise: repr distinguishes every distinct float.
    assert repr(a_v.max_distance) == repr(a_s.max_distance), query
    assert (
        st_v.pruning.candidate_pairs_examined
        == st_s.pruning.candidate_pairs_examined
    ), query
    assert f_v == f_s, query


@settings(max_examples=40, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    uid=st.integers(0, 39),
    tau=st.integers(2, 4),
    gamma=st.sampled_from([0.0, 0.2, 0.4]),
    theta=st.sampled_from([0.2, 0.4, 0.6]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_vector_matches_scalar(engine, uid, tau, gamma, theta, radius):
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=gamma, theta=theta, radius=radius
    )
    scalar_run = _run(_processor(engine, "scalar"), query)
    vector_run = _run(_processor(engine, "vector"), query)
    _assert_identical(query, scalar_run, vector_run)


@settings(max_examples=15, deadline=None)
@given(
    uid=st.integers(0, 39),
    tau=st.integers(2, 3),
    max_groups=st.sampled_from([1, 5, 50]),
)
def test_vector_matches_scalar_capped_refinement(uid, tau, max_groups):
    """The group cap truncates the same enumeration prefix either way."""
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=0.2, theta=0.4, radius=2.0
    )
    scalar_run = _run(_processor("csr", "scalar"), query, max_groups)
    vector_run = _run(_processor("csr", "vector"), query, max_groups)
    _assert_identical(query, scalar_run, vector_run)


@pytest.mark.parametrize("engine", ENGINES)
def test_topk_matches_scalar(engine):
    query = GPSSNQuery(query_user=0, tau=3, gamma=0.0, theta=0.3, radius=3.0)
    scalar = _processor(engine, "scalar")
    vector = _processor(engine, "vector")
    scalar.recorder.explain.clear()
    vector.recorder.explain.clear()
    answers_s, stats_s = scalar.answer_topk(query, k=5)
    snap_s = _funnel_snapshot(scalar)
    answers_v, stats_v = vector.answer_topk(query, k=5)
    snap_v = _funnel_snapshot(vector)
    assert len(answers_v) == len(answers_s)
    for a_s, a_v in zip(answers_s, answers_v):
        assert a_v.users == a_s.users
        assert a_v.pois == a_s.pois
        assert repr(a_v.max_distance) == repr(a_s.max_distance)
    assert (
        stats_v.pruning.candidate_pairs_examined
        == stats_s.pruning.candidate_pairs_examined
    )
    assert snap_v == snap_s


def test_tiny_network_exhaustive_grid(tiny_network):
    """Hand-checkable network, exhaustive parameter grid, bitwise parity."""
    scalar = GPSSNQueryProcessor(
        tiny_network, num_road_pivots=2, num_social_pivots=2, seed=3,
        recorder=Recorder(explain=ExplainRecorder()),
        refinement_kernel="scalar",
    )
    vector = GPSSNQueryProcessor(
        tiny_network, num_road_pivots=2, num_social_pivots=2, seed=3,
        recorder=Recorder(explain=ExplainRecorder()),
        refinement_kernel="vector",
    )
    found_any = False
    for uid in (0, 1, 2, 4):
        for tau in (2, 3):
            for theta in (0.1, 0.3):
                query = GPSSNQuery(
                    query_user=uid, tau=tau, gamma=0.05,
                    theta=theta, radius=3.9,
                )
                scalar_run = _run(scalar, query)
                vector_run = _run(vector, query)
                _assert_identical(query, scalar_run, vector_run)
                found_any = found_any or scalar_run[0].found
    assert found_any  # the grid must exercise the non-trivial paths


def test_infeasible_query_parity(tiny_network):
    """Both kernels agree on the all-pruned path (no feasible pair)."""
    scalar = GPSSNQueryProcessor(
        tiny_network, seed=3, refinement_kernel="scalar",
        recorder=Recorder(explain=ExplainRecorder()),
    )
    vector = GPSSNQueryProcessor(
        tiny_network, seed=3, refinement_kernel="vector",
        recorder=Recorder(explain=ExplainRecorder()),
    )
    query = GPSSNQuery(
        query_user=0, tau=2, gamma=0.05, theta=5.0, radius=2.0
    )
    scalar_run = _run(scalar, query)
    vector_run = _run(vector, query)
    _assert_identical(query, scalar_run, vector_run)
    assert not scalar_run[0].found
    assert math.isinf(scalar_run[0].max_distance)


def _assert_counters_identical(query, scalar, vector, max_groups=None):
    """Answers, top-3 answers and every counter agree without EXPLAIN."""
    a_s, st_s = scalar.answer(query, max_groups=max_groups)
    a_v, st_v = vector.answer(query, max_groups=max_groups)
    assert (a_v.users, a_v.pois) == (a_s.users, a_s.pois), query
    assert repr(a_v.max_distance) == repr(a_s.max_distance), query
    assert st_v.groups_refined == st_s.groups_refined, query
    assert dataclasses.asdict(st_v.pruning) == dataclasses.asdict(
        st_s.pruning
    ), query
    top_s, tst_s = scalar.answer_topk(query, k=3, max_groups=max_groups)
    top_v, tst_v = vector.answer_topk(query, k=3, max_groups=max_groups)
    assert [
        (a.users, a.pois, repr(a.max_distance)) for a in top_v
    ] == [(a.users, a.pois, repr(a.max_distance)) for a in top_s], query
    assert tst_v.groups_refined == tst_s.groups_refined, query
    assert dataclasses.asdict(tst_v.pruning) == dataclasses.asdict(
        tst_s.pruning
    ), query
    return st_v


@settings(max_examples=30, deadline=None)
@given(
    engine=st.sampled_from(ENGINES),
    uid=st.integers(0, 39),
    tau=st.integers(2, 4),
    gamma=st.sampled_from([0.0, 0.2, 0.4]),
    theta=st.sampled_from([0.2, 0.4, 0.6]),
    radius=st.sampled_from([1.0, 2.0, 3.0]),
)
def test_vector_matches_scalar_explain_off(
    engine, uid, tau, gamma, theta, radius
):
    query = GPSSNQuery(
        query_user=uid, tau=tau, gamma=gamma, theta=theta, radius=radius
    )
    _assert_counters_identical(
        query,
        _processor(engine, "scalar", explain=False),
        _processor(engine, "vector", explain=False),
    )


@pytest.mark.parametrize("explain", [True, False])
@pytest.mark.parametrize("uid", [9, 4])
def test_uncapped_enumeration_crosses_block_boundary(uid, explain):
    query = GPSSNQuery(
        query_user=uid, tau=4, gamma=0.0, theta=0.4, radius=2.0
    )
    if explain:
        scalar_run = _run(_processor("csr", "scalar"), query)
        vector_run = _run(_processor("csr", "vector"), query)
        _assert_identical(query, scalar_run, vector_run)
        assert vector_run[1].groups_refined > GROUP_BLOCK
    else:
        stats = _assert_counters_identical(
            query,
            _processor("csr", "scalar", explain=False),
            _processor("csr", "vector", explain=False),
        )
        assert stats.groups_refined > GROUP_BLOCK


@pytest.mark.parametrize("explain", [True, False])
def test_cap_at_exact_block_multiple(explain):
    max_groups = 2 * GROUP_BLOCK
    query = GPSSNQuery(
        query_user=1, tau=5, gamma=0.0, theta=0.4, radius=2.0
    )
    if explain:
        scalar_run = _run(_processor("csr", "scalar"), query, max_groups)
        vector_run = _run(_processor("csr", "vector"), query, max_groups)
        _assert_identical(query, scalar_run, vector_run)
        assert vector_run[1].groups_refined == max_groups
    else:
        stats = _assert_counters_identical(
            query,
            _processor("csr", "scalar", explain=False),
            _processor("csr", "vector", explain=False),
            max_groups=max_groups,
        )
        assert stats.groups_refined == max_groups
