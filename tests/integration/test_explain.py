"""End-to-end tests for the EXPLAIN ANALYZE pruning funnel.

The load-bearing acceptance criterion: for every phase of every entry
point, per-rule prune counts sum to (visited - surviving) — the funnel
invariant — and the funnel's totals agree with the legacy
PruningCounters tallies the paper figures are computed from.
"""

import json
import time

import pytest

from repro import GPSSNQuery, GPSSNQueryProcessor
from repro.cli import main
from repro.core.baseline import BaselineProcessor
from repro.core.scan import ScanProcessor
from repro.obs import Recorder, explain_report

QUERY = GPSSNQuery(query_user=0, tau=3, gamma=0.2, theta=0.3, radius=2.0)


def assert_balanced(explain):
    """Every recorded phase satisfies visited == survived + pruned."""
    phases = list(explain.iter_phases())
    assert phases, "no funnel recorded"
    for funnel in phases:
        assert funnel.balanced(), (
            f"{funnel.name}: {funnel.visited} visited != "
            f"{funnel.survived} survived + {funnel.pruned} pruned"
        )


class TestFunnelInvariant:
    def test_indexed_processor_phases_balance(self, small_uni):
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        processor.answer(QUERY)
        ex = processor.recorder.explain
        assert_balanced(ex)
        phases = {f.name: f for f in ex.iter_phases()}
        # Traversal visits the whole population exactly once per query.
        assert phases["traverse.social"].visited == small_uni.social.num_users
        assert phases["traverse.road"].visited == small_uni.num_pois
        # Refinement phases recorded whenever candidates survived.
        assert "refine.users" in phases
        assert "refine.pairs" in phases

    def test_funnel_agrees_with_pruning_counters(self, small_uni):
        """Cross-check: the funnel's per-rule totals reproduce the
        PruningCounters tallies that the Fig. 7 powers are computed
        from — same events, two bookkeepers, one truth."""
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        _, stats = processor.answer(QUERY)
        totals = processor.recorder.explain.rule_counts()
        p = stats.pruning

        def total(*rules):
            return sum(totals.get(rule, 0) for rule in rules)

        # The legacy counters absorb refinement-stage object prunes into
        # the same social/road tallies, so those rules join the sums.
        assert total(
            "idx.social_hops", "idx.social_interest",
            "obj.social_hops", "obj.social_interest",
            "refine.social_hops", "refine.corollary2",
        ) == p.social_index_pruned + p.social_object_pruned
        assert total(
            "idx.road_matching", "idx.road_distance",
            "obj.poi_matching", "obj.poi_distance", "obj.poi_witness",
            "refine.seed_matching",
        ) == p.road_index_pruned + p.road_object_pruned
        # And the per-rule-family split matches the by-rule tallies.
        assert total(
            "idx.social_hops", "obj.social_hops", "refine.social_hops"
        ) == p.social_pruned_by_distance
        assert total(
            "idx.social_interest", "obj.social_interest",
            "refine.corollary2",
        ) == p.social_pruned_by_interest
        assert total(
            "idx.road_distance", "obj.poi_distance", "obj.poi_witness"
        ) == p.road_pruned_by_distance
        assert total(
            "idx.road_matching", "obj.poi_matching", "refine.seed_matching"
        ) == p.road_pruned_by_matching

    def test_scan_processor_phases_balance(self, small_uni):
        processor = ScanProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        _, stats = processor.answer(QUERY)
        ex = processor.recorder.explain
        assert_balanced(ex)
        phases = {f.name: f for f in ex.iter_phases()}
        assert phases["scan.users"].visited == small_uni.social.num_users
        assert phases["scan.pois"].visited == small_uni.num_pois
        assert phases["scan.users"].survived == stats.candidate_users

    def test_baseline_processor_phases_balance(self, small_uni):
        processor = BaselineProcessor(
            small_uni, recorder=Recorder.explaining()
        )
        processor.answer(QUERY, max_groups=50)
        ex = processor.recorder.explain
        assert_balanced(ex)
        # The contrast case: the exhaustive baseline examines every
        # (group, seed) pair — refine.pairs prunes nothing.
        pairs = {f.name: f for f in ex.iter_phases()}["refine.pairs"]
        assert pairs.pruned == 0
        assert pairs.visited == pairs.survived > 0

    def test_sampled_refinement_phases_balance(self, small_uni):
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        processor.answer_sampled(QUERY, num_samples=10, seed=3)
        assert_balanced(processor.recorder.explain)

    def test_accumulates_across_queries(self, small_uni):
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        processor.answer(QUERY)
        once = {
            f.name: f.visited
            for f in processor.recorder.explain.iter_phases()
        }
        processor.answer(QUERY)
        ex = processor.recorder.explain
        assert_balanced(ex)
        for funnel in ex.iter_phases():
            if funnel.name in ("traverse.social", "traverse.road"):
                assert funnel.visited == 2 * once[funnel.name]

    def test_default_recorder_records_nothing(self, small_uni):
        processor = GPSSNQueryProcessor(small_uni, seed=0)
        processor.answer(QUERY)
        assert processor.recorder.explain.as_dict() == {}
        assert not processor.recorder.explaining_active

    def test_margins_are_nonnegative(self, small_uni):
        """By convention every margin records how far past its threshold
        the failing bound was — so sampled margins are >= 0."""
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        processor.answer(QUERY)
        for funnel in processor.recorder.explain.iter_phases():
            for rule, stats in funnel.rules.items():
                if stats.margins.count:
                    low = stats.margins.min
                    assert low >= -1e-9, (funnel.name, rule, low)


class TestWorkloadFunnel:
    def test_run_workload_exposes_funnel(self, small_processor):
        from repro.experiments.harness import run_workload

        result = run_workload(
            small_processor, query_users=[0, 1], tau=3, gamma=0.2,
            theta=0.3, radius=2.0,
        )
        assert "traverse.social" in result.funnel
        assert result.funnel["traverse.social"]["visited"] == 2 * 40
        assert result.rule_counts == {
            rule: count for rule, count in result.rule_counts.items()
            if count > 0
        }
        assert result.pruned_by(*result.rule_counts) == sum(
            result.rule_counts.values()
        )


class TestExplainReportEndToEnd:
    def test_report_renders_real_query(self, small_uni):
        processor = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder.explaining()
        )
        _, stats = processor.answer(QUERY)
        report = explain_report(
            processor.recorder.explain, stats=stats
        )
        assert "EXPLAIN ANALYZE" in report
        assert "traverse.social" in report
        assert "visited ->" in report
        assert "page accesses" in report        # stats line appended
        assert "UNBALANCED" not in report


class TestCLIExplain:
    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("explain-cli") / "net.json"
        code = main([
            "generate", "--dataset", "UNI",
            "--users", "60", "--pois", "25", "--road-vertices", "60",
            "--seed", "3", "--output", str(path),
        ])
        assert code == 0
        return path

    def test_explain_prints_funnel_report(self, bundle, capsys):
        code = main([
            "explain", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.2", "--theta", "0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "traverse.social" in out
        assert "pruned" in out
        assert "UNBALANCED" not in out

    def test_explain_json_schema(self, bundle, capsys):
        code = main([
            "explain", "--input", str(bundle), "--user", "0",
            "--tau", "3", "--gamma", "0.2", "--theta", "0.3", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "gpssn.explain/1"
        assert payload["phases"]
        for name, funnel in payload["phases"].items():
            rule_sum = sum(
                r["pruned"] for r in funnel["rules"].values()
            )
            assert funnel["visited"] == funnel["survived"] + rule_sum, name
        # every referenced rule resolves in the registry dump
        for rule in payload["rule_totals"]:
            assert payload["rules"][rule]["lemma"] != "?"
        assert "stats" in payload

    def test_explain_takes_query_args(self, bundle, capsys):
        code = main([
            "explain", "--input", str(bundle), "--user", "0",
            "--tau", "2", "--gamma", "0.5", "--theta", "0.2",
            "--topk", "2", "--metric", "cosine",
        ])
        assert code == 0
        assert "EXPLAIN ANALYZE" in capsys.readouterr().out


def _min_query_time(processor, reps=9):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        processor.answer(QUERY)
        best = min(best, time.perf_counter() - start)
    return best


class TestExplainOverhead:
    """ISSUE guard, styled like PR 1's <20% trace-overhead test: the
    funnel machinery must be skippable. With explain off (the default)
    every hook site costs one guarded local-variable branch
    (``if ex is not None``); the 5% budget bounds the total branch cost
    against the query's own runtime."""

    def test_explain_off_branch_cost_under_five_percent(self, small_uni):
        """Bound (hook evaluations) x (measured branch cost) < 5% of the
        query time. Hook evaluations are over-approximated by the
        candidate-weighted funnel events of an explaining run (a node
        prune is one branch but counts its whole subtree)."""
        from repro.obs.funnel import ExplainRecorder

        counting = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder(explain=ExplainRecorder())
        )
        counting.answer(QUERY)
        events = sum(
            f.visited + f.pruned + f.survived
            for f in counting.recorder.explain.iter_phases()
        )
        assert events > 0

        def loop_time(with_branch, n=200_000, reps=5):
            ex = None
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                if with_branch:
                    for _ in range(n):
                        if ex is not None:
                            pass  # pragma: no cover - never taken
                else:
                    for _ in range(n):
                        pass
                best = min(best, time.perf_counter() - start)
            return best / n

        per_branch = max(loop_time(True) - loop_time(False), 0.0)

        plain = GPSSNQueryProcessor(small_uni, seed=0)
        _min_query_time(plain, reps=3)  # warm the oracle cache
        t_plain = _min_query_time(plain)
        # 2x safety factor on the event count for loop-local double
        # branches (a candidate can be checked at prune and survive).
        assert 2 * events * per_branch <= 0.05 * t_plain, (
            f"explain-off hooks too costly: {events} events x "
            f"{per_branch * 1e9:.1f} ns vs query {t_plain * 1e3:.3f} ms"
        )

    def test_disabling_explain_disables_the_work(self, small_uni):
        """The off path must not silently pay funnel accounting: a
        default processor runs no slower than an explaining one (within
        noise), and even fully on, the funnel stays inside the PR-1
        trace budget of 20%."""
        from repro.obs.funnel import ExplainRecorder

        plain = GPSSNQueryProcessor(small_uni, seed=0)
        on = GPSSNQueryProcessor(
            small_uni, seed=0, recorder=Recorder(explain=ExplainRecorder())
        )
        _min_query_time(plain, reps=3)   # warm caches before measuring
        _min_query_time(on, reps=3)
        t_off = _min_query_time(plain)
        t_on = _min_query_time(on)
        assert t_off <= t_on * 1.05 + 0.002, (
            f"explain-off slower than explain-on: {t_off:.6f}s vs {t_on:.6f}s"
        )
        assert t_on <= t_off * 1.2 + 0.002, (
            f"explain-on overhead too high: {t_off:.6f}s -> {t_on:.6f}s"
        )
