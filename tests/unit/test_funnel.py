"""Unit tests for the pruning funnel and EXPLAIN ANALYZE rendering."""

import inspect
import json
import math

import pytest

from repro.obs import (
    NULL_EXPLAIN,
    ExplainRecorder,
    NullExplain,
    PhaseFunnel,
    RULES,
    explain_report,
    explain_to_json,
    rule_info,
)
from repro.obs.funnel import RuleStats


class TestPhaseFunnel:
    def test_balanced_funnel(self):
        ex = ExplainRecorder()
        ex.visit("phase", 10)
        ex.prune("phase", "rule.a", 3)
        ex.prune("phase", "rule.b", 2)
        ex.survive("phase", 5)
        funnel = ex.phase("phase")
        assert funnel.visited == 10
        assert funnel.pruned == 5
        assert funnel.survived == 5
        assert funnel.balanced()
        assert funnel.prune_rate == pytest.approx(0.5)

    def test_unbalanced_funnel_detected(self):
        ex = ExplainRecorder()
        ex.visit("phase", 10)
        ex.prune("phase", "rule.a", 3)
        ex.survive("phase", 4)  # 3 candidates unaccounted for
        assert not ex.phase("phase").balanced()

    def test_empty_phase(self):
        funnel = PhaseFunnel("empty")
        assert funnel.prune_rate == 0.0
        assert funnel.balanced()

    def test_as_dict_shape(self):
        ex = ExplainRecorder()
        ex.visit("p", 4)
        ex.prune("p", "r", 1, margin=0.25)
        ex.survive("p", 3)
        d = ex.phase("p").as_dict()
        assert d["visited"] == 4 and d["survived"] == 3 and d["pruned"] == 1
        assert d["rules"]["r"]["pruned"] == 1
        assert d["rules"]["r"]["margin"]["count"] == 1
        assert d["rules"]["r"]["margin"]["max"] == pytest.approx(0.25)


class TestExplainRecorder:
    def test_phases_record_in_call_order(self):
        ex = ExplainRecorder()
        for name in ("traverse.social", "traverse.road", "refine.pairs"):
            ex.visit(name)
        assert [f.name for f in ex.iter_phases()] == [
            "traverse.social", "traverse.road", "refine.pairs",
        ]

    def test_rule_counts_sum_across_phases(self):
        ex = ExplainRecorder()
        ex.prune("a", "shared.rule", 2)
        ex.prune("b", "shared.rule", 3)
        ex.prune("b", "other.rule", 1)
        assert ex.rule_counts() == {"shared.rule": 5, "other.rule": 1}

    def test_margins_sampled_only_when_finite(self):
        ex = ExplainRecorder()
        ex.prune("p", "r", margin=1.5)
        ex.prune("p", "r", margin=math.inf)
        ex.prune("p", "r", margin=float("nan"))
        ex.prune("p", "r")  # no margin at all
        stats = ex.phase("p").rules["r"]
        assert stats.pruned == 4
        assert stats.margins.count == 1
        assert stats.margins.max == pytest.approx(1.5)

    def test_margin_buckets_are_bounded(self):
        ex = ExplainRecorder()
        for _ in range(10):
            for i in range(1000):
                ex.prune("p", "r", margin=float(i))
        stats = ex.phase("p").rules["r"]
        assert stats.pruned == 10_000
        assert stats.margins.count == 10_000
        # Ten passes over one value range fill no new buckets.
        assert stats.margins.num_buckets < 400

    def test_clear(self):
        ex = ExplainRecorder()
        ex.visit("p", 3)
        ex.clear()
        assert ex.as_dict() == {}
        assert ex.rule_counts() == {}

    def test_as_dict_is_json_serializable(self):
        ex = ExplainRecorder()
        ex.visit("p", 2)
        ex.prune("p", "r", margin=0.1)
        ex.survive("p", 1)
        snapshot = json.loads(json.dumps(ex.as_dict()))
        assert snapshot["p"]["visited"] == 2


PUBLIC_EXPLAIN_API = sorted(
    name for name in dir(ExplainRecorder) if not name.startswith("_")
)


class TestNullExplain:
    def test_all_hooks_are_noops(self):
        null = NullExplain()
        null.visit("p", 5)
        null.prune("p", "r", 2, margin=1.0)
        null.survive("p", 3)
        null.clear()
        assert null.phases == {}
        assert null.rule_counts() == {}
        assert null.as_dict() == {}
        assert list(null.iter_phases()) == []
        assert not null.active
        assert ExplainRecorder.active

    def test_shared_instance(self):
        from repro.obs.registry import Recorder

        assert Recorder().explain is NULL_EXPLAIN
        assert Recorder().explain is Recorder().explain

    @pytest.mark.parametrize("name", PUBLIC_EXPLAIN_API)
    def test_api_parity(self, name):
        """NullExplain mirrors ExplainRecorder's full public surface —
        attribute for attribute, signature for signature — so code
        written against one never breaks against the other."""
        assert hasattr(NullExplain, name), name
        real = getattr(ExplainRecorder, name)
        null = getattr(NullExplain, name)
        if callable(real):
            assert callable(null), name
            # Parameters must match exactly; return annotations may
            # differ (the null variant returns nothing by design).
            assert (
                inspect.signature(real).parameters
                == inspect.signature(null).parameters
            ), name


class TestRuleRegistry:
    EXPECTED_RULES = {
        "idx.road_matching", "idx.road_distance",
        "idx.social_interest", "idx.social_hops",
        "obj.poi_matching", "obj.poi_distance", "obj.poi_witness",
        "obj.social_interest", "obj.social_hops",
        "refine.social_hops", "refine.corollary2", "refine.seed_matching",
        "pair.distance", "group.interest",
        "cq.social_hops", "cq.spatial_ball", "cq.poi_monotone",
        "cq.issuer_interest", "cq.member_distance",
    }

    def test_every_expected_rule_registered(self):
        assert set(RULES) == self.EXPECTED_RULES

    def test_entries_carry_paper_metadata(self):
        for rule, entry in RULES.items():
            for key in ("lemma", "figure", "margin_unit", "description"):
                assert entry.get(key), f"{rule} missing {key}"

    def test_rule_info_stub_for_unknown(self):
        info = rule_info("no.such.rule")
        assert info["lemma"] == "?"
        assert info["description"] == "unregistered rule"

    def test_mapping_protocol(self):
        assert "pair.distance" in RULES
        assert len(RULES) == len(self.EXPECTED_RULES)
        assert RULES["pair.distance"]["lemma"]
        assert RULES.get("missing") is None


class TestExplainReport:
    def _recorder(self):
        ex = ExplainRecorder()
        ex.visit("traverse.social", 40)
        ex.prune("traverse.social", "obj.social_hops", 12, margin=2.0)
        ex.prune("traverse.social", "obj.social_interest", 18, margin=0.1)
        ex.survive("traverse.social", 10)
        ex.visit("refine.pairs", 100)
        ex.prune("refine.pairs", "pair.distance", 60, margin=5.0)
        ex.survive("refine.pairs", 40)
        return ex

    def test_report_structure(self):
        report = explain_report(self._recorder())
        assert report.startswith("EXPLAIN ANALYZE")
        assert "traverse.social: 40 visited -> 10 survived (75.0% pruned)" in report
        assert "refine.pairs: 100 visited -> 40 survived (60.0% pruned)" in report
        # rules sorted by descending prune count within the phase
        assert report.index("obj.social_interest") < report.index(
            "obj.social_hops"
        )
        # lemma tags from the registry appear
        assert "[Lemma 3" in report or "[Lemma 4" in report

    def test_report_includes_margin_percentiles(self):
        report = explain_report(self._recorder())
        assert "margin p50=" in report and "p95=" in report

    def test_unbalanced_phase_flagged(self):
        ex = ExplainRecorder()
        ex.visit("p", 10)
        ex.survive("p", 4)
        report = explain_report(ex)
        assert "UNBALANCED" in report

    def test_empty_recorder(self):
        report = explain_report(ExplainRecorder())
        assert "no funnel recorded" in report

    def test_custom_title(self):
        report = explain_report(self._recorder(), title="MY REPORT")
        assert report.startswith("MY REPORT")


class TestExplainToJson:
    def test_schema_and_totals(self):
        ex = ExplainRecorder()
        ex.visit("p", 10)
        ex.prune("p", "pair.distance", 6, margin=1.0)
        ex.survive("p", 4)
        payload = json.loads(explain_to_json(ex))
        assert payload["schema"] == "gpssn.explain/1"
        assert payload["phases"]["p"]["visited"] == 10
        assert payload["rule_totals"] == {"pair.distance": 6}
        # only referenced rules are embedded, with their registry entries
        assert set(payload["rules"]) == {"pair.distance"}
        assert payload["rules"]["pair.distance"]["lemma"]

    def test_stats_embedded_when_given(self):
        from repro.core.query import QueryStatistics

        ex = ExplainRecorder()
        ex.visit("p", 1)
        ex.survive("p", 1)
        stats = QueryStatistics(cpu_time_sec=0.5, page_accesses=9)
        payload = json.loads(explain_to_json(ex, stats=stats))
        assert payload["stats"]["cpu_time_sec"] == 0.5
        assert payload["stats"]["page_accesses"] == 9

    def test_empty_funnel_still_valid_json(self):
        payload = json.loads(explain_to_json(ExplainRecorder()))
        assert payload["phases"] == {}
        assert payload["rules"] == {}


class TestRuleStats:
    def test_margin_summary_absent_without_samples(self):
        stats = RuleStats("r")
        stats.pruned = 3
        assert stats.as_dict() == {"pruned": 3}
