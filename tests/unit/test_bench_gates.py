"""The gates of the committed ``BENCH_*.json`` payloads and their checker.

Every payload under ``benchmarks/results`` declares its own gates, and
``scripts/check_bench_regression.py`` checks them all with one
comparator. The committed payloads must pass; a copy doctored past any
one gate, stripped of its gates or of a gated value must fail with
exit status 1.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RESULTS_DIR = ROOT / "benchmarks" / "results"
PAYLOADS = sorted(RESULTS_DIR.glob("BENCH_*.json"))


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", ROOT / "scripts" / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _payload(name: str) -> dict:
    return json.loads((RESULTS_DIR / f"BENCH_{name}.json").read_text())


def _exit_status(tmp_path, payload, baseline=None) -> int:
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    argv = [str(path)]
    if baseline is not None:
        base_path = tmp_path / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        argv = ["--baseline", str(base_path)] + argv
    return checker.main(argv)


def test_every_committed_payload_is_found():
    assert [p.stem for p in PAYLOADS] == [
        "BENCH_batch_executor", "BENCH_dynamic", "BENCH_pair_kernel",
        "BENCH_pruning_funnel", "BENCH_serve", "BENCH_snapshot_scale",
        "BENCH_telemetry",
    ]


@pytest.mark.parametrize("path", PAYLOADS, ids=lambda p: p.stem)
def test_committed_payload_declares_and_passes_gates(path):
    payload = json.loads(path.read_text())
    assert payload["gates"]
    assert checker.check(payload) == []


def test_cli_passes_every_committed_payload(capsys):
    assert checker.main([str(p) for p in PAYLOADS]) == 0
    assert capsys.readouterr().err == ""


def _parent(payload, path: str):
    """The container holding a dotted path's leaf, and the leaf's key."""
    *parents, leaf = path.split(".")
    node = payload
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(leaf) if isinstance(node, list) else leaf


def _set(path: str, value):
    def apply(payload):
        node, key = _parent(payload, path)
        node[key] = value
    return apply


def _delete(path: str):
    def apply(payload):
        node, key = _parent(payload, path)
        del node[key]
    return apply


DOCTORED = [
    # max
    ("pair_kernel", _set("datasets.UNI.vector_cpu_sec", 1.254)),
    ("pair_kernel", _set("datasets.Gow+Col.vector_cpu_sec", 0.6261)),
    ("serve", _set("overhead", 0.0501)),
    ("serve", _set("overhead", float("nan"))),
    ("telemetry", _set("delta.overhead", 0.06)),
    ("telemetry", _set("profiler.overhead", 0.06)),
    ("snapshot_scale", _set("rows.0.query_sec_per_answer", 1.01)),
    ("snapshot_scale", _set("rows.-1.attach_rss_mb", 40.0)),
    # min
    ("dynamic", _set("speedup", 4.99)),
    ("snapshot_scale", _set("rows.-1.speedup", 9.9)),
    ("batch_executor", _set("speedup", 1.99)),
    # equals
    ("serve", _set("outcomes_match", False)),
    ("serve", _set("outcomes_match", 1)),
    ("telemetry", _set("outcomes_match", False)),
    ("telemetry", _set("counters_match", False)),
    ("dynamic", _set("outcomes_match", False)),
    ("dynamic", _set("compaction_exact", False)),
    ("snapshot_scale", _set("rows.1.outcomes_match", False)),
    # a gated value missing, not a number, or matching nothing
    ("serve", _delete("overhead")),
    ("telemetry", _delete("profiler")),
    ("dynamic", _delete("compaction_exact")),
    ("pair_kernel", _delete("datasets.UNI")),
    ("snapshot_scale", _set("rows", [])),
    ("serve", _set("overhead", "0.01")),
    # no gates
    ("serve", _delete("gates")),
    ("dynamic", _set("gates", [])),
    ("serve", _set("gates", [{"value": "overhead"}])),
    ("serve", _set("gates", [{"value": "overhead", "max": 0.05, "min": 0}])),
]


@pytest.mark.parametrize(
    "name,doctor", DOCTORED, ids=[f"{n}-{i}" for i, (n, _) in enumerate(DOCTORED)]
)
def test_doctored_payload_fails(tmp_path, name, doctor):
    payload = _payload(name)
    assert checker.check(payload) == []
    doctor(payload)
    assert checker.check(payload)
    assert _exit_status(tmp_path, payload) == 1


def test_dynamic_floor_has_no_fallback(tmp_path):
    """Without its floor a 2x dynamic payload used to pass at 1x; the
    floor now travels with the payload's gates and holds at 5x."""
    payload = _payload("dynamic")
    payload.pop("min_speedup", None)
    payload["speedup"] = 2.0
    assert _exit_status(tmp_path, payload) == 1


class TestFunnelBaseline:
    def test_honest_baseline_passes(self, tmp_path):
        funnel = _payload("pruning_funnel")
        assert _exit_status(tmp_path, funnel, baseline=funnel) == 0

    def test_doubled_baseline_fails(self, tmp_path):
        funnel = _payload("pruning_funnel")
        doubled = copy.deepcopy(funnel)
        for entry in doubled["datasets"].values():
            entry["rule_counts"] = {
                rule: 2 * count for rule, count in entry["rule_counts"].items()
            }
        failures = checker.check(funnel, doubled)
        gated = sum(
            1
            for entry in doubled["datasets"].values()
            for count in entry["rule_counts"].values()
            if count >= 10
        )
        assert len(failures) == gated > 0
        assert _exit_status(tmp_path, funnel, baseline=doubled) == 1

    @staticmethod
    def _funnel(**counts) -> dict:
        return {"gates": _payload("pruning_funnel")["gates"],
                "datasets": {"UNI": {"rule_counts": counts}}}

    def test_loss_of_exactly_a_fifth_passes(self):
        baseline = self._funnel(rule=15)
        assert checker.check(self._funnel(rule=12), baseline) == []
        assert checker.check(self._funnel(rule=11), baseline)

    def test_small_rules_are_exempt(self):
        baseline = self._funnel(small=9, large=10)
        assert checker.check(self._funnel(large=8), baseline) == []
        assert checker.check(self._funnel(small=9), baseline)

    def test_missing_rule_counts_as_zero(self):
        funnel = _payload("pruning_funnel")
        counts = funnel["datasets"]["UNI"]["rule_counts"]
        current = copy.deepcopy(funnel)
        rule = max(counts, key=counts.get)
        del current["datasets"]["UNI"]["rule_counts"][rule]
        assert checker.check(current, funnel) == [
            f"datasets.UNI.rule_counts.{rule} = 0 is below 0.8 x the "
            f"baseline's {counts[rule]}"
        ]

    def test_missing_dataset_fails(self):
        funnel = _payload("pruning_funnel")
        current = copy.deepcopy(funnel)
        del current["datasets"]["UNI"]
        assert any(
            "datasets.UNI" in m and "not recorded" in m
            for m in checker.check(current, funnel)
        )

    def test_baseline_applies_by_schema(self, tmp_path):
        """``--baseline`` is a funnel payload; other payloads keep
        checking against themselves."""
        funnel = _payload("pruning_funnel")
        assert _exit_status(tmp_path, _payload("serve"), baseline=funnel) == 0
