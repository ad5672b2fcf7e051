"""Smoke test of the benchmark at tiny scale; takes seconds.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric ``BENCHMARK.json`` declares is emitted with its
unit on every workload, traced and untraced; that a corrupted answer
fails the Definition-5 check; that a feasible but suboptimal answer, and
a wrong "not found", fail the comparison with the exhaustive baseline;
and that the benchmark refuses to run, without printing a result, when
the program's sources are missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, run, workloads  # noqa: E402
from repro.core.baseline import BaselineProcessor  # noqa: E402
from repro.core.query import GPSSNAnswer, GPSSNQuery  # noqa: E402
from repro.experiments.harness import (  # noqa: E402
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCALE = ExperimentScale(
    road_vertices=60, num_pois=25, num_users=60, max_groups=50
)
TINY = {
    "paper-serve": workloads.PaperServeConfig(
        datasets=("UNI", "ZIPF"), scale=TINY_SCALE, issuers=4,
        min_requests=8, digest_requests=4,
    ),
    "road-grid": workloads.RoadGridConfig(
        road_vertices=400, num_pois=40, num_users=60, setups=2,
        segment_requests=4, warmup_queries=2, min_requests=8,
        digest_requests=4,
    ),
    "dynamic-churn": workloads.DynamicChurnConfig(
        scale=TINY_SCALE, standing_queries=3, updates_per_segment=4,
        min_requests=8, digest_updates=2,
    ),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace, tmp_path):
    result = run.run(
        workload, seed=3, seconds=0.4, trace=trace,
        config=TINY[workload], out_dir=tmp_path,
    )
    assert result["correct"], result["record"]["violations"]
    assert result["record"]["reference"]["found"] > 0
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert all(
        isinstance(metric["value"], float)
        for metric in result["metrics"].values()
    )


def test_same_seed_gives_same_digest(tmp_path):
    digests = {
        run.run("dynamic-churn", seed=5, seconds=0.2, trace=False,
                config=TINY["dynamic-churn"], out_dir=tmp_path
                )["record"]["digest"]
        for _ in range(2)
    }
    assert len(digests) == 1


def test_corrupted_answer_fails_definition5():
    network = build_dataset("UNI", TINY_SCALE, seed=7)
    processor = make_processor(network, seed=7)
    for issuer in sample_query_users(network, 60, seed=0):
        query = GPSSNQuery(query_user=issuer, tau=2, gamma=0.2, theta=0.2)
        answer, _ = processor.answer(query)
        if answer.found:
            break
    else:
        pytest.fail("no tiny query found an answer")
    assert checks.definition5_violations(network, query, answer) == []

    longer = dataclasses.replace(answer, max_distance=answer.max_distance + 1)
    assert checks.definition5_violations(network, query, longer)
    alone = dataclasses.replace(answer, users=frozenset({issuer}))
    assert checks.definition5_violations(network, query, alone)


def test_suboptimal_answer_fails_baseline_comparison():
    network = build_dataset("UNI", TINY_SCALE, seed=7)
    processor = make_processor(network, seed=7)
    baseline = BaselineProcessor(network)
    # A one-group cap makes the processor return a feasible group that
    # is not always the best one.
    for issuer in sample_query_users(network, 60, seed=0):
        query = GPSSNQuery(query_user=issuer, tau=3, gamma=0.2, theta=0.2)
        capped, _ = processor.answer(query, max_groups=1)
        exact, _ = baseline.answer(query)
        if capped.found and capped.max_distance > exact.max_distance + 1e-6:
            break
    else:
        pytest.fail("no tiny query found a suboptimal capped answer")
    assert checks.definition5_violations(network, query, capped) == []
    assert checks.baseline_violations(query, capped, exact)
    assert checks.baseline_violations(query, GPSSNAnswer.empty(), exact)
    assert checks.baseline_violations(query, exact, exact) == []


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "road-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
