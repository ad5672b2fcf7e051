"""Shared benchmark configuration.

Every benchmark regenerates one paper table/figure at laptop scale
(structural sizes ~1% of Table 3, thresholds verbatim), writes the
reproduced rows to ``benchmarks/results/<name>.txt``, asserts the
qualitative shape the paper reports, and times one representative query
through pytest-benchmark.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.query import GPSSNQuery
from repro.experiments.figures import _pruning_workloads
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)
from repro.experiments.reporting import format_table

#: Laptop-scale structural sizes used by every benchmark (~1% of the
#: paper's defaults; thresholds/tau/pivots are the paper's own values).
BENCH_SCALE = ExperimentScale(
    road_vertices=300, num_pois=100, num_users=300, max_groups=1500
)
BENCH_SEED = 7
BENCH_QUERIES = 4

RESULTS_DIR = Path(__file__).parent / "results"
CHECKER_PATH = (
    Path(__file__).resolve().parent.parent
    / "scripts"
    / "check_bench_regression.py"
)


@lru_cache(maxsize=None)
def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", CHECKER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gate_failures(payload: dict) -> list:
    """The violated gates of ``payload``, as the CI gate step reports
    them (``scripts/check_bench_regression.py``)."""
    return _checker().check(payload)


def write_result(name: str, headers, rows, title: str) -> str:
    """Render, persist, and return one reproduced table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = format_table(headers, rows, title=title)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def pruning_workloads():
    """The shared Figure-7 workload run (all four datasets, defaults)."""
    return _pruning_workloads(BENCH_SCALE, BENCH_QUERIES, BENCH_SEED)


@pytest.fixture(scope="session")
def uni_processor():
    """One UNI network + processor + default query for timing loops."""
    network = build_dataset("UNI", BENCH_SCALE, seed=BENCH_SEED)
    processor = make_processor(network, seed=BENCH_SEED)
    issuer = sample_query_users(network, 1, seed=BENCH_SEED)[0]
    query = GPSSNQuery(query_user=issuer)
    return network, processor, query
