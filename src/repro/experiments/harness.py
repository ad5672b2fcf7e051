"""Workload construction and measured execution for the experiments.

The paper's experiments (Section 6) run GP-SSN queries over four
datasets — two simulated real spatial-social networks (Bri+Cal, Gow+Col)
and two synthetic ones (UNI, ZIPF) — under the Table-3 parameter grid,
reporting CPU time, I/O (page accesses), and pruning powers. This module
provides the pieces every figure driver shares:

* :func:`build_dataset` — construct any of the four datasets at a given
  :class:`ExperimentScale`;
* :func:`sample_query_users` — draw query issuers (users with at least
  one friend, so the social predicates are non-trivial);
* :func:`run_workload` — execute a query batch against a processor and
  aggregate the measurements.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.algorithm import GPSSNQueryProcessor
from ..core.query import GPSSNQuery, PruningCounters
from ..datagen.realworld import brightkite_california, gowalla_colorado
from ..datagen.synthetic import uni_dataset, zipf_dataset
from ..exceptions import InvalidParameterError
from ..network import SpatialSocialNetwork
from ..obs import MetricsRegistry, Recorder, aggregate_spans

#: The four evaluation datasets of Section 6.1.
DATASET_NAMES: Tuple[str, ...] = ("Bri+Cal", "Gow+Col", "UNI", "ZIPF")


@dataclass(frozen=True)
class ExperimentScale:
    """Structural sizes for one experiment run.

    ``road_vertices``, ``num_pois``, and ``num_users`` are the *actual*
    sizes used (already scaled down from the paper's Table 3 where
    needed); ``max_groups`` caps refinement enumeration (the paper's
    subset-sampling escape hatch) so a single query stays bounded.
    """

    road_vertices: int = 300
    num_pois: int = 100
    num_users: int = 300
    num_keywords: int = 5
    max_groups: Optional[int] = 2000

    def scaled(self, road: float = 1.0, pois: float = 1.0, users: float = 1.0
               ) -> "ExperimentScale":
        return ExperimentScale(
            road_vertices=max(30, int(self.road_vertices * road)),
            num_pois=max(20, int(self.num_pois * pois)),
            num_users=max(20, int(self.num_users * users)),
            num_keywords=self.num_keywords,
            max_groups=self.max_groups,
        )


#: Default laptop-scale sizes (1% of the paper's defaults).
DEFAULT_SCALE = ExperimentScale()


def build_dataset(
    name: str,
    scale: ExperimentScale = DEFAULT_SCALE,
    seed: int = 7,
) -> SpatialSocialNetwork:
    """Construct one of the four Section-6.1 datasets.

    For the simulated real datasets the structural sizes follow Table 2's
    proportions, shrunk to roughly the requested user count.
    """
    if name == "UNI":
        return uni_dataset(
            num_road_vertices=scale.road_vertices,
            num_pois=scale.num_pois,
            num_users=scale.num_users,
            num_keywords=scale.num_keywords,
            seed=seed,
        )
    if name == "ZIPF":
        return zipf_dataset(
            num_road_vertices=scale.road_vertices,
            num_pois=scale.num_pois,
            num_users=scale.num_users,
            num_keywords=scale.num_keywords,
            seed=seed,
        )
    if name == "Bri+Cal":
        return brightkite_california(
            scale=scale.num_users / 40_000.0,
            num_keywords=scale.num_keywords,
            seed=seed,
        )
    if name == "Gow+Col":
        return gowalla_colorado(
            scale=scale.num_users / 40_000.0,
            num_keywords=scale.num_keywords,
            seed=seed,
        )
    raise InvalidParameterError(
        f"unknown dataset {name!r}; expected one of {DATASET_NAMES}"
    )


def make_processor(
    network: SpatialSocialNetwork,
    num_road_pivots: int = 5,
    num_social_pivots: int = 5,
    seed: int = 7,
) -> GPSSNQueryProcessor:
    """Build the indexed processor with the Table-3 default pivot counts."""
    return GPSSNQueryProcessor(
        network,
        num_road_pivots=num_road_pivots,
        num_social_pivots=num_social_pivots,
        seed=seed,
    )


def sample_query_users(
    network: SpatialSocialNetwork,
    count: int,
    seed: int = 0,
    min_component: int = 12,
) -> List[int]:
    """Draw ``count`` query issuers from the giant social component.

    Issuers need at least one friend and a connected component of at
    least ``min_component`` users — a group-planning query only makes
    sense for someone with enough social reach to form a group. Falls
    back to any befriended user when the component filter empties the
    pool (tiny test networks).
    """
    rng = np.random.default_rng(seed)
    social = network.social
    component_size: Dict[int, int] = {}
    seen: set = set()
    for uid in social.user_ids():
        if uid in seen:
            continue
        component = social.connected_component(uid)
        for member in component:
            component_size[member] = len(component)
        seen.update(component)
    eligible = [
        uid for uid in social.user_ids()
        if social.friends(uid) and component_size[uid] >= min_component
    ]
    if not eligible:
        eligible = [uid for uid in social.user_ids() if social.friends(uid)]
    if not eligible:
        raise InvalidParameterError("no user has any friends")
    picks = rng.choice(eligible, size=min(count, len(eligible)), replace=False)
    return [int(u) for u in picks]


@dataclass
class WorkloadResult:
    """Aggregated measurements of one query workload."""

    label: str
    num_queries: int = 0
    answers_found: int = 0
    cpu_times: List[float] = field(default_factory=list)
    page_accesses: List[int] = field(default_factory=list)
    pruning: PruningCounters = field(default_factory=PruningCounters)
    groups_refined: int = 0
    #: total seconds per span name over the whole workload (filled when
    #: the workload ran with an active tracer — the default)
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: per-phase candidate funnel (visited/survived/pruned + per-rule
    #: tallies) aggregated over the workload, keyed by phase name —
    #: filled when the workload ran with an active explain recorder
    #: (the default); see :class:`repro.obs.funnel.ExplainRecorder`
    funnel: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: total candidates pruned per rule id, summed over phases
    rule_counts: Dict[str, int] = field(default_factory=dict)
    #: the metrics registry the workload recorded into
    metrics: Optional[MetricsRegistry] = None

    @property
    def mean_cpu(self) -> float:
        return statistics.fmean(self.cpu_times) if self.cpu_times else 0.0

    @property
    def mean_io(self) -> float:
        return statistics.fmean(self.page_accesses) if self.page_accesses else 0.0

    def mean_phase(self, name: str) -> float:
        """Mean seconds per query spent in the spans named ``name``."""
        if not self.num_queries:
            return 0.0
        return self.phase_times.get(name, 0.0) / self.num_queries

    def pruned_by(self, *rules: str) -> int:
        """Total candidates pruned by the given rule ids (all phases)."""
        return sum(self.rule_counts.get(rule, 0) for rule in rules)

    def merge_counters(self, other: PruningCounters) -> None:
        p = self.pruning
        p.social_index_pruned += other.social_index_pruned
        p.social_object_pruned += other.social_object_pruned
        p.social_pruned_by_distance += other.social_pruned_by_distance
        p.social_pruned_by_interest += other.social_pruned_by_interest
        p.road_index_pruned += other.road_index_pruned
        p.road_object_pruned += other.road_object_pruned
        p.road_pruned_by_distance += other.road_pruned_by_distance
        p.road_pruned_by_matching += other.road_pruned_by_matching
        p.total_users += other.total_users
        p.total_pois += other.total_pois
        p.candidate_pairs_examined += other.candidate_pairs_examined
        p.total_possible_pairs += other.total_possible_pairs


def run_workload(
    processor: GPSSNQueryProcessor,
    query_users: Sequence[int],
    tau: int = 5,
    gamma: float = 0.5,
    theta: float = 0.5,
    radius: float = 2.0,
    max_groups: Optional[int] = 2000,
    label: str = "",
    recorder: Optional[Recorder] = None,
    workers: int = 0,
    backend: str = "auto",
) -> WorkloadResult:
    """Run one query per issuer and aggregate the measurements.

    The workload runs under an active span tracer *and* funnel recorder
    by default (pass a ``recorder`` to supply your own, e.g. a plain
    ``Recorder()`` for overhead-free timing runs); the per-phase time
    totals land in :attr:`WorkloadResult.phase_times` keyed by span
    name, and the candidate funnel in :attr:`WorkloadResult.funnel` /
    :attr:`WorkloadResult.rule_counts` keyed by phase and rule id.

    ``workers > 0`` routes the workload through the concurrent
    :class:`~repro.service.executor.BatchQueryExecutor` (``backend``
    picks serial/process; answers are identical to the serial path).
    Per-query statistics still aggregate — they travel back inside each
    outcome — but the per-rule funnel stays empty: worker processes run
    recorder-free, exactly like the serial overhead-free timing mode.
    Answers are identical to the in-process path; enumeration-order work
    counters (e.g. ``candidate_pairs_examined``) can shift by a hair
    because workers run on the canonicalized snapshot restore of the
    network rather than the construction-order original.
    """
    if workers > 0:
        return _run_workload_concurrent(
            processor, query_users, tau=tau, gamma=gamma, theta=theta,
            radius=radius, max_groups=max_groups, label=label,
            recorder=recorder, workers=workers, backend=backend,
        )
    result = WorkloadResult(label=label)
    rec = recorder if recorder is not None else Recorder.explaining()
    result.metrics = rec.metrics
    previous = processor.recorder
    processor.recorder = rec
    try:
        for uq in query_users:
            query = GPSSNQuery(
                query_user=uq, tau=tau, gamma=gamma, theta=theta, radius=radius
            )
            answer, stats = processor.answer(query, max_groups=max_groups)
            result.num_queries += 1
            result.answers_found += int(answer.found)
            result.cpu_times.append(stats.cpu_time_sec)
            result.page_accesses.append(stats.page_accesses)
            result.groups_refined += stats.groups_refined
            result.merge_counters(stats.pruning)
    finally:
        processor.recorder = previous
    result.phase_times = {
        name: entry["total_sec"]
        for name, entry in aggregate_spans(rec.tracer.roots).items()
    }
    if rec.explain.active:
        result.funnel = rec.explain.as_dict()
        result.rule_counts = rec.explain.rule_counts()
    return result


def _run_workload_concurrent(
    processor: GPSSNQueryProcessor,
    query_users: Sequence[int],
    tau: int,
    gamma: float,
    theta: float,
    radius: float,
    max_groups: Optional[int],
    label: str,
    recorder: Optional[Recorder],
    workers: int,
    backend: str,
) -> WorkloadResult:
    """The ``workers > 0`` arm of :func:`run_workload`."""
    from ..service import BatchQueryExecutor

    result = WorkloadResult(label=label)
    rec = recorder if recorder is not None else Recorder()
    result.metrics = rec.metrics
    queries = [
        GPSSNQuery(
            query_user=uq, tau=tau, gamma=gamma, theta=theta, radius=radius
        )
        for uq in query_users
    ]
    with BatchQueryExecutor.from_processor(
        processor, workers=workers, backend=backend, recorder=rec
    ) as executor:
        outcomes = executor.run(queries, max_groups=max_groups)
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"workload query #{outcome.index} failed "
                f"({outcome.status}): {outcome.error}"
            )
        stats = outcome.stats
        result.num_queries += 1
        result.answers_found += int(outcome.answer.found)
        result.cpu_times.append(stats.cpu_time_sec)
        result.page_accesses.append(stats.page_accesses)
        result.groups_refined += stats.groups_refined
        result.merge_counters(stats.pruning)
        for phase, seconds in stats.phase_times.items():
            result.phase_times[phase] = (
                result.phase_times.get(phase, 0.0) + seconds
            )
    return result
