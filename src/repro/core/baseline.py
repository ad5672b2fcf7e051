"""The Baseline competitor (Section 6.1).

The paper's straightforward baseline: enumerate *all* user sets ``S`` of
size ``tau`` containing the query user that satisfy the interest
threshold, pair each with every candidate POI region, and keep the pair
with the smallest maximum distance — no index, no pruning.

Running this to completion is infeasible at paper scale (Figure 8 quotes
about 1.9e13 days), so, exactly like the paper, :meth:`estimate_cost`
measures the average per-pair cost over up to 100 sampled user sets and
extrapolates by the total candidate-pair count.

On the small networks used in the test suite, :meth:`answer` *does* run
to completion and serves as the ground truth the indexed algorithm is
verified against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from math import comb
from typing import FrozenSet, List, Optional, Tuple

from ..exceptions import UnknownEntityError
from ..network import SpatialSocialNetwork
from ..obs.registry import Recorder
from .metrics import MetricScorer
from .query import GPSSNAnswer, GPSSNQuery, QueryStatistics
from .refinement import (
    best_region_for_seed,
    enumerate_connected_groups,
    group_distance_maps,
)


@dataclass(frozen=True)
class BaselineCostEstimate:
    """Extrapolated cost of the exhaustive baseline (Figure 8's bars).

    ``estimated_cpu_sec`` and ``estimated_page_accesses`` scale the
    sampled per-pair averages by ``total_pairs``; the sampled values are
    retained for transparency.
    """

    sampled_pairs: int
    sampled_cpu_sec: float
    sampled_page_accesses: int
    total_pairs: float
    estimated_cpu_sec: float
    estimated_page_accesses: float


class BaselineProcessor:
    """Index-free exhaustive GP-SSN evaluation."""

    def __init__(
        self,
        network: SpatialSocialNetwork,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.network = network
        self.recorder = recorder or Recorder()

    # -- exact evaluation (ground truth for tests) ---------------------------

    def answer(
        self,
        query: GPSSNQuery,
        max_groups: Optional[int] = None,
    ) -> Tuple[GPSSNAnswer, QueryStatistics]:
        """Exhaustively evaluate the query (small networks only).

        Enumerates every connected ``tau``-group passing the interest
        threshold and every seed POI, evaluating each pair exactly; no
        pruning beyond the predicates themselves.
        """
        network = self.network
        if not network.social.has_user(query.query_user):
            raise UnknownEntityError(f"unknown query user {query.query_user}")
        stats = QueryStatistics()
        stats.pruning.total_users = network.social.num_users
        stats.pruning.total_pois = network.num_pois
        started = time.perf_counter()

        best_value = math.inf
        best_pair: Optional[Tuple[FrozenSet[int], FrozenSet[int]]] = None
        seeds = network.poi_ids()

        scorer = MetricScorer(query.metric)
        # The baseline's funnel is the contrast case: the group
        # enumeration still rejects incompatible extensions (a
        # predicate, not a pruning shortcut), but every surviving
        # (group, seed) pair is examined — refine.pairs prunes nothing.
        rec = self.recorder
        ex = rec.explain if rec.explain.active else None
        for group in enumerate_connected_groups(
            network, query.query_user, query.tau, query.gamma,
            limit=max_groups, scorer=scorer, explain=ex,
        ):
            stats.groups_refined += 1
            dist_maps = group_distance_maps(network, group)
            interests = [
                network.social.user(uid).interests for uid in group
            ]
            if ex is not None:
                ex.visit("refine.pairs", len(seeds))
                ex.survive("refine.pairs", len(seeds))
            for seed in seeds:
                stats.pruning.candidate_pairs_examined += 1
                region_ids = network.pois_within(seed, query.radius)
                result = best_region_for_seed(
                    network, interests, dist_maps, seed, region_ids, query.theta
                )
                if result is None:
                    continue
                pois, value = result
                if value < best_value or (
                    value == best_value
                    and best_pair is not None
                    and (sorted(group), sorted(pois)) < (sorted(best_pair[0]), sorted(best_pair[1]))
                ):
                    best_value = value
                    best_pair = (group, pois)

        stats.cpu_time_sec = time.perf_counter() - started
        m = network.social.num_users
        n = network.num_pois
        stats.pruning.total_possible_pairs = float(
            comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
        )
        # The baseline scans users and POIs sequentially: charge one page
        # per 32 objects touched per group evaluated (a generous page of
        # packed records), so I/O scales with work done, as in the paper.
        objects_touched = stats.groups_refined * (query.tau + n)
        stats.page_accesses = math.ceil(objects_touched / 32)
        rec.record_query(stats)
        if best_pair is None:
            return GPSSNAnswer.empty(), stats
        return (
            GPSSNAnswer(
                users=best_pair[0], pois=best_pair[1], max_distance=best_value
            ),
            stats,
        )

    def answer_topk(
        self,
        query: GPSSNQuery,
        k: int,
        max_groups: Optional[int] = None,
    ) -> Tuple[List[GPSSNAnswer], QueryStatistics]:
        """Exhaustive top-k: the ``k`` best distinct ``(S, R)`` pairs.

        Ground truth for :meth:`GPSSNQueryProcessor.answer_topk` on
        small networks; no pruning beyond the predicates.
        """
        from ..exceptions import InvalidParameterError

        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        network = self.network
        if not network.social.has_user(query.query_user):
            raise UnknownEntityError(f"unknown query user {query.query_user}")
        stats = QueryStatistics()
        stats.pruning.total_users = network.social.num_users
        stats.pruning.total_pois = network.num_pois
        started = time.perf_counter()

        best: List[Tuple[float, FrozenSet[int], FrozenSet[int]]] = []
        seen: set = set()
        seeds = network.poi_ids()
        scorer = MetricScorer(query.metric)
        rec = self.recorder
        ex = rec.explain if rec.explain.active else None
        for group in enumerate_connected_groups(
            network, query.query_user, query.tau, query.gamma,
            limit=max_groups, scorer=scorer, explain=ex,
        ):
            stats.groups_refined += 1
            dist_maps = group_distance_maps(network, group)
            interests = [network.social.user(uid).interests for uid in group]
            if ex is not None:
                ex.visit("refine.pairs", len(seeds))
                ex.survive("refine.pairs", len(seeds))
            for seed in seeds:
                stats.pruning.candidate_pairs_examined += 1
                region_ids = network.pois_within(seed, query.radius)
                result = best_region_for_seed(
                    network, interests, dist_maps, seed, region_ids, query.theta
                )
                if result is None:
                    continue
                pois, value = result
                key = (group, pois)
                if key in seen:
                    continue
                seen.add(key)
                best.append((value, group, pois))
        best.sort(key=lambda item: (item[0], sorted(item[1]), sorted(item[2])))
        best = best[:k]

        stats.cpu_time_sec = time.perf_counter() - started
        m = network.social.num_users
        n = network.num_pois
        stats.pruning.total_possible_pairs = float(
            comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
        )
        objects_touched = stats.groups_refined * (query.tau + n)
        stats.page_accesses = math.ceil(objects_touched / 32)
        rec.record_query(stats)
        answers = [
            GPSSNAnswer(users=users, pois=pois, max_distance=value)
            for value, users, pois in best
        ]
        return answers, stats

    # -- sampled extrapolation (Figure 8's method) -----------------------------

    def estimate_cost(
        self, query: GPSSNQuery, num_samples: int = 100
    ) -> BaselineCostEstimate:
        """Estimate the exhaustive cost by sampling (the paper's method).

        Takes up to ``num_samples`` sample groups, measures the average
        CPU time and page accesses to evaluate one (S, R) pair, and
        multiplies by the total number of candidate pairs
        ``C(m-1, tau-1) * n``.
        """
        network = self.network
        m = network.social.num_users
        n = network.num_pois
        total_pairs = float(
            comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
        )

        sampled_pairs = 0
        started = time.perf_counter()
        scorer = MetricScorer(query.metric)
        groups = enumerate_connected_groups(
            network, query.query_user, query.tau, query.gamma,
            limit=max(1, num_samples), scorer=scorer,
        )
        seeds = network.poi_ids()
        for group in groups:
            dist_maps = group_distance_maps(network, group)
            interests = [network.social.user(uid).interests for uid in group]
            seed = seeds[sampled_pairs % len(seeds)]
            region_ids = network.pois_within(seed, query.radius)
            best_region_for_seed(
                network, interests, dist_maps, seed, region_ids, query.theta
            )
            sampled_pairs += 1
        sampled_cpu = time.perf_counter() - started
        if sampled_pairs == 0:
            # No eligible group at all: charge one pair's worth of scan.
            sampled_pairs = 1
            sampled_cpu = max(sampled_cpu, 1e-6)
        sampled_pages = math.ceil(sampled_pairs * (query.tau + n) / 32)

        per_pair_cpu = sampled_cpu / sampled_pairs
        per_pair_pages = sampled_pages / sampled_pairs
        return BaselineCostEstimate(
            sampled_pairs=sampled_pairs,
            sampled_cpu_sec=sampled_cpu,
            sampled_page_accesses=sampled_pages,
            total_pairs=total_pairs,
            estimated_cpu_sec=per_pair_cpu * total_pairs,
            estimated_page_accesses=per_pair_pages * total_pairs,
        )
