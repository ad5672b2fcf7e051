"""A scan-based competitor: object-level pruning without indexes.

Between the paper's two extremes — the exhaustive Baseline and the
fully indexed Algorithm 2 — sits a natural middle design: apply the
object-level pruning rules (Lemmas 1, 3, 4) by *linear scans* over all
users and POIs, then refine exactly like Algorithm 2. Comparing it with
the indexed processor isolates what the index structures themselves buy
(fewer page accesses, index-level pruning) from what the pruning rules
buy.

I/O accounting mirrors a sequential scan: one page per
:data:`OBJECTS_PER_PAGE` objects read.
"""

from __future__ import annotations

import math
import time
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import UnknownEntityError
from ..index.pivots import (
    RoadPivotIndex,
    SocialPivotIndex,
    pivot_lower_bound,
    select_pivots_road,
    select_pivots_social,
)
from ..network import SpatialSocialNetwork
from ..obs.registry import Recorder
from ..roadnet.shortest_path import position_distance_from_map
from .metrics import MetricScorer
from .pruning import social_distance_prunable
from .query import GPSSNAnswer, GPSSNQuery, QueryStatistics
from .refinement import (
    best_region_for_seed,
    enumerate_connected_groups,
    group_distance_maps,
)
from .scores import match_score

#: Packed objects per simulated page for sequential scans.
OBJECTS_PER_PAGE = 32


class ScanProcessor:
    """Object-level pruning via linear scans (no tree indexes).

    Uses the same pivots as the indexed processor (pivot tables are part
    of the pruning rules, not of the tree structures) but touches every
    user and POI once per query.
    """

    def __init__(
        self,
        network: SpatialSocialNetwork,
        num_road_pivots: int = 5,
        num_social_pivots: int = 5,
        seed: int = 7,
        road_pivots: Optional[RoadPivotIndex] = None,
        social_pivots: Optional[SocialPivotIndex] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.recorder = recorder or Recorder()
        self.network = network
        rng = np.random.default_rng(seed)
        self.road_pivots = road_pivots or select_pivots_road(
            network.distances.engine, num_road_pivots, rng
        )
        self.social_pivots = social_pivots or select_pivots_social(
            network.social, num_social_pivots, rng
        )
        # Per-entity pivot distances, computed once (the offline part a
        # scan-based deployment would also have).
        self._user_social_dists: Dict[int, List[float]] = {
            uid: self.social_pivots.distances(uid)
            for uid in network.social.user_ids()
        }
        self._poi_sup: Dict[int, frozenset] = {}
        for poi in network.pois():
            region = network.pois_within(poi.poi_id, 2.0 * 4.0)
            self._poi_sup[poi.poi_id] = frozenset().union(
                *(network.poi(p).keywords for p in region)
            )

    def answer(
        self,
        query: GPSSNQuery,
        max_groups: Optional[int] = None,
    ) -> Tuple[GPSSNAnswer, QueryStatistics]:
        """Answer by scan-prune-refine."""
        network = self.network
        if not network.social.has_user(query.query_user):
            raise UnknownEntityError(f"unknown query user {query.query_user}")
        stats = QueryStatistics()
        stats.pruning.total_users = network.social.num_users
        stats.pruning.total_pois = network.num_pois
        started = time.perf_counter()
        scorer = MetricScorer(query.metric)
        rec = self.recorder
        ex = rec.explain if rec.explain.active else None
        uq = network.social.user(query.query_user)
        uq_social = self._user_social_dists[query.query_user]

        # --- user scan: Lemmas 3 and 4 over every user -----------------
        if ex is not None:
            ex.visit("scan.users", network.social.num_users)
        candidates = []
        for user in network.social.users():
            if user.user_id == query.query_user:
                candidates.append(user.user_id)
                continue
            lb_hops = pivot_lower_bound(
                self._user_social_dists[user.user_id], uq_social
            )
            if social_distance_prunable(lb_hops, query.tau):
                stats.pruning.social_object_pruned += 1
                stats.pruning.social_pruned_by_distance += 1
                if ex is not None:
                    ex.prune(
                        "scan.users", "obj.social_hops",
                        margin=lb_hops - query.tau,
                    )
                continue
            sc = scorer.score(uq.interests, user.interests)
            if sc < query.gamma:
                stats.pruning.social_object_pruned += 1
                stats.pruning.social_pruned_by_interest += 1
                if ex is not None:
                    ex.prune(
                        "scan.users", "obj.social_interest",
                        margin=query.gamma - sc,
                    )
                continue
            candidates.append(user.user_id)
        if ex is not None:
            ex.survive("scan.users", len(candidates))

        # --- POI scan: Lemma 1 over every POI ---------------------------
        if ex is not None:
            ex.visit("scan.pois", len(self._poi_sup))
        seeds = []
        for poi_id, sup in self._poi_sup.items():
            ms = match_score(uq.interests, sup)
            if ms < query.theta:
                stats.pruning.road_object_pruned += 1
                stats.pruning.road_pruned_by_matching += 1
                if ex is not None:
                    ex.prune(
                        "scan.pois", "obj.poi_matching",
                        margin=query.theta - ms,
                    )
                continue
            seeds.append(poi_id)
        if ex is not None:
            ex.survive("scan.pois", len(seeds))

        # sequential-scan I/O: every user + POI record read once
        objects_read = network.social.num_users + network.num_pois
        stats.page_accesses = math.ceil(objects_read / OBJECTS_PER_PAGE)
        stats.candidate_users = len(candidates)
        stats.candidate_pois = len(seeds)

        # --- refinement (identical to the indexed processor) -------------
        uq_map = network.distances.distances_from(
            ("user", query.query_user), uq.home
        )
        seed_dist = {
            pid: position_distance_from_map(
                network.road, uq_map, network.poi(pid).position, uq.home
            )
            for pid in seeds
        }
        ordered_seeds = sorted(
            seed_dist, key=lambda pid: (seed_dist[pid], pid)
        )

        best_value = math.inf
        best_pair = None
        for group in enumerate_connected_groups(
            network, query.query_user, query.tau, query.gamma,
            allowed=set(candidates), limit=max_groups,
            scorer=scorer, explain=ex,
        ):
            stats.groups_refined += 1
            dist_maps = group_distance_maps(network, group)
            interests = [network.social.user(u).interests for u in group]
            if ex is not None:
                ex.visit("refine.pairs", len(ordered_seeds))
            for seed_rank, seed in enumerate(ordered_seeds):
                if seed_dist[seed] >= best_value:
                    if ex is not None:
                        ex.prune(
                            "refine.pairs", "pair.distance",
                            len(ordered_seeds) - seed_rank,
                            seed_dist[seed] - best_value,
                        )
                    break
                if ex is not None:
                    ex.survive("refine.pairs")
                stats.pruning.candidate_pairs_examined += 1
                region_ids = network.pois_within(seed, query.radius)
                result = best_region_for_seed(
                    network, interests, dist_maps, seed, region_ids,
                    query.theta,
                )
                if result is None:
                    continue
                pois, value = result
                if value < best_value:
                    best_value = value
                    best_pair = (frozenset(group), pois)

        stats.cpu_time_sec = time.perf_counter() - started
        m = network.social.num_users
        n = network.num_pois
        stats.pruning.total_possible_pairs = float(
            comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
        )
        rec.record_query(stats)
        if best_pair is None:
            return GPSSNAnswer.empty(), stats
        return (
            GPSSNAnswer(
                users=best_pair[0], pois=best_pair[1],
                max_distance=best_value,
            ),
            stats,
        )
