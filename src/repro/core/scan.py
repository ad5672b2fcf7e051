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
from typing import Dict, Optional, Tuple

import numpy as np

from ..exceptions import UnknownEntityError
from ..index.pivots import (
    RoadPivotIndex,
    SocialPivotIndex,
    select_pivots_road,
    select_pivots_social,
)
from ..network import SpatialSocialNetwork
from ..obs.registry import Recorder
from .metrics import MetricScorer
from .query import GPSSNAnswer, GPSSNQuery, QueryStatistics
from .refinement import (
    GroupSpace,
    PairKernel,
    enumerate_group_indices,
    refine_pairs,
)
from .scores import match_score
from .social_gates import HOPS, UserGates

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
        # Per-user pivot hops and interests as matrices, computed once
        # (the offline part a scan-based deployment would also have).
        users = list(network.social.users())
        self._user_ids = [user.user_id for user in users]
        self._user_row = {uid: i for i, uid in enumerate(self._user_ids)}
        self._user_hops = np.array(
            [self.social_pivots.distances(uid) for uid in self._user_ids],
            dtype=np.float64,
        ).reshape(len(users), self.social_pivots.num_pivots)
        self._user_interests = np.array(
            [user.interests for user in users], dtype=np.float64
        ).reshape(len(users), network.num_keywords)
        self._poi_sup: Dict[int, frozenset] = {}
        for poi in network.pois():
            region = network.pois_within(poi.poi_id, 2.0 * 4.0)
            self._poi_sup[poi.poi_id] = frozenset().union(
                *(network.poi(p).keywords for p in region)
            )
        # Like _poi_sup and the user matrices, fixed at construction:
        # the scan does not follow network mutations.
        self.kernel = PairKernel(network)

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

        # --- user scan: Lemmas 3 and 4 over every user -----------------
        # One vector gate over the user matrices; the loop only reads
        # each user's rule.
        if ex is not None:
            ex.visit("scan.users", network.social.num_users)
        uq_index = self._user_row[query.query_user]
        gates = UserGates(
            scorer, uq.interests, self._user_hops[uq_index], self._user_hops,
            self._user_interests, uq_index, query.tau, query.gamma,
        )
        candidates = []
        for row, (uid, rule) in enumerate(zip(self._user_ids, gates.rules)):
            if not rule:
                candidates.append(uid)
                continue
            stats.pruning.social_object_pruned += 1
            if rule == HOPS:
                stats.pruning.social_pruned_by_distance += 1
                if ex is not None:
                    ex.prune(
                        "scan.users", "obj.social_hops",
                        margin=gates.hops[row] - query.tau,
                    )
            else:
                stats.pruning.social_pruned_by_interest += 1
                if ex is not None:
                    ex.prune(
                        "scan.users", "obj.social_interest",
                        margin=query.gamma - gates.score(row),
                    )
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

        # --- refinement: the indexed processor's pair loop ---------------
        # Over every group of the scanned candidates (no Corollary 2),
        # with regions scanned from the network instead of read from
        # the road index.
        kernel = self.kernel
        uq_row = kernel.member_row(query.query_user)
        kept = sorted(
            (float(uq_row[kernel.poi_index[pid]]), pid) for pid in seeds
        )
        space = GroupSpace(
            network, query.query_user, query.tau, query.gamma,
            set(candidates), scorer,
        )
        groups = enumerate_group_indices(
            space, query.tau, limit=max_groups, explain=ex
        )
        best, _scans, _skips, _live = refine_pairs(
            kernel, network.pois_within, space.users, groups,
            [pid for _, pid in kept],
            np.array([d for d, _ in kept], dtype=np.float64),
            query.theta, query.radius, query.tau, 1, stats, ex,
        )

        stats.cpu_time_sec = time.perf_counter() - started
        m = network.social.num_users
        n = network.num_pois
        stats.pruning.total_possible_pairs = float(
            comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
        )
        rec.record_query(stats)
        if not best:
            return GPSSNAnswer.empty(), stats
        value, users, pois = best[0]
        answer = GPSSNAnswer(
            users=frozenset(users), pois=frozenset(pois), max_distance=value
        )
        return answer, stats
