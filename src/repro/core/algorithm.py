"""GP-SSN query answering via dual index traversal (Algorithm 2, Section 5).

:class:`GPSSNQueryProcessor` owns the two indexes (I_R over POIs, I_S
over users, plus the pivot tables both rely on) and answers queries by
the paper's parallel top-down traversal:

1. descend I_S level by level, applying the user pruning (interest
   region, Lemma 8; hop distance, Lemma 9; and their object-level
   counterparts, Lemmas 3-4) to keep a shrinking candidate set
   ``S_cand``;
2. in lockstep, sweep a min-heap over I_R ordered by the pivot-based
   distance lower bound (Eq. 17), applying matching-score pruning
   (Lemma 6 / Lemma 1) and distance pruning against the best-so-far
   upper bound ``delta`` (Eqs. 16 / 5);
3. drain the remaining I_R levels once I_S bottoms out (lines 27-28);
4. refine: Corollary-2 user pruning, exact hop/interest checks, then
   enumerate connected ``tau``-groups and evaluate candidate seeds in
   ascending distance order with early termination (lines 29-31).

The processor also records every measurement the experiments need: CPU
time, simulated page accesses, and per-rule pruning tallies.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import insort
from itertools import chain, islice
from math import comb
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..exceptions import (
    IndexStateError,
    InvalidParameterError,
    UnknownEntityError,
)
from ..index.pivots import (
    RoadPivotIndex,
    SocialPivotIndex,
    pivot_lower_bound,
    select_pivots_road,
    select_pivots_social,
)
from ..index.road_index import AugmentedPOI, RoadIndex, RoadIndexNode
from ..index.social_index import AugmentedUser, SocialIndex, SocialIndexNode
from ..network import SpatialSocialNetwork
from ..obs.registry import Recorder
from .metrics import MetricScorer
from .index_pruning import (
    lb_dist_sn_social_node,
    social_node_distance_prunable,
)
from .pruning import matching_score_prunable, social_distance_prunable
from .query import GPSSNAnswer, GPSSNQuery, PruningCounters, QueryStatistics
from .refinement import (
    GROUP_BLOCK,
    BlockGates,
    GroupSpace,
    PairKernel,
    enumerate_group_indices,
    sample_connected_groups,
)
from .road_gates import RoadGates

SCandidate = Union[SocialIndexNode, AugmentedUser]


class PruningToggles:
    """Enable/disable individual pruning rules (for ablation studies).

    All rules default to on; the ablation benchmark switches them off one
    at a time to measure each rule's contribution. Disabling a rule never
    changes answers (pruning is only ever safe discarding), only cost.
    """

    __slots__ = ("interest", "social_distance", "matching", "road_distance")

    def __init__(
        self,
        interest: bool = True,
        social_distance: bool = True,
        matching: bool = True,
        road_distance: bool = True,
    ) -> None:
        self.interest = interest
        self.social_distance = social_distance
        self.matching = matching
        self.road_distance = road_distance


def _s_side_bounds(
    s_cand: Sequence[SCandidate],
) -> Tuple[List[float], List[Sequence[float]]]:
    """The S_cand side of Eqs. 16 and 18 for one I_S level.

    ``s_cand`` is never empty: u_q and its index path always survive.

    Returns the per-pivot ``max_{u in S} dist_RN(u, rp_k)`` upper
    bounds and one interest floor per entry. A node's floor is its
    per-topic lower bound (``e_S.lb_w``, Eq. 9), which under-estimates
    the matching score of every user beneath it; a user's is the exact
    interest vector. Gating per entry (instead of on one global
    elementwise min) keeps Eq. 18 tight once S_cand reaches user level.
    """
    rows: List[Sequence[float]] = []
    floors: List[Sequence[float]] = []
    for entry in s_cand:
        if isinstance(entry, SocialIndexNode):
            rows.append(entry.ub_road_pivot)
            floors.append(entry.interest_mbr.low)
        else:
            rows.append(entry.road_pivot_dists)
            floors.append(entry.user.interests)
    return [max(0.0, *col) for col in zip(*rows)], floors


class _RoadSweep:
    """Algorithm 2's I_R heap for one query (lines 2-3 and 11-28).

    Holds the heap, the best-so-far bound ``delta`` and ``R_cand``. The
    gates supply every entry's bounds, so :meth:`sweep` only looks
    them up and applies ``delta`` entry by entry in heap order.
    """

    __slots__ = (
        "index", "gates", "counters", "ex", "theta", "matching",
        "use_delta", "heap", "delta", "tick", "r_cand", "r_slots",
        "witness_checks",
    )

    def __init__(
        self,
        index: RoadIndex,
        gates,
        counters: PruningCounters,
        ex,
        theta: float,
        matching: bool,
        use_delta: bool,
    ) -> None:
        self.index = index
        self.gates = gates
        self.counters = counters
        self.ex = ex
        self.theta = theta
        self.matching = matching
        self.use_delta = use_delta
        self.heap: List[Tuple[float, int, RoadIndexNode]] = [
            (0.0, 0, index.root)
        ]
        self.delta = math.inf
        self.tick = 0  # heap tiebreaker
        self.r_cand: List[AugmentedPOI] = []
        self.r_slots: List[int] = []
        self.witness_checks = 0  # Eq. 18 gate evaluations

    def sweep(self, next_level: bool) -> None:
        """Pop the heap best-first until it empties or its smallest key
        exceeds ``delta`` (line 14).

        With ``next_level`` an inner node's surviving children go to the
        next level's heap (lines 25-26); otherwise back into this one
        (the drain of lines 27-28).
        """
        index, gates, counters, ex = (
            self.index, self.gates, self.counters, self.ex
        )
        theta, matching, use_delta = self.theta, self.matching, self.use_delta
        columns = gates.columns
        leaf_slots, aps = columns.leaf_slots, columns.aps
        poi_match, node_match = gates.poi_match, gates.node_match
        poi_lb, node_lb = gates.poi_lb, gates.node_lb
        poi_ub, poi_witness = gates.poi_ub, gates.poi_witness
        r_cand, r_slots = self.r_cand, self.r_slots
        delta, tick = self.delta, self.tick
        heap = self.heap
        out = [] if next_level else heap
        checks = 0
        while heap:
            key, _t, node = heapq.heappop(heap)
            if use_delta and key > delta:  # line 14: dominated
                dominated = sum(h[2].num_pois for h in heap) + node.num_pois
                counters.road_index_pruned += dominated
                counters.road_pruned_by_distance += dominated
                if ex is not None:
                    ex.prune(
                        "traverse.road", "idx.road_distance",
                        dominated, key - delta,
                    )
                heap.clear()
                break
            index.visit(node)
            if node.is_leaf:
                for slot in leaf_slots[node.page_id]:
                    # line 17: matching score pruning w.r.t. u_q (Lemma 1)
                    if matching:
                        ub_ms = poi_match[slot]
                        if matching_score_prunable(ub_ms, theta):
                            counters.road_object_pruned += 1
                            counters.road_pruned_by_matching += 1
                            if ex is not None:
                                ex.prune(
                                    "traverse.road", "obj.poi_matching",
                                    margin=theta - ub_ms,
                                )
                            continue
                    # line 18: distance pruning w.r.t. S_cand (Lemma 5)
                    lb = poi_lb[slot]
                    if use_delta and lb > delta:
                        counters.road_object_pruned += 1
                        counters.road_pruned_by_distance += 1
                        if ex is not None:
                            ex.prune(
                                "traverse.road", "obj.poi_distance",
                                margin=lb - delta,
                            )
                        continue
                    # lines 19-20: keep the POI; tighten delta (Eq. 16)
                    # when its ball may theta-match S_cand (Eq. 18)
                    r_cand.append(aps[slot])
                    r_slots.append(slot)
                    checks += 1
                    if poi_witness[slot]:
                        ub = poi_ub[slot]
                        if ub < delta:
                            delta = ub
            else:
                for child in node.children:
                    page = child.page_id
                    # line 23: matching score pruning (Lemma 6)
                    if matching:
                        ub_ms = node_match[page]
                        if matching_score_prunable(ub_ms, theta):
                            counters.road_index_pruned += child.num_pois
                            counters.road_pruned_by_matching += child.num_pois
                            if ex is not None:
                                ex.prune(
                                    "traverse.road", "idx.road_matching",
                                    child.num_pois, theta - ub_ms,
                                )
                            continue
                    # line 24: distance pruning (Lemma 7 via Eq. 17, delta)
                    lb = node_lb[page]
                    if use_delta and lb > delta:
                        counters.road_index_pruned += child.num_pois
                        counters.road_pruned_by_distance += child.num_pois
                        if ex is not None:
                            ex.prune(
                                "traverse.road", "idx.road_distance",
                                child.num_pois, lb - delta,
                            )
                        continue
                    # line 25: defer to the next level's heap
                    tick += 1
                    heapq.heappush(out, (lb, tick, child))
        self.delta, self.tick = delta, tick
        self.witness_checks += checks
        self.heap = out


class GPSSNQueryProcessor:
    """Index-backed GP-SSN query processor (the paper's main algorithm).

    Builds both indexes once; :meth:`answer` serves any number of queries
    against them.
    """

    def __init__(
        self,
        network: SpatialSocialNetwork,
        num_road_pivots: int = 5,
        num_social_pivots: int = 5,
        r_min: float = 0.5,
        r_max: float = 4.0,
        max_entries: int = 16,
        leaf_size: int = 16,
        seed: int = 7,
        road_pivots: Optional[RoadPivotIndex] = None,
        social_pivots: Optional[SocialPivotIndex] = None,
        toggles: Optional[PruningToggles] = None,
        recorder: Optional[Recorder] = None,
        distance_engine: Optional[str] = None,
    ) -> None:
        self.toggles = toggles or PruningToggles()
        # (group, seed) pairs are evaluated through the batched numpy
        # PairKernel, built on first use.
        self._kernel: Optional[PairKernel] = None
        # Engine selection happens before index construction so the
        # offline region sweeps already run on the chosen kernel; None
        # keeps whatever engine the network is already using.
        if distance_engine is not None:
            network.use_distance_engine(distance_engine)
        # Default recorder: NullTracer (no span overhead) + live metrics
        # registry (absorbed once per query, off the hot path). Swap in
        # Recorder.traced() — or assign .recorder directly — to capture
        # per-phase span trees.
        self.recorder = recorder or Recorder()
        self.network = network
        rng = np.random.default_rng(seed)
        self.road_pivots = road_pivots or select_pivots_road(
            network.distances.engine, num_road_pivots, rng
        )
        self.social_pivots = social_pivots or select_pivots_social(
            network.social, num_social_pivots, rng
        )
        self.road_index = RoadIndex(
            network, self.road_pivots,
            r_min=r_min, r_max=r_max, max_entries=max_entries,
        )
        self.social_index = SocialIndex(
            network, self.social_pivots, self.road_pivots, leaf_size=leaf_size
        )
        self.r_min = r_min
        self.r_max = r_max
        self._built_version = network.version
        self._build_args = dict(
            num_road_pivots=num_road_pivots,
            num_social_pivots=num_social_pivots,
            r_min=r_min, r_max=r_max,
            max_entries=max_entries, leaf_size=leaf_size, seed=seed,
            distance_engine=distance_engine,
        )

    def _pair_kernel(self) -> PairKernel:
        """The vectorized refinement kernel, rebuilt on network changes."""
        kernel = self._kernel
        if kernel is None or kernel.version != self.network.version:
            kernel = self._kernel = PairKernel(self.network)
        return kernel

    def rebuild(self) -> None:
        """Rebuild pivots and both indexes against the current network.

        Required after mutating the network (adding/removing POIs or
        users): the frozen indexes capture the network version at build
        time and :meth:`answer` refuses to serve stale structures.
        """
        fresh = GPSSNQueryProcessor(
            self.network, toggles=self.toggles, recorder=self.recorder,
            **self._build_args
        )
        self.road_pivots = fresh.road_pivots
        self.social_pivots = fresh.social_pivots
        self.road_index = fresh.road_index
        self.social_index = fresh.social_index
        self._built_version = self.network.version

    def note_incremental_maintenance(self) -> None:
        """Accept the current network version after incremental upkeep.

        The dynamic maintenance layer
        (:class:`repro.dynamic.maintenance.DynamicIndexMaintainer`)
        updates the pivot maps and both indexes in place instead of
        rebuilding; this re-arms :meth:`answer` at the new version.
        Calling it without having actually maintained the indexes
        silently serves stale structures — it is the maintainer's hook,
        not an escape hatch.
        """
        self._built_version = self.network.version

    def _check_query(self, query: GPSSNQuery) -> None:
        """The checks every entry point runs before answering."""
        if self.network.version != self._built_version:
            raise IndexStateError(
                "the network changed after the indexes were built; call "
                "rebuild() before answering further queries"
            )
        if not (self.r_min <= query.radius <= self.r_max):
            raise InvalidParameterError(
                f"query radius {query.radius} outside the index's "
                f"[{self.r_min}, {self.r_max}] envelope"
            )
        if not self.network.social.has_user(query.query_user):
            raise UnknownEntityError(f"unknown query user {query.query_user}")

    # ------------------------------------------------------------------
    # measurement plumbing shared by every entry point
    # ------------------------------------------------------------------

    def _begin_query(self) -> Tuple[QueryStatistics, int, int]:
        """Reset per-query counters; snapshot the oracle's tallies."""
        stats = QueryStatistics()
        stats.pruning.total_users = self.network.social.num_users
        stats.pruning.total_pois = self.network.num_pois
        self.road_index.counter.reset()
        self.social_index.counter.reset()
        oracle = self.network.distances
        return stats, oracle.searches_run, oracle.cache_hits

    def _finish_query(
        self,
        stats: QueryStatistics,
        qspan,
        base_searches: int,
        base_hits: int,
        query: Optional[GPSSNQuery] = None,
    ) -> None:
        """Collect I/O + oracle deltas, phase times, and feed the recorder.

        ``query`` enables the total-possible-pairs denominator (the
        Figure-7(d) normalization); the sampled entry point omits it, as
        it always has.
        """
        stats.page_accesses = (
            self.road_index.counter.snapshot()
            + self.social_index.counter.snapshot()
        )
        oracle = self.network.distances
        stats.dijkstra_searches = oracle.searches_run - base_searches
        stats.dijkstra_cache_hits = oracle.cache_hits - base_hits
        metrics = self.recorder.metrics
        metrics.set_gauge("dijkstra.cache_hit_rate", oracle.hit_rate)
        engine = oracle.engine
        for stat_name, value in engine.stats().items():
            metrics.set_gauge(f"dist_engine.{engine.name}.{stat_name}", value)
        if query is not None:
            m = self.network.social.num_users
            n = self.network.num_pois
            stats.pruning.total_possible_pairs = float(
                comb(max(m - 1, 0), min(query.tau - 1, max(m - 1, 0))) * n
            )
        stats.phase_times = qspan.child_totals()
        self.recorder.record_query(stats)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def answer(
        self,
        query: GPSSNQuery,
        max_groups: Optional[int] = None,
    ) -> Tuple[GPSSNAnswer, QueryStatistics]:
        """Answer one GP-SSN query.

        Args:
            query: the query (issuer, tau, gamma, theta, radius).
            max_groups: optional cap on the number of user groups
                enumerated during refinement (the paper's subset-sampling
                escape hatch for extreme candidate sets); ``None`` means
                exhaustive refinement.

        Returns:
            ``(answer, statistics)``. The answer is
            :meth:`GPSSNAnswer.empty` when no pair satisfies all six
            predicates of Definition 5.
        """
        answers, stats = self.answer_topk(query, 1, max_groups)
        return (answers[0] if answers else GPSSNAnswer.empty()), stats

    def answer_topk(
        self,
        query: GPSSNQuery,
        k: int,
        max_groups: Optional[int] = None,
    ) -> Tuple[List[GPSSNAnswer], QueryStatistics]:
        """The ``k`` best distinct ``(S, R)`` pairs, ascending by value.

        A natural extension of Definition 5: instead of the single
        minimizing pair, return the ``k`` feasible pairs with the
        smallest maximum distances (fewer when fewer exist). The
        traversal suspends the best-so-far distance pruning (it only
        witnesses the top-1) and the refinement prunes against the
        running k-th best instead.
        """
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        self._check_query(query)

        stats, base_searches, base_hits = self._begin_query()
        with self.recorder.span("query") as qspan:
            started = time.perf_counter()

            scorer = MetricScorer(query.metric)
            s_cand, r_cand, _delta = self._traverse(
                query, stats.pruning, scorer,
                allow_delta_pruning=(k == 1),
            )
            stats.candidate_users = len(s_cand)
            stats.candidate_pois = len(r_cand)
            answers = self._refine(
                query, s_cand, r_cand, stats, max_groups, scorer, k=k
            )

            stats.cpu_time_sec = time.perf_counter() - started
        self._finish_query(stats, qspan, base_searches, base_hits, query)
        return answers, stats

    def answer_sampled(
        self,
        query: GPSSNQuery,
        num_samples: int = 100,
        seed: int = 0,
    ) -> Tuple[GPSSNAnswer, QueryStatistics]:
        """Approximate answering via subset sampling (paper future work).

        Instead of enumerating every connected ``tau``-group in the
        candidate set, randomly expand ``num_samples`` groups from the
        query vertex (Section 5's "subset sampling by randomly expanding
        the subgraph starting from the query vertex") and refine only
        those. The returned answer always satisfies all six predicates
        of Definition 5 but its objective may exceed the true optimum.
        """
        if num_samples < 1:
            raise InvalidParameterError(
                f"num_samples must be >= 1, got {num_samples}"
            )
        self._check_query(query)

        stats, base_searches, base_hits = self._begin_query()
        with self.recorder.span("query") as qspan:
            started = time.perf_counter()

            scorer = MetricScorer(query.metric)
            s_cand, r_cand, _delta = self._traverse(query, stats.pruning, scorer)
            stats.candidate_users = len(s_cand)
            stats.candidate_pois = len(r_cand)

            with self.recorder.span("refine"):
                ex = (
                    self.recorder.explain
                    if self.recorder.explain.active else None
                )
                uq_id = query.query_user
                allowed = {au.user_id for au in s_cand} | {uq_id}
                rng = np.random.default_rng(seed)
                groups = sample_connected_groups(
                    self.network, uq_id, query.tau, query.gamma, rng,
                    num_samples, allowed=allowed, score_fn=scorer.score,
                )

                kernel = self._pair_kernel()
                uq_row = kernel.member_row(uq_id)
                seed_dist = {
                    ap.poi_id: float(uq_row[kernel.poi_index[ap.poi_id]])
                    for ap in r_cand
                }
                seeds = sorted(
                    seed_dist, key=lambda pid: (seed_dist[pid], pid)
                )

                best_value = math.inf
                best_pair = None
                for group in groups:
                    stats.groups_refined += 1
                    state = kernel.group_state(group, query.theta)
                    if ex is not None:
                        ex.visit("refine.pairs", len(seeds))
                    for seed_rank, poi_seed in enumerate(seeds):
                        if seed_dist[poi_seed] >= best_value:
                            if ex is not None:
                                ex.prune(
                                    "refine.pairs", "pair.distance",
                                    len(seeds) - seed_rank,
                                    seed_dist[poi_seed] - best_value,
                                )
                            break
                        if ex is not None:
                            ex.survive("refine.pairs")
                        stats.pruning.candidate_pairs_examined += 1
                        region_ids = self.road_index.region(
                            poi_seed, query.radius
                        )
                        result = kernel.best_region(
                            kernel.ball(
                                poi_seed, region_ids,
                                cache_key=(poi_seed, query.radius),
                            ),
                            state,
                        )
                        if result is None:
                            continue
                        pois, value = result
                        if value < best_value:
                            best_value = value
                            best_pair = (frozenset(group), pois)

            stats.cpu_time_sec = time.perf_counter() - started
        self._finish_query(stats, qspan, base_searches, base_hits)
        if best_pair is None:
            return GPSSNAnswer.empty(), stats
        return (
            GPSSNAnswer(
                users=best_pair[0], pois=best_pair[1],
                max_distance=best_value,
            ),
            stats,
        )

    # ------------------------------------------------------------------
    # phase 1: dual index traversal (Algorithm 2 lines 1-28)
    # ------------------------------------------------------------------

    def _traverse(
        self,
        query: GPSSNQuery,
        counters: PruningCounters,
        scorer: Optional[MetricScorer] = None,
        allow_delta_pruning: bool = True,
    ) -> Tuple[List[AugmentedUser], List[AugmentedPOI], float]:
        # Lines 1-28 read the frozen I_R mirror and its columns; POI
        # churn since the last refreeze leaves both stale.
        self.road_index.refreeze_if_dirty()
        with self.recorder.span("traverse") as tspan:
            users, r_cand, delta = self._traverse_impl(
                query, counters, scorer, allow_delta_pruning
            )
            tspan.set(
                candidate_users=len(users), candidate_pois=len(r_cand)
            )
            return users, r_cand, delta

    def _traverse_impl(
        self,
        query: GPSSNQuery,
        counters: PruningCounters,
        scorer: Optional[MetricScorer] = None,
        allow_delta_pruning: bool = True,
    ) -> Tuple[List[AugmentedUser], List[AugmentedPOI], float]:
        scorer = scorer or MetricScorer(query.metric)
        rec = self.recorder
        # The funnel hooks sit inside the hot loops, so they are guarded
        # by one None check instead of a no-op method call: with explain
        # off (the default) the traversal pays a single local-variable
        # branch per pruning decision.
        ex = rec.explain if rec.explain.active else None
        social = self.network.social
        if ex is not None:
            ex.visit("traverse.social", social.num_users)
            ex.visit("traverse.road", self.network.num_pois)
        uq = social.user(query.query_user)
        gates = RoadGates(
            self.road_index.columns, uq.interests,
            self.road_pivots.distances(uq.home), query.theta, query.radius,
        )
        # Top-k queries must keep every candidate whose region could be
        # among the k best; the best-so-far bound delta only witnesses
        # the single best pair, so delta-based pruning is suspended.
        use_delta = self.toggles.road_distance and allow_delta_pruning
        # lines 1-3: S_cand at the I_S root; delta at +inf and the I_R
        # heap seeded with the root
        s_cand: List[SCandidate] = [self.social_index.root]
        road = _RoadSweep(
            self.road_index, gates, counters, ex, query.theta,
            self.toggles.matching, use_delta,
        )
        uq_path = self.social_index.path_ids(query.query_user)

        # lines 4-26: level-synchronised descent of I_S and I_R
        for _level in range(self.social_index.height):
            with rec.span("traverse.social_pruning"):
                s_cand = self._prune_social_level(
                    s_cand, query, uq, uq_path, scorer, counters, ex
                )
            # lines 11-26: one level of I_R under the refreshed S_cand
            # bounds — Lemmas 1/6 (matching), 5/7 (distance), Eq. 18 gate
            with rec.span("traverse.road_sweep"):
                gates.level(*_s_side_bounds(s_cand))
                road.sweep(next_level=True)

        # lines 27-28: I_R may be deeper than I_S; drain it best-first
        with rec.span("traverse.road_drain"):
            gates.level(*_s_side_bounds(s_cand))
            road.sweep(next_level=False)

        users = [e for e in s_cand if isinstance(e, AugmentedUser)]
        r_cand = road.r_cand
        if use_delta and users and r_cand:
            with rec.span("traverse.witness_filter"):
                r_cand = self._witness_filter(
                    query, users, road, counters, ex
                )
        rec.metrics.inc("traverse.witness_checks", road.witness_checks)
        if ex is not None:
            ex.survive("traverse.social", len(users))
            ex.survive("traverse.road", len(r_cand))
        return users, r_cand, road.delta

    def _prune_social_level(
        self,
        s_cand: List[SCandidate],
        query: GPSSNQuery,
        uq,
        uq_path: Set[int],
        scorer: MetricScorer,
        counters: PruningCounters,
        ex,
    ) -> List[SCandidate]:
        """Lines 4-10: one I_S level, Lemmas 3-4 (objects) and 8-9 (nodes).

        ``uq_path`` holds the ``id()`` of every node above u_q, whose
        subtree is never pruned.
        """
        uq_social_pivot = self.social_pivots.distances(query.query_user)
        next_s: List[SCandidate] = []
        for entry in s_cand:
            if isinstance(entry, AugmentedUser):
                next_s.append(entry)  # already at object level
                continue
            self.social_index.visit(entry)
            if entry.is_leaf:
                for au in entry.users:
                    if au.user_id == query.query_user:
                        next_s.append(au)  # u_q is never pruned
                        continue
                    # Lemma 4: pivot-based hop lower bound (checked
                    # first — it is the cheaper predicate)
                    lb_hops = pivot_lower_bound(
                        au.social_pivot_dists, uq_social_pivot
                    )
                    if self.toggles.social_distance and social_distance_prunable(
                        lb_hops, query.tau
                    ):
                        counters.social_object_pruned += 1
                        counters.social_pruned_by_distance += 1
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "obj.social_hops",
                                margin=lb_hops - query.tau,
                            )
                        continue
                    # Lemma 3: object-level interest pruning (under
                    # the query's interest metric)
                    if self.toggles.interest:
                        sc = scorer.score(uq.interests, au.user.interests)
                        if sc < query.gamma:
                            counters.social_object_pruned += 1
                            counters.social_pruned_by_interest += 1
                            if ex is not None:
                                ex.prune(
                                    "traverse.social",
                                    "obj.social_interest",
                                    margin=query.gamma - sc,
                                )
                            continue
                    next_s.append(au)
            else:
                for child in entry.children:
                    if id(child) in uq_path:
                        next_s.append(child)  # u_q's subtree survives
                        continue
                    # Lemma 9: hop-distance pruning (cheaper, first)
                    lb_hops = lb_dist_sn_social_node(uq_social_pivot, child)
                    if self.toggles.social_distance and social_node_distance_prunable(
                        lb_hops, query.tau
                    ):
                        counters.social_index_pruned += child.num_users
                        counters.social_pruned_by_distance += child.num_users
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "idx.social_hops",
                                child.num_users, lb_hops - query.tau,
                            )
                        continue
                    # Lemma 8: interest-region pruning (metric-aware
                    # upper bound over the node's interest MBR)
                    if self.toggles.interest:
                        ub_int = scorer.ub_over_box(
                            child.interest_mbr, uq.interests
                        )
                        if ub_int < query.gamma:
                            counters.social_index_pruned += child.num_users
                            counters.social_pruned_by_interest += child.num_users
                            if ex is not None:
                                ex.prune(
                                    "traverse.social", "idx.social_interest",
                                    child.num_users, query.gamma - ub_int,
                                )
                            continue
                    next_s.append(child)
        return next_s

    def _witness_filter(
        self,
        query: GPSSNQuery,
        users: List[AugmentedUser],
        road: "_RoadSweep",
        counters: PruningCounters,
        ex,
    ) -> List[AugmentedPOI]:
        """Line 30 (distance half) over the swept ``R_cand``.

        With S_cand fully at user level the bounds are at their
        tightest. Pick the best witness by its pivot upper bound,
        evaluate Eq. 5 for it *exactly* (one Dijkstra from the witness
        covers every candidate user), and discard candidate POIs whose
        exact distance to u_q — a valid lower bound of maxdist, since
        the seed belongs to its region — exceeds the witness bound.
        """
        network = self.network
        r_cand = road.r_cand
        kernel = self._pair_kernel()
        road.witness_checks += len(r_cand)  # one Eq. 18 gate per POI
        pos = road.gates.witness(road.r_slots)
        best_ub = road.delta
        if pos is not None:
            witness = r_cand[pos]
            # One dense gather over every candidate user's home.
            dense_w = network.distances.dense_distances_from(
                ("poi", witness.poi_id), witness.poi.position
            )
            positions, user_index = kernel.user_positions()
            user_row = positions.distances_from_dense(
                network.road, dense_w, witness.poi.position
            )
            user_idx = np.fromiter(
                (user_index[au.user_id] for au in users),
                dtype=np.int64, count=len(users),
            )
            exact_user_max = float(user_row[user_idx].max())
            # Eq. 5: the second term max dist(o_i, o_j) over the witness
            # region is at most the region radius r.
            best_ub = min(best_ub, exact_user_max + query.radius)
        if math.isinf(best_ub):
            return r_cand
        uq_row = kernel.member_row(query.query_user)
        poi_idx = np.fromiter(
            (kernel.poi_index[ap.poi_id] for ap in r_cand),
            dtype=np.int64, count=len(r_cand),
        )
        d_arr = uq_row[poi_idx]
        prune_mask = d_arr > best_ub
        n_pruned = int(prune_mask.sum())
        if n_pruned:
            counters.road_object_pruned += n_pruned
            counters.road_pruned_by_distance += n_pruned
            if ex is not None:
                ex.prune_batch(
                    "traverse.road", "obj.poi_witness",
                    d_arr[prune_mask] - best_ub,
                )
        return [ap for ap, pruned in zip(r_cand, prune_mask) if not pruned]

    # ------------------------------------------------------------------
    # phase 2: refinement (Algorithm 2 lines 29-31)
    # ------------------------------------------------------------------

    def _refine(
        self,
        query: GPSSNQuery,
        s_cand: List[AugmentedUser],
        r_cand: List[AugmentedPOI],
        stats: QueryStatistics,
        max_groups: Optional[int],
        scorer: MetricScorer,
        k: int,
    ) -> List[GPSSNAnswer]:
        rec = self.recorder
        ex = rec.explain if rec.explain.active else None
        with rec.span("refine"):
            with rec.span("refine.corollary2"):
                allowed = self._corollary2(query, s_cand, stats, scorer, ex)
            if len(allowed) < query.tau:
                return []
            with rec.span("refine.seed_filter"):
                seeds, seed_dist = self._seed_filter(query, r_cand, stats, ex)
            with rec.span("refine.enumerate") as espan:
                best, scans, skips, live, space = self._enumerate(
                    query, allowed, seeds, seed_dist, stats, max_groups,
                    scorer, k, ex,
                )
                espan.set(
                    prefix_scans=scans, member_bound_skips=skips,
                    live_groups=live, group_space=space,
                )
            rec.metrics.inc("refine.prefix_scans", scans)
            rec.metrics.inc("refine.member_bound_skips", skips)
            rec.metrics.inc("refine.live_groups", live)
            return [
                GPSSNAnswer(
                    users=frozenset(users), pois=frozenset(pois),
                    max_distance=value,
                )
                for value, users, pois in best
            ]

    def _corollary2(
        self,
        query: GPSSNQuery,
        s_cand: List[AugmentedUser],
        stats: QueryStatistics,
        scorer: MetricScorer,
        ex,
    ) -> Set[int]:
        """Line 29: Corollary-2 user pruning, iterated to a fixpoint, on
        top of an exact hop filter (tau-1 ball around u_q).

        Returns the ids of the surviving users, u_q always among them.
        """
        uq_id = query.query_user
        if ex is not None:
            ex.visit("refine.users", len(s_cand))
        reachable = self.network.social.hop_distances_from(
            uq_id, max_hops=query.tau - 1
        )
        survivors: List[AugmentedUser] = []
        for au in s_cand:
            if au.user_id == uq_id or au.user_id in reachable:
                survivors.append(au)
            else:
                stats.pruning.social_object_pruned += 1
                stats.pruning.social_pruned_by_distance += 1
                if ex is not None:
                    ex.prune("refine.users", "refine.social_hops")
        survivors = self._corollary2_fixpoint(
            query, survivors, stats, scorer, explain=ex
        )
        if ex is not None:
            ex.survive("refine.users", len(survivors))
        return {au.user_id for au in survivors} | {uq_id}

    def _seed_filter(
        self,
        query: GPSSNQuery,
        r_cand: List[AugmentedPOI],
        stats: QueryStatistics,
        ex,
    ) -> Tuple[List[int], np.ndarray]:
        """Line 30: the exact Lemma-1 re-check of every candidate seed.

        Returns the surviving seeds in ascending ``(dist(u_q, o), id)``
        order and their distances: ties must not break on traversal
        order, which depends on index structure and mutation history.
        """
        if ex is not None:
            ex.visit("refine.seeds", len(r_cand))
        uq_id = query.query_user
        kernel = self._pair_kernel()
        # One cached distance row covers every candidate seed, and one
        # masked sum every seed's exact Match_Score on its true sup_K.
        uq_row = kernel.member_row(uq_id)
        poi_index = kernel.poi_index
        columns = self.road_index.columns
        exact_ms = columns.exact_match(
            self.network.social.user(uq_id).interests,
            [columns.slot_of[ap.poi_id] for ap in r_cand],
        )
        kept: List[Tuple[float, int]] = []
        for ap, ms in zip(r_cand, exact_ms):
            if ms < query.theta:
                stats.pruning.road_object_pruned += 1
                stats.pruning.road_pruned_by_matching += 1
                if ex is not None:
                    ex.prune(
                        "refine.seeds", "refine.seed_matching",
                        margin=query.theta - ms,
                    )
                continue
            kept.append((float(uq_row[poi_index[ap.poi_id]]), ap.poi_id))
        kept.sort()
        if ex is not None:
            ex.survive("refine.seeds", len(kept))
        return (
            [pid for _, pid in kept],
            np.array([d for d, _ in kept], dtype=np.float64),
        )

    def _enumerate(
        self,
        query: GPSSNQuery,
        allowed: Set[int],
        seeds: List[int],
        seed_dist_arr: np.ndarray,
        stats: QueryStatistics,
        max_groups: Optional[int],
        scorer: MetricScorer,
        k: int,
        ex,
    ) -> Tuple[
        List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]],
        int, int, int, int,
    ]:
        """Line 31: enumerate groups, evaluate seeds with early
        termination.

        Returns the running top-k distinct (S, R) pairs as sorted
        ``(value, users, pois)`` key tuples, then the number of prefix
        scans run, of scans the member gate skipped, of groups that
        reached the pair loop, and of users in the group space. The k-th
        value is the pruning threshold: any region of a seed farther
        from u_q than it cannot enter the top-k, because the seed
        belongs to its region (Lemma 5).

        Groups arrive as local-index tuples of one :class:`GroupSpace`.
        A block's dead groups (``g_min >= kth``) are only counted; a
        frozenset and the pair loop are built for live groups alone.

        A pair that passes the block gates still skips its prefix scan
        when some member's own best region at the seed
        (:meth:`PairKernel.member_bound`, Lemma 2 with Definition 5's
        per-member theta condition) is already ``>= kth``: the group's
        region theta-matches that member and is at least as far from it,
        so the pair's value is ``>= kth`` too. Bounds are memoized per
        (member, seed) for the query and computed lazily, for pairs that
        reach this gate only. A skipped pair was already counted as
        examined and could not have been accepted, so answers and every
        count stay as without the gate.
        """
        best: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
        seen_pairs: Set[Tuple[frozenset, frozenset]] = set()
        n_seeds = len(seeds)
        kth = math.inf

        def accept(value: float, frozen_group: frozenset, pois: frozenset) -> None:
            """O(log k + k) sorted insert; maintains ``kth`` in place."""
            nonlocal kth
            seen_pairs.add((frozen_group, pois))
            insort(
                best, (value, tuple(sorted(frozen_group)), tuple(sorted(pois)))
            )
            if len(best) > k:
                dropped = best.pop()
                seen_pairs.discard(
                    (frozenset(dropped[1]), frozenset(dropped[2]))
                )
            kth = best[-1][0] if len(best) >= k else math.inf

        kernel = self._pair_kernel()
        space = GroupSpace(
            self.network, query.query_user, query.tau, query.gamma,
            allowed, scorer,
        )
        users = space.users
        groups = enumerate_group_indices(
            space, query.tau, limit=max_groups, explain=ex,
        )
        radius = query.radius
        theta = query.theta
        region = self.road_index.region
        counters = stats.pruning
        # Every seed's ball is built once per query (and cached across
        # queries under (seed, radius)); the stacked full-cover matrix
        # drives the ball gate as one matmul per newly seen member.
        # Groups are gated in blocks: one gather reduces every group's
        # seed gates and Lemma-5 bounds, and a group whose best viable
        # bound cannot beat kth skips the pair loop (and its GroupState)
        # entirely.
        balls = [
            kernel.ball(s, region(s, radius), cache_key=(s, radius))
            for s in seeds
        ]
        seed_dense_arr = np.fromiter(
            (b.seed_dense for b in balls), dtype=np.int64, count=n_seeds,
        )
        gates = (
            BlockGates(
                kernel, users, seed_dense_arr,
                np.stack([b.full_cover_f8 for b in balls]), theta,
            )
            if n_seeds else None
        )
        # Per-member gate: (local index, seed index) -> the singleton
        # optimum, computed lazily, only for pairs that pass the block
        # gates.
        bounds: Dict[Tuple[int, int], float] = {}
        scans = skips = live_groups = 0

        def member_gated(members: Tuple[int, ...], idx: int) -> bool:
            """Some member's own best region at seed ``idx`` is already
            ``>= kth``, hence so is the group's."""
            ball = balls[idx]
            for m in members:
                bound = bounds.get((m, idx))
                if bound is None:
                    bound = bounds[m, idx] = kernel.member_bound(
                        users[m], ball, theta
                    )
                if bound >= kth:
                    return True
            return False

        def skip_dead(run: int) -> None:
            """Account for ``run`` groups whose ``g_min >= kth``: the
            pair loop would examine the first ``limit`` pairs of each and
            accept none of them."""
            counters.candidate_pairs_examined += limit * run
            if ex is not None:
                ex.survive("refine.pairs", limit * run)
                if limit < n_seeds:
                    margin = float(seed_dist_arr[limit]) - kth
                    for _ in range(run):
                        ex.prune(
                            "refine.pairs", "pair.distance",
                            n_seeds - limit, margin,
                        )

        # Lemma 5 / Eq. 6 against the sorted seed-distance array: seeds
        # past `limit` all fail dist < kth, so the pair loop's break
        # point is one searchsorted, redone whenever an accept moves kth.
        limit = int(np.searchsorted(seed_dist_arr, kth, side="left"))
        while True:
            block = list(islice(groups, GROUP_BLOCK))
            if not block:
                break
            stats.groups_refined += len(block)
            if ex is not None:
                ex.visit("refine.pairs", n_seeds * len(block))
            if not n_seeds:
                continue
            # Seeds from `limit` on have dist(u_q, o) >= kth, so their
            # bounds are >= kth: only the first `limit` decide g_min < kth
            # and, as kth only falls, only they are read below.
            index = np.fromiter(
                chain.from_iterable(block), dtype=np.intp,
                count=len(block) * query.tau,
            ).reshape(len(block), query.tau)
            lb_block, ok_block, ball_block, g_min = gates.reduce(
                index, limit
            )
            # A group dead at the block's start stays dead; a live one is
            # re-checked against the current kth. Between live groups
            # kth, and so `limit`, cannot move.
            done = 0
            for j in np.flatnonzero(g_min < kth).tolist():
                if g_min[j] >= kth:
                    continue
                skip_dead(j - done)
                done = j + 1
                live_groups += 1
                members = block[j]
                group = frozenset([users[m] for m in members])
                # Per seed: the seed-alone gate, the exact pair value
                # lower bound and the full-ball gate.
                seed_ok = ok_block[j].tolist()
                seed_lb = lb_block[j].tolist()
                ball_ok = ball_block[j].tolist()
                state = None
                i = 0
                while i < limit:
                    if ex is not None:
                        ex.survive("refine.pairs")
                    counters.candidate_pairs_examined += 1
                    idx = i
                    i += 1
                    lb = seed_lb[idx]
                    if seed_ok[idx]:
                        # Seed alone suffices: R = {o}, value known.
                        if lb >= kth:
                            continue
                        pois = frozenset((seeds[idx],))
                        value = lb
                    else:
                        # Infeasible ball, or value provably >= kth: the
                        # scan cannot produce a top-k entrant.
                        if not ball_ok[idx] or lb >= kth:
                            continue
                        if member_gated(members, idx):
                            skips += 1
                            continue
                        scans += 1
                        if state is None:
                            state = kernel.group_state(group, theta)
                        result = kernel.best_region(
                            balls[idx], state, skip_gates=True
                        )
                        if result is None:
                            continue
                        pois, value = result
                    if (group, pois) in seen_pairs or value >= kth:
                        continue
                    accept(value, group, pois)
                    limit = int(
                        np.searchsorted(seed_dist_arr, kth, side="left")
                    )
                if ex is not None and i < n_seeds:
                    ex.prune(
                        "refine.pairs", "pair.distance",
                        n_seeds - i,
                        float(seed_dist_arr[i]) - kth,
                    )
            skip_dead(len(block) - done)
        return best, scans, skips, live_groups, len(users)

    def _corollary2_fixpoint(
        self,
        query: GPSSNQuery,
        candidates: List[AugmentedUser],
        stats: QueryStatistics,
        scorer: Optional[MetricScorer] = None,
        explain=None,
    ) -> List[AugmentedUser]:
        """Corollary 2 applied until no more users fall out.

        A user incompatible (interest score below gamma) with at least
        ``|S'| - tau + 1`` members of the candidate superset cannot find
        ``tau - 1`` compatible companions, so it can be discarded; each
        removal shrinks ``|S'|`` and may expose further removals.
        """
        if not self.toggles.interest:
            return list(candidates)
        scorer = scorer or MetricScorer(query.metric)
        current = list(candidates)
        while True:
            size = len(current)
            if size < query.tau:
                return current
            # Vectorized pairwise scores: entry (i, j) of W @ W.T is
            # Interest_Score(u_i, u_j); hostile counts are row sums of
            # the sub-threshold mask (diagonal excluded).
            matrix = np.stack([au.user.interests for au in current])
            scores = scorer.pairwise_matrix(matrix)
            hostile_mask = scores < query.gamma
            np.fill_diagonal(hostile_mask, False)
            hostile = hostile_mask.sum(axis=1)
            threshold = size - query.tau + 1
            removed_idx = [
                i for i in range(size)
                if current[i].user_id != query.query_user
                and hostile[i] >= threshold
            ]
            if not removed_idx:
                return current
            removed_set = set(removed_idx)
            stats.pruning.social_object_pruned += len(removed_idx)
            stats.pruning.social_pruned_by_interest += len(removed_idx)
            if explain is not None:
                for i in removed_idx:
                    # Margin = hostile count beyond the Corollary-2
                    # threshold (how over-determined the removal was).
                    explain.prune(
                        "refine.users", "refine.corollary2",
                        margin=float(hostile[i] - threshold),
                    )
            current = [
                au for i, au in enumerate(current) if i not in removed_set
            ]
