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
from math import comb
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..exceptions import (
    IndexStateError,
    InvalidParameterError,
    UnknownEntityError,
)
from ..index.pivots import (
    RoadPivotIndex,
    SocialPivotIndex,
    select_pivots_road,
    select_pivots_social,
)
from ..index.road_index import AugmentedPOI, RoadIndex
from ..index.social_index import SocialColumns, SocialIndex
from ..network import SpatialSocialNetwork
from ..obs.registry import Recorder
from .metrics import MetricScorer, at_least
from .pruning import matching_score_prunable
from .query import GPSSNAnswer, GPSSNQuery, PruningCounters, QueryStatistics
from .refinement import (
    GroupSpace,
    PairKernel,
    enumerate_group_indices,
    refine_pairs,
    sample_connected_groups,
)
from .road_gates import RoadGates, exact_match
from .social_gates import HOPS, SocialGates


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
    columns: SocialColumns, s_cand: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """The S_cand side of Eqs. 16 and 18 for one I_S level.

    ``s_cand`` holds entry keys (see :meth:`GPSSNQueryProcessor.
    _prune_social_level`) and is never empty: u_q and its index path
    always survive.

    Returns the per-pivot ``max_{u in S} dist_RN(u, rp_k)`` upper
    bounds and one interest floor per entry, as matrix rows. A node's
    floor is its per-topic lower bound (``e_S.lb_w``, Eq. 9), which
    under-estimates the matching score of every user beneath it; a
    user's is the exact interest vector. Gating per entry (instead of
    on one global elementwise min) keeps Eq. 18 tight once S_cand
    reaches user level. Both gates are order-free over the entries, so
    nodes and users are gathered apart.
    """
    keys = np.asarray(s_cand, dtype=np.intp)
    pages = keys[keys >= 0]
    slots = ~keys[keys < 0]
    rows = np.concatenate(
        (columns.node_road_ub[pages], columns.user_road[slots])
    )
    floors = np.concatenate(
        (columns.node_low[pages], columns.user_interests[slots])
    )
    return rows.max(axis=0, initial=0.0), floors


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
        # (key, tick, page), seeded with the root page
        self.heap: List[Tuple[float, int, int]] = [(0.0, 0, 0)]
        self.delta = math.inf
        self.tick = 0  # heap tiebreaker
        self.r_cand: List[AugmentedPOI] = []
        self.r_slots: List[int] = []
        self.witness_checks = 0  # Eq. 18 gate evaluations

    def sweep(self, next_level: bool) -> None:
        """Pop the heap best-first until it empties or its smallest key
        exceeds ``delta`` (line 14).

        With ``next_level`` an inner page's surviving children go to the
        next level's heap (lines 25-26); otherwise back into this one
        (the drain of lines 27-28).
        """
        index, gates, counters, ex = (
            self.index, self.gates, self.counters, self.ex
        )
        theta, matching, use_delta = self.theta, self.matching, self.use_delta
        columns = gates.columns
        children, leaf_slots = columns.children, columns.leaf_slots
        size, aps = columns.size, columns.aps
        poi_match, node_match = gates.poi_match, gates.node_match
        poi_lb, node_lb = gates.poi_lb, gates.node_lb
        poi_ub, poi_witness = gates.poi_ub, gates.poi_witness
        r_cand, r_slots = self.r_cand, self.r_slots
        delta, tick = self.delta, self.tick
        heap = self.heap
        out = [] if next_level else heap
        checks = 0
        while heap:
            key, _t, page = heapq.heappop(heap)
            if use_delta and key > delta:  # line 14: dominated
                dominated = sum(size[h[2]] for h in heap) + size[page]
                counters.road_index_pruned += dominated
                counters.road_pruned_by_distance += dominated
                if ex is not None:
                    ex.prune(
                        "traverse.road", "idx.road_distance",
                        dominated, key - delta,
                    )
                heap.clear()
                break
            index.visit(page)
            kids = children[page]
            if not kids:
                for slot in leaf_slots[page]:
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
                for child in kids:
                    # line 23: matching score pruning (Lemma 6)
                    if matching:
                        ub_ms = node_match[child]
                        if matching_score_prunable(ub_ms, theta):
                            counters.road_index_pruned += size[child]
                            counters.road_pruned_by_matching += size[child]
                            if ex is not None:
                                ex.prune(
                                    "traverse.road", "idx.road_matching",
                                    size[child], theta - ub_ms,
                                )
                            continue
                    # line 24: distance pruning (Lemma 7 via Eq. 17, delta)
                    lb = node_lb[child]
                    if use_delta and lb > delta:
                        counters.road_index_pruned += size[child]
                        counters.road_pruned_by_distance += size[child]
                        if ex is not None:
                            ex.prune(
                                "traverse.road", "idx.road_distance",
                                size[child], lb - delta,
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
    ) -> None:
        self.toggles = toggles or PruningToggles()
        # (group, seed) pairs are evaluated through the batched numpy
        # PairKernel, built on first use.
        self._kernel: Optional[PairKernel] = None
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
        )

    def _pair_kernel(self) -> PairKernel:
        """The vectorized refinement kernel, kept across mutations.

        A network change is followed (:meth:`PairKernel.follow`); the
        kernel is rebuilt only when it cannot follow, e.g. after a road
        change or a replaced road index. Each build counts in the
        ``refine.kernel_builds`` counter.
        """
        kernel = self._kernel
        if kernel is not None and kernel.version == self.network.version:
            return kernel
        regions = self.road_index.region_changes
        if kernel is None or not kernel.follow(regions):
            kernel = self._kernel = PairKernel(self.network, regions)
            self.recorder.metrics.inc("refine.kernel_builds")
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
        query: GPSSNQuery,
    ) -> None:
        """Collect I/O + oracle deltas, phase times, and feed the recorder.

        ``query`` sizes the total-possible-pairs denominator (the
        Figure-7(d) normalization).
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

            rec = self.recorder
            ex = rec.explain if rec.explain.active else None
            with rec.span("refine"):
                with rec.span("refine.seed_filter"):
                    seeds, seed_dist = self._seed_filter(
                        query, r_cand, stats, ex
                    )
                with rec.span("refine.enumerate") as espan:
                    # S_cand before Corollary 2: the sampler's draws
                    # depend on the space it expands through.
                    allowed = set(s_cand)
                    allowed.add(query.query_user)
                    space = GroupSpace(
                        self.network, query.query_user, query.tau,
                        query.gamma, allowed, scorer,
                    )
                    groups = sample_connected_groups(
                        space, query.tau, np.random.default_rng(seed),
                        num_samples,
                    )
                    answers = self._enumerate(
                        query, space, groups, seeds, seed_dist, stats, 1,
                        ex, espan,
                    )

            stats.cpu_time_sec = time.perf_counter() - started
        self._finish_query(stats, qspan, base_searches, base_hits, query)
        return (answers[0] if answers else GPSSNAnswer.empty()), stats

    # ------------------------------------------------------------------
    # phase 1: dual index traversal (Algorithm 2 lines 1-28)
    # ------------------------------------------------------------------

    def _traverse(
        self,
        query: GPSSNQuery,
        counters: PruningCounters,
        scorer: Optional[MetricScorer] = None,
        allow_delta_pruning: bool = True,
    ) -> Tuple[List[int], List[AugmentedPOI], float]:
        """Lines 1-28: S_cand as user ids, R_cand and the final delta."""
        # The descent reads the I_R columns; POI churn since the last
        # refreeze leaves them stale.
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
    ) -> Tuple[List[int], List[AugmentedPOI], float]:
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
        columns = self.social_index.columns
        # Lemmas 3, 4, 8 and 9 for every I_S entry at once: the descent
        # below only looks decisions up.
        social_gates = SocialGates(
            columns, scorer, uq.interests,
            self.social_pivots.distances(query.query_user),
            query.query_user, query.tau, query.gamma,
            self.toggles.social_distance, self.toggles.interest,
        )
        # Top-k queries must keep every candidate whose region could be
        # among the k best; the best-so-far bound delta only witnesses
        # the single best pair, so delta-based pruning is suspended.
        use_delta = self.toggles.road_distance and allow_delta_pruning
        # lines 1-3: S_cand at the I_S root (page 0); delta at +inf and
        # the I_R heap seeded with its root
        s_cand = [0]
        road = _RoadSweep(
            self.road_index, gates, counters, ex, query.theta,
            self.toggles.matching, use_delta,
        )

        # lines 4-26: level-synchronised descent of I_S and I_R
        for _level in range(self.social_index.height):
            with rec.span("traverse.social_pruning"):
                s_cand = self._prune_social_level(
                    s_cand, query, social_gates, counters, ex
                )
            # lines 11-26: one level of I_R under the refreshed S_cand
            # bounds — Lemmas 1/6 (matching), 5/7 (distance), Eq. 18 gate
            with rec.span("traverse.road_sweep"):
                gates.level(*_s_side_bounds(columns, s_cand))
                road.sweep(next_level=True)

        # lines 27-28: I_R may be deeper than I_S; drain it best-first
        # under the last level's S_cand, whose bounds the gates hold
        with rec.span("traverse.road_drain"):
            road.sweep(next_level=False)

        users = [columns.user_ids[~key] for key in s_cand if key < 0]
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
        s_cand: List[int],
        query: GPSSNQuery,
        gates: SocialGates,
        counters: PruningCounters,
        ex,
    ) -> List[int]:
        """Lines 4-10: one I_S level, Lemmas 3-4 (objects) and 8-9 (nodes).

        ``s_cand`` holds entry keys: a node's page id, or ``~slot`` for a
        user already at object level. ``gates`` hold every entry's rule
        (u_q and the nodes above it are always kept), so opening a node
        only looks its members' rules up, in member order.
        """
        columns = gates.columns
        children, leaf_slots, size = (
            columns.children, columns.leaf_slots, columns.size
        )
        users = gates.users
        user_rules, node_rules = users.rules, gates.node_rules
        visit = self.social_index.visit
        next_s: List[int] = []
        for key in s_cand:
            if key < 0:
                next_s.append(key)  # already at object level
                continue
            visit(key)
            kids = children[key]
            if not kids:
                for slot in leaf_slots[key]:
                    rule = user_rules[slot]
                    if not rule:
                        next_s.append(~slot)
                        continue
                    counters.social_object_pruned += 1
                    if rule == HOPS:
                        # Lemma 4: pivot-based hop lower bound (checked
                        # first — it is the cheaper predicate)
                        counters.social_pruned_by_distance += 1
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "obj.social_hops",
                                margin=users.hops[slot] - query.tau,
                            )
                    else:
                        # Lemma 3: object-level interest pruning (under
                        # the query's interest metric)
                        counters.social_pruned_by_interest += 1
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "obj.social_interest",
                                margin=query.gamma - users.score(slot),
                            )
            else:
                for page in kids:
                    rule = node_rules[page]
                    if not rule:
                        next_s.append(page)
                        continue
                    counters.social_index_pruned += size[page]
                    if rule == HOPS:
                        # Lemma 9: hop-distance pruning (Eq. 19)
                        counters.social_pruned_by_distance += size[page]
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "idx.social_hops",
                                size[page],
                                gates.node_hops[page] - query.tau,
                            )
                    else:
                        # Lemma 8: interest-region pruning (metric-aware
                        # upper bound over the node's interest MBR)
                        counters.social_pruned_by_interest += size[page]
                        if ex is not None:
                            ex.prune(
                                "traverse.social", "idx.social_interest",
                                size[page],
                                query.gamma - gates.node_bound(page),
                            )
        return next_s

    def _witness_filter(
        self,
        query: GPSSNQuery,
        users: List[int],
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
                (user_index[uid] for uid in users),
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
        s_cand: List[int],
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
                space = GroupSpace(
                    self.network, query.query_user, query.tau, query.gamma,
                    allowed, scorer,
                )
                groups = enumerate_group_indices(
                    space, query.tau, limit=max_groups, explain=ex,
                )
                return self._enumerate(
                    query, space, groups, seeds, seed_dist, stats, k, ex,
                    espan,
                )

    def _corollary2(
        self,
        query: GPSSNQuery,
        s_cand: List[int],
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
        survivors: List[int] = []
        for uid in s_cand:
            if uid == uq_id or uid in reachable:
                survivors.append(uid)
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
        return set(survivors) | {uq_id}

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
        exact_ms = exact_match(
            columns, self.network.social.user(uq_id).interests,
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
        space: GroupSpace,
        groups: Iterable[Tuple[int, ...]],
        seeds: List[int],
        seed_dist: np.ndarray,
        stats: QueryStatistics,
        k: int,
        ex,
        espan,
    ) -> List[GPSSNAnswer]:
        """Line 31 over ``groups``, tuples of ``space``'s local indices:
        the top-k answers of :func:`refine_pairs`, with its work counts
        on ``espan`` and the ``refine.*`` counters."""
        best, scans, skips, live = refine_pairs(
            self._pair_kernel(), self.road_index.region, space.users,
            groups, seeds, seed_dist, query.theta, query.radius,
            query.tau, k, stats, ex,
        )
        espan.set(
            prefix_scans=scans, member_bound_skips=skips,
            live_groups=live, group_space=len(space.users),
        )
        metrics = self.recorder.metrics
        metrics.inc("refine.prefix_scans", scans)
        metrics.inc("refine.member_bound_skips", skips)
        metrics.inc("refine.live_groups", live)
        return [
            GPSSNAnswer(
                users=frozenset(users), pois=frozenset(pois),
                max_distance=value,
            )
            for value, users, pois in best
        ]

    def _corollary2_fixpoint(
        self,
        query: GPSSNQuery,
        candidates: List[int],
        stats: QueryStatistics,
        scorer: Optional[MetricScorer] = None,
        explain=None,
    ) -> List[int]:
        """Corollary 2 applied until no more users fall out.

        A user incompatible (interest score below gamma) with at least
        ``|S'| - tau + 1`` members of the candidate superset cannot find
        ``tau - 1`` compatible companions, so it can be discarded; each
        removal shrinks ``|S'|`` and may expose further removals.
        """
        if not self.toggles.interest:
            return list(candidates)
        scorer = scorer or MetricScorer(query.metric)
        user = self.network.social.user
        current = list(candidates)
        while True:
            size = len(current)
            if size < query.tau:
                return current
            # Vectorized pairwise scores: entry (i, j) of W @ W.T is
            # Interest_Score(u_i, u_j), decided by the exact score near
            # gamma; hostile counts are row sums of the sub-threshold
            # mask (diagonal excluded).
            interests = [user(uid).interests for uid in current]
            hostile_mask = ~at_least(
                scorer.pairwise_matrix(np.stack(interests)), query.gamma,
                lambda i, j: scorer.score(interests[i], interests[j]),
            )
            np.fill_diagonal(hostile_mask, False)
            hostile = hostile_mask.sum(axis=1)
            threshold = size - query.tau + 1
            removed_idx = [
                i for i in range(size)
                if current[i] != query.query_user
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
                uid for i, uid in enumerate(current) if i not in removed_set
            ]
