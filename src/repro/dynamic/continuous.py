"""Standing GP-SSN queries re-answered incrementally under mutations.

A :class:`ContinuousQueryRegistry` holds subscribed queries together
with their cached outcomes. Each incoming mutation is applied through a
:class:`~repro.dynamic.maintenance.DynamicIndexMaintainer` and then
tested against every *clean* standing query with a per-query
dirty-region predicate; queries the mutation provably cannot affect
keep their cached outcome, the rest are marked dirty and re-answered in
one batch at the end of :meth:`apply_batch`.

The skip predicates are **parity-exact**, not merely conservative: a
skipped query's cached outcome is byte-identical to what a fresh
re-evaluation (or a from-scratch rebuild) would produce. The arguments
follow, one per rule id; a social mutation meets the first three in the
order listed, cheapest first:

``cq.issuer_interest`` (user moves, friendship flips)
    Definition 5 requires every member of a group to score
    ``Interest_Score >= gamma`` with the issuer. A user other than the
    issuer that scores below ``gamma`` against it ("hostile") is in no
    valid group: the enumeration's ``compatible`` check rejects it the
    moment it reaches a frontier, and never extends it. Its position
    and its edges therefore change no group's value and no group's
    discovery order — an edge to a hostile user only adds a rejected
    frontier entry, and a path through one never connects a group. So
    a move of a hostile user, or a friend edit with a hostile endpoint,
    leaves the answer unchanged. The test is the enumeration's own
    ``MetricScorer.score`` call, so the skip agrees with it bit for
    bit. The issuer is never hostile, even when its self-score is below
    ``gamma``. Interests never mutate, so the test reads the same before
    and after the apply.

``cq.member_distance`` (user moves only)
    A pair's value is at least every member's distance to every POI of
    its region (Lemma 5), so a pair whose group holds both the issuer
    and the moved user ``u`` has value at least
    ``lb = min_o max(dist_RN(u_q, o), dist_RN(u, o))`` over all POIs
    ``o``. If the answer is found, ``u`` is not in it and
    ``lb > delta`` (strictly), every pair containing ``u`` loses to the
    incumbent after the move. A move changes neither the social graph
    nor the issuer's seed order, so every pair without ``u`` keeps its
    value and its discovery order, and the incumbent — the first pair
    found at ``delta`` — still wins. Both rows come from
    ``PairKernel.member_row``, the rows the refinement itself reads.
    The rule is move-only: a friend edit reorders the group
    enumeration's depth-first search, so a pair tying the incumbent at
    ``delta`` could be discovered first and win.

``cq.social_hops`` (friendship flips, user moves)
    Every member of a connected ``tau``-group containing the issuer is
    within ``tau - 1`` hops of the issuer (a path inside the group has
    at most ``tau - 1`` edges). A new edge can only create groups
    containing both endpoints; a removed edge can only destroy groups
    containing both; a moved user only matters if they can be a member.
    So if either endpoint (resp. the moved user) is farther than
    ``tau - 1`` hops from the issuer — measured on the graph *with* the
    edge, i.e. post-apply for ``add_friend`` and pre-apply for
    ``remove_friend`` — the feasible group set, and hence the answer,
    is unchanged.

``cq.spatial_ball`` (``add_poi``)
    Any answer pair ``(S, R)`` with the new POI ``o`` in ``R`` has
    value ``maxdist_RN(S, R) >= dist_RN(u_q, o)`` because the issuer is
    in ``S``. If ``dist_RN(u_q, o) > delta`` (the cached best value,
    strictly) every pair involving ``o`` loses to the incumbent, and
    pairs not involving ``o`` are untouched — including the incumbent's
    own region, whose minimal-prefix selection cannot come to include a
    POI that would push its value above ``delta``. The strict
    inequality protects first-discovered-wins ties: at equality a new
    pair could tie the incumbent and win on enumeration order.

``cq.poi_monotone`` (``remove_poi``)
    Removing a POI only shrinks region options, so every pair's value
    is monotonically non-decreasing and no new pairs appear. If the
    query had no answer, it still has none (always skip). If it had
    one, the incumbent survives unchanged as long as the removed POI is
    outside its region ``R`` *and* no nearer to the issuer than
    ``delta`` (the belt-and-braces distance condition guards region
    recomputations near the value frontier; distances are measured
    before the POI leaves the network).

Re-answering reuses the batch pipeline verbatim — ``plan_batch`` →
``run_with_limits`` → ``fan_out_outcomes`` — so standing-query
outcomes carry the same request ids and serialize to the same JSONL
bytes as a cold ``gpssn batch`` run over the mutated bundle. That
byte-diff is the ``dynamic-smoke`` CI gate.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.metrics import MetricScorer
from ..core.query import GPSSNQuery
from ..service.batch import plan_batch, query_request_id
from ..service.limits import ExecutionLimits, QueryOutcome, run_with_limits
from ..service.executor import fan_out_outcomes
from ..service.protocol import Entry, outcome_lines
from .maintenance import DynamicIndexMaintainer
from .ops import Mutation

__all__ = ["ContinuousQueryRegistry", "StandingQuery", "CONTINUOUS_PHASE"]

#: Funnel phase name for the per-mutation standing-query skip tests.
CONTINUOUS_PHASE = "continuous.queries"


def _touched_users(mutation: Mutation) -> Tuple[int, ...]:
    """The users a social mutation touches: the moved user or both
    edge endpoints. POI mutations touch none."""
    if mutation.op == "move_user":
        return (mutation.user,)
    if mutation.op in ("add_friend", "remove_friend"):
        return (mutation.a, mutation.b)
    return ()


class StandingQuery:
    """One subscribed query plus its cached outcome.

    ``index`` is the subscription position — outcomes are re-addressed
    to it so the registry's output stream diffs cleanly against a cold
    batch run over the same query file.
    """

    __slots__ = ("index", "query", "max_groups", "request_id", "scorer",
                 "outcome", "dirty", "reanswers", "skips")

    def __init__(
        self, index: int, query: GPSSNQuery, max_groups: Optional[int]
    ) -> None:
        self.index = index
        self.query = query
        self.max_groups = max_groups
        self.request_id = query_request_id(query, max_groups)
        # The scorer the processor builds for this query, so the
        # issuer-interest skip scores exactly as the enumeration does.
        self.scorer = MetricScorer(query.metric)
        self.outcome: Optional[QueryOutcome] = None
        self.dirty = True
        self.reanswers = 0
        self.skips = 0

    @property
    def answer(self):
        """The cached answer, or None before the first evaluation."""
        if self.outcome is None or not self.outcome.ok:
            return None
        return self.outcome.answer

    def describe(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "request_id": self.request_id,
            "user": self.query.query_user,
            "dirty": self.dirty,
            "reanswers": self.reanswers,
            "skips": self.skips,
        }


class ContinuousQueryRegistry:
    """Standing queries with dirty-region tests over a mutation stream."""

    def __init__(
        self,
        maintainer: DynamicIndexMaintainer,
        limits: Optional[ExecutionLimits] = None,
    ) -> None:
        self.maintainer = maintainer
        self.processor = maintainer.processor
        self.network = maintainer.network
        self.limits = limits if limits is not None else ExecutionLimits()
        self.queries: List[StandingQuery] = []

    # -- subscription ------------------------------------------------------

    def subscribe(self, entries: Sequence[Entry]) -> List[StandingQuery]:
        """Register ``(query, max_groups)`` entries and answer them."""
        start = len(self.queries)
        added = [
            StandingQuery(start + i, query, max_groups)
            for i, (query, max_groups) in enumerate(entries)
        ]
        self.queries.extend(added)
        self.reanswer()
        return added

    # -- mutation stream ---------------------------------------------------

    def apply_batch(self, mutations: Iterable[Mutation]) -> Dict[str, int]:
        """Apply mutations, skip-test standing queries, re-answer dirty ones.

        Queries already dirty are not re-tested (they are re-answered
        against the final network anyway); clean queries accumulate one
        funnel visit per mutation in the ``continuous.queries`` phase.
        """
        applied = skipped = triggered = 0
        for mutation in mutations:
            pre = self._pre_apply_tests(mutation)
            self.maintainer.apply(mutation)
            s, t = self._post_apply_tests(mutation, pre)
            skipped += s
            triggered += t
            applied += 1
        metrics = self.processor.recorder.metrics
        metrics.inc("dynamic.cq.skipped", float(skipped))
        metrics.inc("dynamic.cq.triggered", float(triggered))
        reanswered = self.reanswer()
        return {
            "applied": applied,
            "skipped": skipped,
            "dirty": triggered,
            "reanswered": reanswered,
        }

    def _clean_queries(self) -> List[StandingQuery]:
        return [sq for sq in self.queries if not sq.dirty]

    @staticmethod
    def _failed(sq: StandingQuery) -> bool:
        return sq.outcome is not None and not sq.outcome.ok

    def _pre_apply_tests(self, mutation: Mutation) -> Dict[int, object]:
        """Context that must be captured before the mutation lands.

        * ``remove_friend`` — the edge's reach test reads the graph
          *with* the edge (a destroyed group used it). It is not run
          for a query the issuer-interest rule will skip.
        * ``remove_poi`` — the POI's issuer distances need its position,
          gone after the apply. They are read from each issuer's
          ``("user", id)`` map, which POI churn never evicts, so
          measuring before or after the apply costs the same search.
        """
        op = mutation.op
        pre: Dict[int, object] = {}
        if op == "remove_friend":
            for sq in self._clean_queries():
                if self._failed(sq) or self._hostile_margin(
                    sq, _touched_users(mutation)
                ) is not None:
                    continue
                pre[sq.index] = self._edge_in_reach(
                    sq, mutation.a, mutation.b
                )
        elif op == "remove_poi":
            poi = self.network.poi(mutation.poi)
            for sq in self._clean_queries():
                if self._failed(sq):
                    continue
                pre[sq.index] = self._issuer_poi_distance(sq, poi.position)
        return pre

    def _post_apply_tests(
        self, mutation: Mutation, pre: Dict[int, object]
    ) -> Tuple[int, int]:
        """Run the skip predicate for every clean query; mark the rest dirty."""
        op = mutation.op
        touched = _touched_users(mutation)
        skipped = triggered = 0
        ex = self.processor.recorder.explain
        for sq in self._clean_queries():
            ex.visit(CONTINUOUS_PHASE)
            if self._failed(sq):
                # A failed query has no cached answer to protect, and its
                # issuer may not even exist — skip predicates would read a
                # user the graph does not have. Re-answer it against the
                # current network, exactly as a from-scratch rebuild would.
                sq.dirty = True
                triggered += 1
                ex.survive(CONTINUOUS_PHASE)
                continue
            hostile = self._hostile_margin(sq, touched)
            if hostile is not None:
                keep, rule, margin = True, "cq.issuer_interest", hostile
            elif op == "move_user":
                keep, rule, margin = self._test_move_user(sq, mutation.user)
            elif op == "add_friend":
                keep, rule, margin = self._test_add_friend(
                    sq, mutation.a, mutation.b
                )
            elif op == "remove_friend":
                keep, rule, margin = self._test_remove_friend(
                    sq, bool(pre.get(sq.index, True))
                )
            elif op == "add_poi":
                keep, rule, margin = self._test_add_poi(sq, mutation.poi)
            else:  # remove_poi
                keep, rule, margin = self._test_remove_poi(
                    sq, mutation.poi, pre.get(sq.index)
                )
            if keep:
                sq.skips += 1
                skipped += 1
                ex.prune(CONTINUOUS_PHASE, rule, margin=margin)
            else:
                sq.dirty = True
                triggered += 1
                ex.survive(CONTINUOUS_PHASE)
        return skipped, triggered

    # -- individual predicates (True => safe to keep the cached answer) ---

    def _issuer_ball(self, sq: StandingQuery) -> Dict[int, int]:
        """Hop distances within ``tau - 1`` of the issuer, *current* graph.

        Recomputed per test — skipped mutations still drift the graph,
        so a cached ball would go stale exactly when it matters.
        """
        return self.network.social.hop_distances_from(
            sq.query.query_user, max_hops=sq.query.tau - 1
        )

    def _issuer_poi_distance(self, sq: StandingQuery, position) -> float:
        user = self.network.social.user(sq.query.query_user)
        return self.network.distances.distance(
            ("user", sq.query.query_user), user.home, position
        )

    def _edge_in_reach(self, sq: StandingQuery, a: int, b: int) -> bool:
        ball = self._issuer_ball(sq)
        return a in ball and b in ball

    def _hostile_margin(
        self, sq: StandingQuery, user_ids: Sequence[int]
    ) -> Optional[float]:
        """``gamma - score`` of the first user hostile to the issuer.

        A user is hostile when it is not the issuer and its
        ``Interest_Score`` with the issuer is below ``gamma``, scored by
        the same call the enumeration's ``compatible`` check makes.
        None when no user in ``user_ids`` is hostile.
        """
        query = sq.query
        social = self.network.social
        for uid in user_ids:
            if uid == query.query_user:
                continue
            score = sq.scorer.score(
                social.user(uid).interests,
                social.user(query.query_user).interests,
            )
            if score < query.gamma:
                return query.gamma - score
        return None

    def _member_distance_margin(
        self, sq: StandingQuery, user_id: int
    ) -> Optional[float]:
        """``lb - delta`` when every pair holding ``user_id`` loses.

        ``lb = min_o max(dist_RN(u_q, o), dist_RN(u, o))`` bounds the
        value of every pair whose group holds the issuer and ``u``.
        None when the answer is not found, ``u`` is in it, or
        ``lb <= delta``.
        """
        answer = sq.answer
        if answer is None or not answer.found or user_id in answer.users:
            return None
        kernel = self.processor._pair_kernel()
        # Over live slots only: a retired slot's value is a removed POI's.
        lb = float(np.maximum(
            kernel.member_row(sq.query.query_user), kernel.member_row(user_id)
        ).min(where=kernel.live, initial=math.inf))
        if lb > answer.max_distance:
            return lb - answer.max_distance
        return None

    def _test_move_user(self, sq: StandingQuery, user_id: int):
        margin = self._member_distance_margin(sq, user_id)
        if margin is not None:
            return True, "cq.member_distance", margin
        if user_id in self._issuer_ball(sq):
            return False, "", None
        return True, "cq.social_hops", math.inf

    def _test_add_friend(self, sq: StandingQuery, a: int, b: int):
        # Post-apply graph: a new group using the edge contains both
        # endpoints, each within tau - 1 hops on the *new* graph.
        if self._edge_in_reach(sq, a, b):
            return False, "", None
        return True, "cq.social_hops", math.inf

    def _test_remove_friend(self, sq: StandingQuery, in_reach: bool):
        if in_reach:
            return False, "", None
        return True, "cq.social_hops", math.inf

    def _test_add_poi(self, sq: StandingQuery, poi_id: int):
        answer = sq.answer
        if answer is None or not answer.found:
            # A new POI can create the first feasible pair.
            return False, "", None
        poi = self.network.poi(poi_id)
        dist = self._issuer_poi_distance(sq, poi.position)
        if dist > answer.max_distance:
            return True, "cq.spatial_ball", dist - answer.max_distance
        return False, "", None

    def _test_remove_poi(
        self, sq: StandingQuery, poi_id: int, pre_distance: Optional[float]
    ):
        answer = sq.answer
        if answer is None:
            return False, "", None
        if not answer.found:
            # Shrinking the POI set cannot create an answer.
            return True, "cq.poi_monotone", None
        if (
            poi_id not in answer.pois
            and pre_distance is not None
            and pre_distance >= answer.max_distance
        ):
            return True, "cq.poi_monotone", pre_distance - answer.max_distance
        return False, "", None

    # -- re-answering ------------------------------------------------------

    def reanswer(self) -> int:
        """Flush index maintenance and re-answer every dirty query.

        Uses the shared batch recipe (dedupe plan + limits envelope +
        fan-out) with a single in-process worker, then re-addresses each
        outcome to the query's subscription index.
        """
        self.maintainer.flush()
        dirty = [sq for sq in self.queries if sq.dirty]
        if not dirty:
            return 0
        plan = plan_batch([(sq.query, sq.max_groups) for sq in dirty], 1)
        item_outcomes: Dict[int, QueryOutcome] = {}
        for item_idx in plan.shards[0]:
            item = plan.items[item_idx]
            item_outcomes[item_idx] = run_with_limits(
                lambda item=item: self.processor.answer(
                    item.query, max_groups=item.max_groups
                ),
                self.limits,
                index=item.positions[0],
                worker=0,
                request_id=item.request_id,
            )
        for sq, outcome in zip(dirty, fan_out_outcomes(plan, item_outcomes)):
            sq.outcome = outcome.replicated(sq.index)
            sq.dirty = False
            sq.reanswers += 1
        return len(dirty)

    # -- output ------------------------------------------------------------

    def outcomes(self) -> List[QueryOutcome]:
        """Cached outcomes in subscription order (all queries answered)."""
        result: List[QueryOutcome] = []
        for sq in self.queries:
            if sq.outcome is None:
                raise RuntimeError(
                    f"standing query {sq.index} has no outcome; "
                    "call reanswer() first"
                )
            result.append(sq.outcome)
        return result

    def outcome_lines(self) -> List[str]:
        """The registry's answers as batch-protocol JSONL lines."""
        return outcome_lines(self.outcomes())

    def describe(self) -> Dict[str, object]:
        return {
            "queries": len(self.queries),
            "dirty": sum(1 for sq in self.queries if sq.dirty),
            "skips": sum(sq.skips for sq in self.queries),
            "reanswers": sum(sq.reanswers for sq in self.queries),
            "maintainer": self.maintainer.describe(),
        }
