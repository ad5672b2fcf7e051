"""Incremental index maintenance for dynamic spatial-social networks.

:class:`DynamicIndexMaintainer` wraps a built
:class:`~repro.core.algorithm.GPSSNQueryProcessor` and applies typed
mutations (:mod:`repro.dynamic.ops`) through
:meth:`repro.network.SpatialSocialNetwork.apply` while keeping the
processor's index structures serviceable *without* a from-scratch
rebuild. Division of labour per structure:

* **Road index** — maintained exactly. R*-tree insert/delete is exact,
  and one truncated Dijkstra per POI mutation updates the symmetric
  ``2*r_max`` neighbourhood's region ids, region distances and sup/sub
  material; the index's columns are re-laid from the R*-tree lazily
  in :meth:`flush`.
* **Social pivot maps** — maintained exactly (a stale hop map could
  over-prune through ``pivot_lower_bound``, the inadmissible
  direction); a per-pivot BFS-level test skips the recompute for most
  edge flips.
* **Social index aggregates** — widen-on-update: Eq. 9-14 bounds may
  loosen but never tighten, so Lemmas 1-5 pruning stays admissible.
  The looseness is tracked by the ``dynamic.bound_slack`` gauge and
  repaired by a :meth:`~repro.index.social_index.SocialIndex.compact`
  pass once the slack crosses ``slack_threshold``.
* **Distance oracle** — no supported mutation edits the road graph,
  so every cached ``dist_RN`` map stays exact except the one rooted at
  the entity a mutation touched: the network forgets the moved user's
  ``("user", id)`` map and the added or removed POI's ``("poi", id)``
  map, and nothing else. The shared oracle drops every map itself (and
  its CSR engine rebuilds the snapshot) when the road version moves.

The contract, enforced oracle-style by the property suite: after any
mutation prefix (plus a :meth:`flush`), the processor answers every
query byte-identically to a processor rebuilt from scratch on the
mutated network.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..exceptions import InvalidParameterError
from .ops import Mutation, MutationLog

#: Default slack threshold triggering a social-index compaction.
DEFAULT_SLACK_THRESHOLD = 64


class DynamicIndexMaintainer:
    """Applies mutations and keeps a processor's indexes serviceable."""

    def __init__(
        self,
        processor,
        slack_threshold: int = DEFAULT_SLACK_THRESHOLD,
    ) -> None:
        if slack_threshold < 1:
            raise InvalidParameterError("slack_threshold must be >= 1")
        self.processor = processor
        self.network = processor.network
        self.slack_threshold = slack_threshold
        self.ops_applied = 0
        self.compactions = 0
        self.refreezes = 0

    # -- mutation application ----------------------------------------------------

    def apply(self, mutation: Mutation) -> None:
        """Apply one mutation to the network and maintain the indexes.

        The processor can answer again after :meth:`flush` (which
        re-lays the road index's columns if POI churn touched them); callers streaming many mutations should batch
        ``apply × N`` + one ``flush`` per re-answer point.
        """
        op = mutation.op
        if op == "move_user":
            self._apply_move_user(mutation)
        elif op in ("add_friend", "remove_friend"):
            self._apply_friend_edge(mutation, removing=op == "remove_friend")
        elif op == "add_poi":
            self.network.apply(mutation)
            self.processor.road_index.insert_poi(mutation.poi)
        elif op == "remove_poi":
            # The neighbourhood distances are unrecoverable after the POI
            # leaves the network: sweep first, mutate second.
            region_dists = self.network.poi_distances_within(
                mutation.poi, 2.0 * self.processor.road_index.r_max
            )
            self.network.apply(mutation)
            self.processor.road_index.delete_poi(mutation.poi, region_dists)
        else:
            raise InvalidParameterError(f"unknown mutation op {op!r}")
        self.ops_applied += 1
        metrics = self.processor.recorder.metrics
        metrics.inc(f"dynamic.ops.{op}")
        metrics.set_gauge(
            "dynamic.bound_slack",
            float(self.processor.social_index.bound_slack),
        )
        self.processor.note_incremental_maintenance()

    def _apply_move_user(self, mutation: Mutation) -> None:
        self.network.apply(mutation)
        uid = mutation.user
        home = self.network.social.user(uid).home
        # Hop distances are move-invariant; only the home-to-road-pivot
        # row changes, recomputed exactly from the pivot Dijkstra maps.
        self.processor.social_index.widen_user(
            uid, road=self.processor.road_pivots.distances(home)
        )

    def _apply_friend_edge(self, mutation: Mutation, removing: bool) -> None:
        social_pivots = self.processor.social_pivots
        # The exactness test reads pre-mutation BFS levels.
        stale = social_pivots.plan_edge_change(
            mutation.a, mutation.b, removing=removing
        )
        self.network.apply(mutation)
        if not stale:
            return
        changed = social_pivots.recompute(stale)
        social_index = self.processor.social_index
        # ``changed`` holds exactly the users whose hop row differs.
        for uid in self.network.social.user_ids():
            if uid in changed:
                social_index.widen_user(
                    uid, social=social_pivots.distances(uid)
                )

    def apply_all(self, mutations: Iterable[Mutation]) -> int:
        count = 0
        for mutation in mutations:
            self.apply(mutation)
            count += 1
        return count

    # -- serviceability ----------------------------------------------------------

    def flush(self) -> Dict[str, object]:
        """Make the processor query-ready; compact if slack demands it.

        Returns a small report (``refroze``, ``compacted``,
        ``tightened``) that the server surfaces in response headers.
        """
        social_index = self.processor.social_index
        refroze = self.processor.road_index.refreeze_if_dirty()
        if refroze:
            self.refreezes += 1
        compacted = False
        tightened = 0
        if social_index.bound_slack >= self.slack_threshold:
            tightened = social_index.compact()
            self.compactions += 1
            compacted = True
            metrics = self.processor.recorder.metrics
            metrics.inc("dynamic.compactions")
            metrics.set_gauge("dynamic.bound_slack", 0.0)
        return {
            "refroze": refroze,
            "compacted": compacted,
            "tightened": tightened,
        }

    def replay(self, log: MutationLog) -> List[Dict[str, object]]:
        """Apply a whole log, flushing once at the end."""
        self.apply_all(log)
        return [self.flush()]

    def describe(self) -> Dict[str, object]:
        return {
            "ops_applied": self.ops_applied,
            "compactions": self.compactions,
            "refreezes": self.refreezes,
            "bound_slack": self.processor.social_index.bound_slack,
            "slack_threshold": self.slack_threshold,
        }
