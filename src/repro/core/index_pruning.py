"""Index-level pruning (Section 4.2, Lemmas 6-9, Eqs. 15-19).

These predicates run during the Algorithm-2 traversal on whole index
nodes, discarding entire subtrees:

* Lemma 6 — matching-score pruning of road-index nodes via the hashed
  keyword-superset vector (Eq. 15);
* Lemma 7 — road-network distance pruning of road-index nodes via
  pivot-based upper/lower bounds (Eqs. 16-17) plus the Euclidean
  ``mindist`` guard;
* Lemma 8 — interest-score pruning of social-index nodes whose interest
  MBR lies entirely in the pruning region of the query user;
* Lemma 9 — social-distance pruning of social-index nodes via the
  pivot-gap lower bound (Eq. 19).

Each predicate takes the bound values it tests (a node's pivot
intervals, hashed ``sup_K`` vector or interest MBR), not a node: the
indexes keep those bounds as rows of their columns
(:class:`~repro.index.road_index.RoadColumns`,
:class:`~repro.index.social_index.SocialColumns`), and these scalar
forms are the per-entry references the whole-index gates are checked
against.

A note on bound direction: upper bounds may only *over*-estimate, lower
bounds only *under*-estimate. The hashed bit vectors over-approximate
keyword sets, so they appear only in the Lemma-6 *upper* bound; the
Eq. 18 *lower* bound evaluates the sample objects' exact keyword subsets.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Sequence

import numpy as np

from ..geometry import MBR
from ..index.bitvector import KeywordBitVector
from .scores import match_score, match_score_bitvector
from .pruning import PruningRegion

# ---------------------------------------------------------------------------
# Road-network index pruning (Section 4.2.1)
# ---------------------------------------------------------------------------


def ub_match_score_road_node(
    interests: np.ndarray, sup_vector: KeywordBitVector
) -> float:
    """Eq. 15: matching-score upper bound from a hashed keyword superset.

    ``sup_vector`` is a node's ``sup_K`` vector, the OR of its POIs'
    (Lemma 6), or a POI's own (Lemma 1's upper bound).
    """
    return match_score_bitvector(interests, sup_vector)


def road_node_matching_prunable(
    interests: np.ndarray, sup_vector: KeywordBitVector, theta: float
) -> bool:
    """Lemma 6: prune node ``e_R`` when ``ub_Match_Score(u, e_R) < theta``."""
    return ub_match_score_road_node(interests, sup_vector) < theta


def ub_maxdist_road_node(
    s_ub_pivot_dists: Sequence[float],
    node_ub_pivot_dists: Sequence[float],
    radius: float,
) -> float:
    """Eq. 16: pivot-based *upper* bound of ``maxdist_RN(S, e_R)``.

    ``min_k { max_{u in S} dist(u, rp_k) + ub_dist(e_R, rp_k) + 2r }``.

    Args:
        s_ub_pivot_dists: per-pivot upper bounds of the user-set side
            (``max_{u in S} dist_RN(u, rp_k)``, or the node ``ub`` when S
            still holds index nodes).
        node_ub_pivot_dists: the road node's ``ub_dist_RN(e_R, rp_k)``.
        radius: the query radius ``r``; the ``2r`` term covers the spread
            of the candidate region around its POIs.
    """
    best = math.inf
    for s_ub, n_ub in zip(s_ub_pivot_dists, node_ub_pivot_dists):
        bound = s_ub + n_ub + 2.0 * radius
        if bound < best:
            best = bound
    return best


def lb_maxdist_road_node(
    uq_pivot_dists: Sequence[float],
    node_lb_pivot_dists: Sequence[float],
    node_ub_pivot_dists: Sequence[float],
) -> float:
    """Eq. 17: pivot-based *lower* bound of ``maxdist_RN(S, e_R)``.

    Uses only the query user (who is guaranteed to be in S): per pivot,
    the gap between ``dist(u_q, rp_k)`` and the node's distance interval
    ``[lb, ub]`` lower-bounds the distance from ``u_q`` to every POI
    under the node.
    """
    best = 0.0
    for d_q, lb, ub in zip(uq_pivot_dists, node_lb_pivot_dists, node_ub_pivot_dists):
        if math.isinf(d_q) or math.isinf(lb) or math.isinf(ub):
            continue
        if d_q < lb:
            gap = lb - d_q
        elif d_q > ub:
            gap = d_q - ub
        else:
            gap = 0.0
        if gap > best:
            best = gap
    return best


def road_node_pair_prunable(
    lb_maxdist_candidate: float,
    ub_maxdist_witness: float,
    euclid_mindist: float,
    radius: float,
) -> bool:
    """Lemma 7: prune ``e_Ri`` against a witness node ``e_Rj``.

    Requires both the distance domination
    ``lb_maxdist(S, e_Ri) > ub_maxdist(S, e_Rj)`` and the spatial
    separation ``mindist(e_Ri, e_Rj) > 2r`` (so no candidate region can
    straddle the two nodes).
    """
    return (
        lb_maxdist_candidate > ub_maxdist_witness
        and euclid_mindist > 2.0 * radius
    )


def lb_match_score_road_node(
    user_interest_vectors: Sequence[np.ndarray],
    sample_sub_keywords: Sequence[AbstractSet[int]],
) -> float:
    """Eq. 18: matching-score *lower* bound from a node's sample objects.

    ``max_{sample o_i} min_{u_j in S} Match_Score(u_j, o_i.sub_K)`` —
    evaluated on the samples' exact keyword subsets
    ``sample_sub_keywords`` (a hashed vector would not give a valid
    lower bound).
    """
    if not sample_sub_keywords or not user_interest_vectors:
        return 0.0
    best = 0.0
    for sub_keywords in sample_sub_keywords:
        worst_user = min(
            match_score(w, sub_keywords) for w in user_interest_vectors
        )
        if worst_user > best:
            best = worst_user
    return best


# ---------------------------------------------------------------------------
# Social-network index pruning (Section 4.2.2)
# ---------------------------------------------------------------------------


def social_node_interest_prunable(
    region: PruningRegion, interest_mbr: MBR
) -> bool:
    """Lemma 8: prune ``e_S`` when its interest MBR lies in ``PR(u_q)``."""
    return region.contains_mbr(interest_mbr)


def lb_dist_sn_social_node(
    uq_pivot_dists: Sequence[float],
    node_lb_pivot_dists: Sequence[float],
    node_ub_pivot_dists: Sequence[float],
) -> float:
    """Eq. 19: pivot-gap lower bound of ``dist_SN(u_q, e_S)``.

    Per social pivot ``sp_k``, any user under ``e_S`` is between
    ``lb_dist_SN(e_S, sp_k)`` and ``ub_dist_SN(e_S, sp_k)`` hops from the
    pivot; the gap to ``dist_SN(u_q, sp_k)`` lower-bounds the hops from
    ``u_q``. A one-sided infinity means ``u_q`` and the node provably sit
    in different components, giving an infinite bound.
    """
    best = 0.0
    for d_q, lb, ub in zip(
        uq_pivot_dists, node_lb_pivot_dists, node_ub_pivot_dists
    ):
        q_inf = math.isinf(d_q)
        if q_inf:
            if not math.isinf(ub):
                # Every user under the node reaches pivot k but u_q does
                # not: the whole node lies in other components.
                return math.inf
            # Some users share u_q's unreachability — they might sit in
            # u_q's own component, so this pivot gives no information.
            continue
        if math.isinf(lb):
            # All users unreachable from pivot k while u_q is reachable:
            # provably different components.
            return math.inf
        if math.isinf(ub):
            # Mixed node: only the lb-side gap is safe (unreachable
            # members are provably in other components, hence farther).
            gap = lb - d_q if d_q < lb else 0.0
        elif d_q < lb:
            gap = lb - d_q
        elif d_q > ub:
            gap = d_q - ub
        else:
            gap = 0.0
        if gap > best:
            best = gap
    return best


def social_node_distance_prunable(lb_hops: float, tau: int) -> bool:
    """Lemma 9: prune ``e_S`` when ``lb_dist_SN(u_q, e_S) >= tau``."""
    return lb_hops >= tau


# ---------------------------------------------------------------------------
# Explain rule registry (index level)
# ---------------------------------------------------------------------------

#: Stable rule IDs for the index-level (subtree) pruning decisions; see
#: :data:`repro.core.pruning.OBJECT_RULES` for the margin convention.
#: Prune counts for these rules are in *objects under the discarded
#: subtree* (POIs or users), matching PruningCounters semantics, so the
#: funnel invariant holds at object granularity.
INDEX_RULES = {
    "idx.road_matching": {
        "lemma": "Lemma 6 / Eq. 15",
        "figure": "Fig. 7a/7c",
        "margin_unit": "theta - ub_match_score",
        "description": "road-index node keyword-superset matching bound "
        "misses theta",
    },
    "idx.road_distance": {
        "lemma": "Lemma 7 / Eqs. 16-17",
        "figure": "Fig. 7a/7c",
        "margin_unit": "lb_maxdist - delta",
        "description": "road-index node distance lower bound exceeds the "
        "best-pair upper bound delta",
    },
    "idx.social_interest": {
        "lemma": "Lemma 8",
        "figure": "Fig. 7a/7b",
        "margin_unit": "gamma - ub_interest_score",
        "description": "social-index node interest MBR lies entirely in "
        "PR(u_q)",
    },
    "idx.social_hops": {
        "lemma": "Lemma 9 / Eq. 19",
        "figure": "Fig. 7a/7b",
        "margin_unit": "lb_hops - tau",
        "description": "social-index node pivot-gap hop bound reaches tau",
    },
}
