"""Whole-index social gates: Algorithm 2's I_S bounds as columns.

The I_S descent of Algorithm 2 (lines 4-10) decides every social-index
entry by four bounds, none of which reads the I_S level:

* Lemma 4 — ``pivot_lower_bound`` of a user's hops to u_q;
* Lemma 3 — the user's ``Interest_Score`` with u_q;
* Lemma 9 — Eq. 19, the pivot-gap hop bound of a node;
* Lemma 8 — the metric's upper bound over a node's interest MBR.

The index keeps its user values and node bounds in one place,
:class:`~repro.index.social_index.SocialColumns`, current as it is
maintained, and :class:`SocialGates` evaluates the four bounds for
every entry of the index at once, per query. The traversal then only
looks decisions up, by user slot or node page id.
:class:`UserGates` is the user half alone, which the scan processor
runs over its own matrices.

Every decision equals the per-entry predicate, which
``tests/properties/test_social_gates.py`` checks entry by entry:

* the hop bounds are the same one or two float operations per pivot,
  and max reductions are order-free, so they are bitwise equal;
* JACCARD and HAMMING count support overlaps as integers and divide as
  :meth:`~repro.core.metrics.MetricScorer.score` does, so they are
  bitwise equal too;
* DOT and COSINE come from matrix products, which may differ from the
  scalar ``np.dot`` in the last bits, so every entry within
  :data:`~repro.core.metrics.PAIR_TOL` of ``gamma`` is decided by the
  scalar score (:func:`~repro.core.metrics.at_least`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..geometry import MBR
from ..index.social_index import SocialColumns
from .metrics import InterestMetric, MetricScorer, at_least

#: Rule codes of :attr:`UserGates.rules` and :attr:`SocialGates.node_rules`:
#: kept, pruned by hops (Lemma 4 / 9), pruned by interest (Lemma 3 / 8).
KEEP, HOPS, INTEREST = 0, 1, 2

# A norm below this may have lost its precision to underflow; a COSINE
# entry with one is always decided by the scalar score.
_TINY_NORM = float(np.sqrt(np.finfo(np.float64).tiny))


def hop_lower_bounds(uq: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Lemma 4 per row: ``pivot_lower_bound(row, uq)``.

    A pivot infinite on both sides is skipped, a one-sided infinity
    gives ``inf``, otherwise the bound is the largest ``|a - b|``: as
    ``|a - b|`` is NaN, ``inf`` and the gap in those three cases, one
    NaN-skipping max from ``0.0`` is the bound.
    """
    with np.errstate(invalid="ignore"):
        return np.fmax.reduce(np.abs(rows - uq), axis=1, initial=0.0)


def node_hop_lower_bounds(
    uq: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> np.ndarray:
    """Lemma 9 per row: Eq. 19, ``lb_dist_sn_social_node``.

    Per pivot the bound is the larger of ``lb - uq`` and ``uq - ub``
    (at most one is positive), NaN-skipping, from ``0.0``. That covers
    the infinite cases: with u_q unreachable from the pivot,
    ``uq - ub`` is ``inf`` when all the node's users reach it (finite
    ``ub``: the node is elsewhere) and NaN otherwise (no information);
    with u_q reachable, ``lb - uq`` is ``inf`` for an all-unreachable
    node and a mixed node (infinite ``ub``) keeps its ``lb``-side gap.
    """
    with np.errstate(invalid="ignore"):
        gap = np.fmax(lb - uq, uq - ub)
    return np.fmax.reduce(gap, axis=1, initial=0.0)


def _cosine(numerator: np.ndarray, norms: np.ndarray, na: float) -> np.ndarray:
    """``min(1, numerator / (norms * na))``; NaN where a norm is tiny."""
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.minimum(numerator / (norms * na), 1.0)
    values[norms < _TINY_NORM] = np.nan
    return values


def interest_scores(
    scorer: MetricScorer, anchor: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """``scorer.score(anchor, row)`` per row, up to DOT/COSINE last bits.

    COSINE entries whose row norm is tiny are NaN, so that
    :func:`~repro.core.metrics.at_least` decides them by the scalar
    score.
    """
    metric = scorer.metric
    if metric is InterestMetric.DOT:
        return rows @ anchor
    if metric is InterestMetric.COSINE:
        na = float(np.linalg.norm(anchor))
        if na == 0.0:
            return np.zeros(len(rows))
        values = _cosine(rows @ anchor, np.linalg.norm(rows, axis=1), na)
        if na < _TINY_NORM:
            values[:] = np.nan
        return values
    t = scorer.binarize_threshold
    member = rows >= t
    mine = anchor >= t
    shared = (member & mine).sum(axis=1)
    if metric is InterestMetric.JACCARD:
        union = (member | mine).sum(axis=1)
        values = np.zeros(len(rows))
        np.divide(shared, union, out=values, where=union > 0)
        return values
    d = rows.shape[1]  # HAMMING similarity
    if d == 0:
        return np.zeros(len(rows))
    return 1.0 - (member ^ mine).sum(axis=1) / d


def box_upper_bounds(
    scorer: MetricScorer, anchor: np.ndarray, low: np.ndarray, high: np.ndarray
) -> np.ndarray:
    """``scorer.ub_over_box([low, high], anchor)`` per row, up to the
    DOT/COSINE last bits (NaN where a COSINE norm is tiny)."""
    metric = scorer.metric
    if metric is InterestMetric.DOT:
        return high @ anchor
    if metric is InterestMetric.COSINE:
        na = float(np.linalg.norm(anchor))
        if na == 0.0:
            return np.zeros(len(high))
        nl = np.linalg.norm(low, axis=1)
        values = _cosine(high @ anchor, nl, na)
        values[nl == 0.0] = 1.0
        if na < _TINY_NORM:
            values[:] = np.nan
        return values
    t = scorer.binarize_threshold
    mine = anchor >= t
    if metric is InterestMetric.JACCARD:
        inter = ((high >= t) & mine).sum(axis=1)
        union = ((low >= t) | mine).sum(axis=1)
        values = (inter > 0).astype(np.float64)
        np.divide(inter, union, out=values, where=union > 0)
        return np.minimum(values, 1.0)
    d = anchor.shape[0]  # HAMMING similarity
    if d == 0:
        return np.zeros(len(high))
    forced = ((mine & (high < t)) | (~mine & (low >= t))).sum(axis=1)
    return 1.0 - forced / d


class UserGates:
    """Lemmas 4 and 3 for a matrix of users against one issuer.

    ``issuer`` is u_q's own row, which is always kept.

    Attributes:
        hops: per row, the Lemma-4 hop lower bound (a list).
        rules: per row, :data:`KEEP`, :data:`HOPS` (the hop bound
            reaches ``tau``; checked first) or :data:`INTEREST` (the
            interest score is below ``gamma``). A rule that is off
            never fires.
    """

    __slots__ = ("scorer", "anchor", "interests", "hops", "rules")

    def __init__(
        self,
        scorer: MetricScorer,
        anchor: np.ndarray,
        uq_hops: Sequence[float],
        hops: np.ndarray,
        interests: np.ndarray,
        issuer: int,
        tau: int,
        gamma: float,
        distance: bool = True,
        interest: bool = True,
    ) -> None:
        self.scorer = scorer
        self.anchor = anchor
        self.interests = interests
        bound = hop_lower_bounds(np.asarray(uq_hops, dtype=np.float64), hops)
        rules = np.zeros(len(bound), dtype=np.int8)
        if distance:
            rules[bound >= tau] = HOPS
        if interest:
            ok = at_least(
                interest_scores(scorer, np.asarray(anchor, dtype=float), interests),
                gamma, self.score,
            )
            rules[~ok & (rules == KEEP)] = INTEREST
        rules[issuer] = KEEP
        self.hops = bound.tolist()
        self.rules = rules.tolist()

    def score(self, row: int) -> float:
        """The exact Lemma-3 score of ``row`` (scalar ``scorer.score``)."""
        return self.scorer.score(self.anchor, self.interests[row])


class SocialGates:
    """One query's I_S decisions for every entry of the index.

    ``users`` holds the per-slot Lemma 4/3 rules (:class:`UserGates`);
    ``node_hops`` and ``node_rules`` are the Lemma 9/8 values and rules
    by page id. u_q's slot and every page on its path are kept whatever
    their bounds: u_q and its subtree are never pruned.
    """

    __slots__ = ("columns", "scorer", "anchor", "users", "node_hops", "node_rules")

    def __init__(
        self,
        columns: SocialColumns,
        scorer: MetricScorer,
        anchor: np.ndarray,
        uq_hops: Sequence[float],
        query_user: int,
        tau: int,
        gamma: float,
        distance: bool = True,
        interest: bool = True,
    ) -> None:
        self.columns = columns
        self.scorer = scorer
        self.anchor = anchor
        uq_slot = columns.slot_of[query_user]
        self.users = UserGates(
            scorer, anchor, uq_hops, columns.user_social,
            columns.user_interests, uq_slot, tau, gamma, distance, interest,
        )
        q = np.asarray(uq_hops, dtype=np.float64)
        bound = node_hop_lower_bounds(
            q, columns.node_social_lb, columns.node_social_ub
        )
        rules = np.zeros(len(bound), dtype=np.int8)
        if distance:
            rules[bound >= tau] = HOPS
        if interest:
            ok = at_least(
                box_upper_bounds(
                    scorer, np.asarray(anchor, dtype=float),
                    columns.node_low, columns.node_high,
                ),
                gamma, self.node_bound,
            )
            rules[~ok & (rules == KEEP)] = INTEREST
        rules[columns.path_pages(uq_slot)] = KEEP
        self.node_hops = bound.tolist()
        self.node_rules = rules.tolist()

    def node_bound(self, page: int) -> float:
        """The exact Lemma-8 bound of node ``page`` (scalar
        ``scorer.ub_over_box``)."""
        cols = self.columns
        return self.scorer.ub_over_box(
            MBR(cols.node_low[page], cols.node_high[page]), self.anchor
        )
