"""Whole-index road gates: Algorithm 2's I_R bounds as columns.

The I_R sweep of Algorithm 2 (lines 11-28) and the line-30 witness pass
decide every road-index entry by four bounds:

* Lemmas 1 / 6 — ``ub_Match_Score(u_q, ·)`` on a POI's or node's hashed
  ``sup_K`` vector (Eq. 15);
* Lemmas 5 / 7 — the pivot lower bound of ``maxdist_RN`` (Eq. 17);
* Eq. 16 — the pivot upper bound of ``maxdist_RN(S_cand, o)`` that
  tightens ``delta``;
* Eq. 18 — whether ``o.sub_K`` may theta-match every ``S_cand`` entry.

None of them reads ``delta``: the first two depend on the query only,
the last two on the query and the I_S level. The index keeps every
bound of its entries in one place,
:class:`~repro.index.road_index.RoadColumns`, and :class:`RoadGates`
evaluates each bound for every entry of the index at once, per query or
per level. The traversal loop then only looks values up, by POI slot or
node page id, and still applies ``delta`` entry by entry in its usual
order.

The values are bitwise those of the per-entry predicates in
:mod:`repro.core.index_pruning` and of
:func:`~repro.core.scores.match_score` per floor for Eq. 18, which
``tests/properties/test_road_gates.py`` checks entry by entry:

* max and min reductions are order-free;
* every matching score is a sequential sum in ascending topic order,
  as :func:`~repro.core.scores.match_score` runs it (``np.cumsum`` is
  sequential). A topic outside the keyword set adds an exact ``0.0``,
  and ``x + 0.0 == x``;
* every other bound is the same one or two float operations per pivot.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..index.road_index import RoadColumns


def _match_scores(mask: np.ndarray, interests: np.ndarray) -> np.ndarray:
    """Per-row ``Match_Score``: ascending-topic running sum over ``mask``."""
    if not mask.shape[1]:
        return np.zeros(mask.shape[0])
    terms = np.where(mask, np.asarray(interests, dtype=np.float64), 0.0)
    return np.cumsum(terms, axis=1)[:, -1]


def _lb_maxdist(
    q: np.ndarray, lb: np.ndarray, ub: np.ndarray, finite: np.ndarray
) -> np.ndarray:
    """Eq. 17 per row: the largest pivot gap, pivots with an inf skipped."""
    with np.errstate(invalid="ignore"):
        gap = np.where(q < lb, lb - q, np.where(q > ub, q - ub, 0.0))
    gap[~(finite & np.isfinite(q))] = 0.0
    return gap.max(axis=1, initial=0.0)


def exact_match(
    columns: RoadColumns, interests: np.ndarray, slots: Sequence[int]
) -> List[float]:
    """Exact Lemma-1 ``Match_Score(u, o.sup_K)`` for each slot."""
    idx = np.asarray(slots, dtype=np.intp)
    return _match_scores(columns.exact_mask[idx], interests).tolist()


class RoadGates:
    """One query's I_R bounds for every entry.

    ``poi_match``/``poi_lb`` are indexed by slot and ``node_match``/
    ``node_lb`` by page id; :meth:`level` refreshes ``poi_ub`` and
    ``poi_witness`` (per slot) for a new ``S_cand``.
    """

    __slots__ = (
        "columns", "theta", "radius",
        "poi_match", "node_match", "poi_lb", "node_lb",
        "poi_ub", "poi_witness", "_ub", "_witness",
    )

    def __init__(
        self,
        columns: RoadColumns,
        interests: np.ndarray,
        uq_pivot_dists: Sequence[float],
        theta: float,
        radius: float,
    ) -> None:
        self.columns = columns
        self.theta = theta
        self.radius = radius
        num_pois = len(columns.aps)
        match = _match_scores(columns.sup_mask, interests).tolist()
        self.poi_match = match[:num_pois]  # Lemma 1
        self.node_match = match[num_pois:]  # Lemma 6
        q = np.asarray(uq_pivot_dists, dtype=np.float64)
        self.poi_lb = _lb_maxdist(  # Lemma 5
            q, columns.poi_pivots, columns.poi_pivots, columns.poi_finite
        ).tolist()
        self.node_lb = _lb_maxdist(  # Lemma 7
            q, columns.node_lb, columns.node_ub, columns.node_finite
        ).tolist()

    def level(
        self, s_ubs: Sequence[float], floors: Sequence[Sequence[float]]
    ) -> None:
        """Eqs. 16 and 18 for every POI under one level's ``S_cand``.

        ``s_ubs`` are the per-pivot ``max_{u in S} dist_RN(u, rp_k)``
        bounds and ``floors`` one interest floor per ``S_cand`` entry.
        """
        cols = self.columns
        self._ub = (
            np.asarray(s_ubs, dtype=np.float64) + cols.poi_pivots
            + 2.0 * self.radius
        ).min(axis=1, initial=math.inf)
        feasible = np.zeros(cols.num_sub, dtype=bool)
        if len(floors):
            floor = np.array(floors, dtype=np.float64)
            for ids, topics in cols.sub_groups:
                if not topics.shape[1]:
                    feasible[ids] = 0.0 >= self.theta
                    continue
                # Columns summed in ascending topic order: term for term
                # match_score's running sum for every (entry, set) pair.
                scores = floor[:, topics[:, 0]]
                for j in range(1, topics.shape[1]):
                    scores = scores + floor[:, topics[:, j]]
                feasible[ids] = (scores >= self.theta).all(axis=0)
        self._witness = feasible[cols.sub_id]
        self.poi_ub = self._ub.tolist()
        self.poi_witness = self._witness.tolist()

    def witness(self, slots: Sequence[int]) -> Optional[int]:
        """Line 30: position in ``slots`` of the first feasible POI with
        the smallest Eq.-16 bound; ``None`` if none has a finite one."""
        if not len(slots):
            return None
        idx = np.asarray(slots, dtype=np.intp)
        keys = np.where(self._witness[idx], self._ub[idx], math.inf)
        best = int(np.argmin(keys))
        return best if keys[best] < math.inf else None
