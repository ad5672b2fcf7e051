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
the last two on the query and the I_S level. :class:`RoadColumns` is a
columnar image of a :class:`~repro.index.road_index.RoadIndex` mirror,
and :class:`RoadGates` evaluates each bound for every entry of the
index at once, per query or per level. The traversal loop then only
looks values up, by POI slot or node page id, and still applies
``delta`` entry by entry in its usual order.

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
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..index.bitvector import KeywordBitVector
    from ..index.road_index import AugmentedPOI, RoadIndex, RoadIndexNode


def _hashed_rows(vectors: Sequence["KeywordBitVector"], d: int) -> np.ndarray:
    """``(len(vectors), d)`` mask of ``might_contain`` per topic."""
    rows: Dict[int, List[bool]] = {}
    out = []
    for vec in vectors:
        row = rows.get(vec.bits)
        if row is None:
            row = rows[vec.bits] = [vec.might_contain(f) for f in range(d)]
        out.append(row)
    return np.array(out, dtype=bool).reshape(len(out), d)


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


class RoadColumns:
    """Columnar image of a road index's frozen mirror.

    POIs get dense slots in page order (then leaf order), nodes are
    addressed by page id. Derived whenever the mirror is derived; no
    field is persisted.

    Attributes:
        aps: slot -> :class:`AugmentedPOI`; ``slot_of`` inverts it by id.
        nodes: page id -> :class:`RoadIndexNode`.
        leaf_slots: page id -> the leaf's POI slots (empty for inner).
        poi_pivots: ``P x h`` pivot distances; ``poi_finite`` its mask.
        node_lb / node_ub: ``N x h`` pivot intervals (Eqs. 7-8);
            ``node_finite`` masks pivots with both ends finite.
        sup_mask: ``(P + N) x d`` topic membership of the hashed
            ``sup_vector`` (POI rows first, then nodes by page).
        exact_mask: ``P x d`` topic membership of the exact ``sup_K``.
        sub_id: per slot, the id of its distinct ``sub_K`` set.
        sub_groups: ``(set ids, sorted topic columns)`` per set size.
    """

    __slots__ = (
        "aps", "slot_of", "nodes", "leaf_slots",
        "poi_pivots", "poi_finite", "node_lb", "node_ub", "node_finite",
        "sup_mask", "exact_mask", "sub_id", "num_sub", "sub_groups",
    )

    def __init__(self, index: "RoadIndex") -> None:
        d = index.network.num_keywords
        h = index.pivots.num_pivots
        nodes: List["RoadIndexNode"] = [index.root] * index.num_pages
        stack = [index.root]
        while stack:
            node = stack.pop()
            nodes[node.page_id] = node
            stack.extend(node.children)
        aps: List["AugmentedPOI"] = []
        leaf_slots: List[List[int]] = []
        for node in nodes:
            first = len(aps)
            aps.extend(node.pois)
            leaf_slots.append(list(range(first, len(aps))))
        self.aps = aps
        self.slot_of = {ap.poi_id: slot for slot, ap in enumerate(aps)}
        self.nodes = nodes
        self.leaf_slots = leaf_slots

        def matrix(rows) -> np.ndarray:
            return np.array(rows, dtype=np.float64).reshape(len(rows), h)

        self.poi_pivots = matrix([ap.pivot_dists for ap in aps])
        self.poi_finite = np.isfinite(self.poi_pivots)
        self.node_lb = matrix([n.lb_pivot_dists for n in nodes])
        self.node_ub = matrix([n.ub_pivot_dists for n in nodes])
        self.node_finite = np.isfinite(self.node_lb) & np.isfinite(self.node_ub)
        self.sup_mask = _hashed_rows(
            [ap.sup_vector for ap in aps] + [n.sup_vector for n in nodes], d
        )
        self.exact_mask = np.array(
            [[f in ap.sup_keywords for f in range(d)] for ap in aps],
            dtype=bool,
        ).reshape(len(aps), d)

        # Eq. 18 reads a POI's sub_K only through its topics in [0, d),
        # in ascending order: POIs sharing that tuple share the gate.
        set_ids: Dict[Tuple[int, ...], int] = {}
        sub_id = []
        for ap in aps:
            topics = tuple(sorted(f for f in ap.sub_keywords if 0 <= f < d))
            sub_id.append(set_ids.setdefault(topics, len(set_ids)))
        self.sub_id = np.array(sub_id, dtype=np.intp)
        self.num_sub = len(set_ids)
        by_size: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        for topics, sid in set_ids.items():
            by_size.setdefault(len(topics), []).append((sid, topics))
        self.sub_groups = [
            (
                np.array([sid for sid, _ in group], dtype=np.intp),
                np.array([t for _, t in group], dtype=np.intp).reshape(
                    len(group), size
                ),
            )
            for size, group in sorted(by_size.items())
        ]

    def exact_match(
        self, interests: np.ndarray, slots: Sequence[int]
    ) -> List[float]:
        """Exact Lemma-1 ``Match_Score(u, o.sup_K)`` for each slot."""
        idx = np.asarray(slots, dtype=np.intp)
        return _match_scores(self.exact_mask[idx], interests).tolist()


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
