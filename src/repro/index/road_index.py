"""The road-network index I_R (Section 4.1).

I_R is an R\\*-tree over POI locations whose entries are augmented with
the pre-computed material the pruning lemmas need:

**Leaf POIs** (:class:`AugmentedPOI`) carry

* ``sup_K`` — the keyword union of POIs within road distance
  ``2 * r_max`` (the candidate superset ``R'`` of Section 3.1), and
* ``sub_K`` — the keyword union within ``r_min`` (for the matching-score
  lower bound of Eq. 18), both also hashed into bit vectors;
* the ``2 * r_max`` region itself with each member's exact road
  distance, from which :meth:`RoadIndex.region` answers ``⊙(o_i, 2r)``
  without a distance search;
* road-pivot distances ``dist_RN(o_i, rp_k)``.

**The tree** lives in one place, the index's :class:`RoadColumns`:
its shape as per-page lists (child pages, leaf slots, POI counts) and
every node bound as a row by page id, derived from the POI rows:

* ``sup_K`` as the union (bit-OR) of the members' hashed vectors
  (Eq. in §4.1);
* lower/upper pivot-distance bounds (Eqs. 7-8).

No node objects exist. The R\\*-tree is STR-packed at construction and
kept as the scaffold for POI insert/delete; the columns are laid out
from its skeleton, and re-laid after POI churn before the next query.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..changes import ChangeLog, OwnedLRU
from ..exceptions import IndexStateError, InvalidParameterError
from ..geometry import MBR
from ..network import SpatialSocialNetwork
from ..roadnet.poi import POI, union_keywords
from .bitvector import KeywordBitVector
from .pagecounter import PageAccessCounter
from .paging import TreeColumns
from .pivots import RoadPivotIndex
from .rstar import RStarNode, RStarTree

#: Default width of the hashed keyword bit vectors.
DEFAULT_NUM_BITS = 32
#: Written to every snapshot document, whose arena format carries the
#: field; nothing reads it back.
SNAPSHOT_SAMPLES_PER_NODE = 2


class AugmentedPOI:
    """A POI plus its pre-computed keyword regions and pivot distances."""

    __slots__ = (
        "poi", "sup_keywords", "sub_keywords",
        "sup_vector", "sub_vector", "pivot_dists", "region_2rmax",
        "region_dists",
    )

    def __init__(
        self,
        poi: POI,
        sup_keywords: frozenset,
        sub_keywords: frozenset,
        pivot_dists: Sequence[float],
        num_bits: int,
        region_2rmax: Sequence[int],
        region_dists: Sequence[float],
    ) -> None:
        self.poi = poi
        self.sup_keywords = sup_keywords
        self.sub_keywords = sub_keywords
        self.sup_vector = KeywordBitVector.from_keywords(sup_keywords, num_bits)
        self.sub_vector = KeywordBitVector.from_keywords(sub_keywords, num_bits)
        self.pivot_dists = list(pivot_dists)
        #: POI ids within 2*r_max, ascending — the widest superset region,
        #: from which query-time regions for any r <= r_max are filtered.
        self.region_2rmax = list(region_2rmax)
        #: ``dist_RN`` from this POI to each ``region_2rmax`` member
        #: (parallel column).
        self.region_dists = [float(d) for d in region_dists]

    @property
    def poi_id(self) -> int:
        return self.poi.poi_id


class RoadIndex:
    """The complete I_R index over a spatial-social network's POIs."""

    def __init__(
        self,
        network: SpatialSocialNetwork,
        pivots: RoadPivotIndex,
        r_min: float = 0.5,
        r_max: float = 4.0,
        max_entries: int = 16,
        num_bits: int = DEFAULT_NUM_BITS,
    ) -> None:
        if r_min <= 0 or r_max < r_min:
            raise InvalidParameterError(
                f"need 0 < r_min <= r_max, got r_min={r_min}, r_max={r_max}"
            )
        self.network = network
        self.pivots = pivots
        self.r_min = r_min
        self.r_max = r_max
        self.num_bits = num_bits
        self.counter = PageAccessCounter()

        self._augmented: Dict[int, AugmentedPOI] = {}
        self._init_region_cache()
        #: live R*-tree retained for incremental insert/delete; ``None``
        #: when the index was attached from a snapshot (immutable).
        self._tree: Optional[RStarTree] = None
        self._dirty = False
        #: the tree's shape and every node bound, read by the traversal
        #: and the road gates; stale after a mutation until
        #: :meth:`refreeze_if_dirty`, which every query runs first
        self.columns = RoadColumns(self, self._build(max_entries))

    def _init_region_cache(self) -> None:
        #: (seed, radius) -> region ids, see :meth:`region`
        self._region_cache = OwnedLRU()
        #: seeds answered by a bounded search since the last edit
        self._far_seeds: Set[int] = set()
        #: seeds whose regions an edit may have changed, for caches
        #: derived from regions (the pair kernel's balls)
        self.region_changes = ChangeLog()

    # -- construction ----------------------------------------------------------

    def _build(self, max_entries: int) -> dict:
        network = self.network
        pois = network.pois()
        if not pois:
            raise InvalidParameterError("cannot index zero POIs")

        # Pre-compute per-POI regions and pivot distances. One truncated
        # Dijkstra (radius 2*r_max) per POI; sub regions reuse the same map.
        for poi in pois:
            region_dists = network.poi_distances_within(
                poi.poi_id, 2.0 * self.r_max
            )
            region = list(region_dists)
            inner = [
                pid for pid, d in region_dists.items() if d <= self.r_min
            ]
            sup_k = union_keywords(network.poi(pid) for pid in region)
            sub_k = union_keywords(network.poi(pid) for pid in inner)
            self._augmented[poi.poi_id] = AugmentedPOI(
                poi=poi,
                sup_keywords=sup_k,
                sub_keywords=sub_k,
                pivot_dists=self.pivots.distances(poi.position),
                num_bits=self.num_bits,
                region_2rmax=region,
                region_dists=region_dists.values(),
            )

        tree = RStarTree(max_entries=max_entries)
        tree.bulk_load([
            (MBR.from_point((poi.location.x, poi.location.y)), poi.poi_id)
            for poi in pois
        ])
        tree.check_invariants()
        self._tree = tree
        return _skeleton(tree.root)

    @property
    def height(self) -> int:
        return self.columns.height

    @property
    def num_pages(self) -> int:
        return self.columns.num_pages

    # -- snapshots (skip the expensive precompute on reload) ---------------------

    def snapshot(self) -> dict:
        """Serializable image of the index (regions, keywords, structure).

        Rebuilding from a snapshot skips the per-POI truncated Dijkstra
        sweep, which dominates construction cost at scale; only the
        pivot SSSP maps are recomputed on load.
        """
        columns = self.columns
        return {
            "pivots": list(self.pivots.pivots),
            "r_min": self.r_min,
            "r_max": self.r_max,
            "num_bits": self.num_bits,
            "samples_per_node": SNAPSHOT_SAMPLES_PER_NODE,
            "augmented": {
                str(pid): {
                    "sup": sorted(ap.sup_keywords),
                    "sub": sorted(ap.sub_keywords),
                    "pivot_dists": list(ap.pivot_dists),
                    "region": list(ap.region_2rmax),
                    "region_dists": list(ap.region_dists),
                }
                for pid, ap in self._augmented.items()
            },
            "tree": columns.skeleton(
                "pois", [ap.poi_id for ap in columns.aps]
            ),
        }

    @classmethod
    def from_snapshot(
        cls,
        network: SpatialSocialNetwork,
        pivots: RoadPivotIndex,
        snapshot: dict,
    ) -> "RoadIndex":
        """Reconstruct an index from :meth:`snapshot` output."""
        index = cls.__new__(cls)
        index.network = network
        index.pivots = pivots
        index.r_min = float(snapshot["r_min"])
        index.r_max = float(snapshot["r_max"])
        index.num_bits = int(snapshot["num_bits"])
        index.counter = PageAccessCounter()
        index._init_region_cache()
        index._augmented = {}
        for pid_str, data in snapshot["augmented"].items():
            pid = int(pid_str)
            index._augmented[pid] = AugmentedPOI(
                poi=network.poi(pid),
                sup_keywords=frozenset(data["sup"]),
                sub_keywords=frozenset(data["sub"]),
                pivot_dists=data["pivot_dists"],
                num_bits=index.num_bits,
                region_2rmax=data["region"],
                region_dists=data["region_dists"],
            )

        index._tree = None
        index._dirty = False
        index.columns = RoadColumns(index, snapshot["tree"])
        return index

    # -- incremental maintenance (POI churn) -------------------------------------
    #
    # The R*-tree insert/delete paths are exact, and the augmented POI
    # material is maintained *exactly* here (region membership, sup/sub
    # keyword unions, pivot distances), so the road index carries no
    # slack: one truncated Dijkstra per inserted/removed POI updates the
    # symmetric neighbourhood, and the columns are re-laid from the
    # R*-tree before the next query traverses (`refreeze_if_dirty`).
    # Widen-on-update slack accounting lives in the social index, per
    # the dynamic-layer design.

    def _require_tree(self) -> RStarTree:
        if self._tree is None:
            raise IndexStateError(
                "road index was attached from a snapshot and is immutable; "
                "rebuild from the live network to apply mutations"
            )
        return self._tree

    def insert_poi(self, poi_id: int) -> None:
        """Index a POI already added to the network (exact maintenance).

        One truncated Dijkstra rooted at the new POI yields the
        symmetric ``2*r_max`` neighbourhood: the new entry's own region
        and, per neighbour, the exact region/distance/sup/sub deltas
        (road distances are symmetric, so ``d(p, q) = d(q, p)``).
        """
        tree = self._require_tree()
        network = self.network
        poi = network.poi(poi_id)
        if poi_id in self._augmented:
            raise IndexStateError(f"POI {poi_id} already in road index")
        region_dists = network.poi_distances_within(poi_id, 2.0 * self.r_max)
        region = sorted(region_dists)
        inner = [pid for pid, d in region_dists.items() if d <= self.r_min]
        self._augmented[poi_id] = AugmentedPOI(
            poi=poi,
            sup_keywords=union_keywords(network.poi(pid) for pid in region),
            sub_keywords=union_keywords(network.poi(pid) for pid in inner),
            pivot_dists=self.pivots.distances(poi.position),
            num_bits=self.num_bits,
            region_2rmax=region,
            region_dists=[region_dists[pid] for pid in region],
        )
        for qid, d in region_dists.items():
            if qid == poi_id or qid not in self._augmented:
                continue
            nbr = self._augmented[qid]
            at = bisect_left(nbr.region_2rmax, poi_id)
            nbr.region_2rmax.insert(at, poi_id)
            nbr.region_dists.insert(at, d)
            # Unions only grow on insert: both deltas are exact.
            nbr.sup_keywords = nbr.sup_keywords | poi.keywords
            nbr.sup_vector = KeywordBitVector.from_keywords(
                nbr.sup_keywords, self.num_bits
            )
            if d <= self.r_min:
                nbr.sub_keywords = nbr.sub_keywords | poi.keywords
                nbr.sub_vector = KeywordBitVector.from_keywords(
                    nbr.sub_keywords, self.num_bits
                )
        tree.insert(
            MBR.from_point((poi.location.x, poi.location.y)), poi_id
        )
        self._mutated(region_dists)

    def delete_poi(self, poi_id: int, region_dists: Dict[int, float]) -> None:
        """Unindex a removed POI (exact maintenance).

        ``region_dists`` is the removed POI's ``2*r_max`` neighbourhood
        map, computed *before* :meth:`SpatialSocialNetwork.remove_poi`
        (the distances cannot be recovered afterwards). Neighbour ``sub``
        sets are recomputed exactly — a stale superset would raise the
        Eq. 18 matching-score lower bound above its true value and
        over-tighten delta, which is the one direction admissibility
        forbids.
        """
        tree = self._require_tree()
        network = self.network
        try:
            removed = self._augmented.pop(poi_id)
        except KeyError:
            raise IndexStateError(f"POI {poi_id} not in road index") from None
        if not self._augmented:
            self._augmented[poi_id] = removed
            raise InvalidParameterError("cannot index zero POIs")
        if not tree.delete(
            MBR.from_point(
                (removed.poi.location.x, removed.poi.location.y)
            ),
            poi_id,
        ):
            raise IndexStateError(
                f"POI {poi_id} missing from the R*-tree scaffold"
            )
        for qid, d in region_dists.items():
            if qid == poi_id or qid not in self._augmented:
                continue
            nbr = self._augmented[qid]
            at = bisect_left(nbr.region_2rmax, poi_id)
            if at < len(nbr.region_2rmax) and nbr.region_2rmax[at] == poi_id:
                del nbr.region_2rmax[at]
                del nbr.region_dists[at]
            nbr.sup_keywords = union_keywords(
                network.poi(pid) for pid in nbr.region_2rmax
            )
            nbr.sup_vector = KeywordBitVector.from_keywords(
                nbr.sup_keywords, self.num_bits
            )
            if d <= self.r_min:
                nbr.sub_keywords = union_keywords(
                    network.poi(pid)
                    for pid, dq in zip(nbr.region_2rmax, nbr.region_dists)
                    if dq <= self.r_min
                )
                nbr.sub_vector = KeywordBitVector.from_keywords(
                    nbr.sub_keywords, self.num_bits
                )
        self._mutated(chain(region_dists, (poi_id,)))

    def refresh_pivot_dists(self, poi_id: int) -> None:
        """Recompute one POI's road-pivot distances (e.g. after re-anchor)."""
        ap = self.augmented(poi_id)
        ap.pivot_dists = self.pivots.distances(ap.poi.position)
        self._dirty = True

    def _mutated(self, touched: Iterable[int]) -> None:
        """Mark the columns stale after an insert or delete, and drop the
        cached regions the edit may have changed.

        ``touched`` holds the edited POI and every seed whose
        ``2*r_max`` region the edit walked: no other seed's stored
        region changed. A region beyond ``2*r_max`` comes from a bounded
        search that any nearby edit can change, so the seeds answered
        that way since the last edit go too. Every dropped seed is
        logged to ``region_changes``.
        """
        seeds = set(touched) | self._far_seeds
        self._far_seeds = set()
        for seed in seeds:
            self._region_cache.drop(seed)
            self.region_changes.record(seed)
        self._dirty = True

    def refreeze_if_dirty(self) -> bool:
        """Re-lay the columns from the R*-tree after mutations.

        The live R*-tree absorbs insert/delete immediately, but queries
        read :attr:`columns`; this regenerates them (page numbering,
        keyword aggregates and pivot-bound intervals, all exact).
        Returns whether a refreeze happened.
        """
        if not self._dirty:
            return False
        tree = self._require_tree()
        self.columns = RoadColumns(self, _skeleton(tree.root))
        self._dirty = False
        return True

    # -- access -----------------------------------------------------------------

    def augmented(self, poi_id: int) -> AugmentedPOI:
        try:
            return self._augmented[poi_id]
        except KeyError:
            raise IndexStateError(f"POI {poi_id} not in road index") from None

    def visit(self, page: int) -> None:
        """Record a page access for the traversal touching ``page``."""
        self.counter.record(("road", page))

    def region(self, poi_id: int, radius: float) -> List[int]:
        """POI ids within network distance ``radius`` of ``poi_id``.

        Filtered from the stored ``2*r_max`` region and its distances
        when the radius permits (the common case: every query radius
        satisfies ``2r <= 2*r_max``), falling back to one bounded search
        otherwise. Either result is cached per ``(poi_id, radius)``
        under the LRU policy and ``network.distances.cache_size`` budget
        of the pair kernel's balls: ``radius`` is a client-supplied
        float, so an unbounded cache would grow with every distinct
        value a long-running service is asked for. A POI insert or
        delete drops only the entries it may have changed
        (:meth:`_mutated`).
        """
        key = (poi_id, radius)
        cache = self._region_cache
        cached = cache.hit(key)
        if cached is not None:
            return cached
        if radius <= 2.0 * self.r_max:
            ap = self.augmented(poi_id)
            result = [
                pid for pid, d in zip(ap.region_2rmax, ap.region_dists)
                if d <= radius
            ]
        else:
            result = sorted(self.network.poi_distances_within(poi_id, radius))
            self._far_seeds.add(poi_id)
        cache.put(key, result, self.network.distances.cache_size)
        return result

    def describe(self) -> dict:
        """Structural statistics (for dashboards, logs, and tests)."""
        columns = self.columns
        leaves = sum(1 for kids in columns.children if not kids)
        sup_sizes = [len(ap.sup_keywords) for ap in self._augmented.values()]
        return {
            "num_pois": columns.size[0],
            "height": self.height,
            "num_pages": self.num_pages,
            "leaf_nodes": leaves,
            "inner_nodes": self.num_pages - leaves,
            "avg_leaf_fill": columns.size[0] / leaves if leaves else 0.0,
            "num_pivots": self.pivots.num_pivots,
            "avg_sup_keywords": (
                sum(sup_sizes) / len(sup_sizes) if sup_sizes else 0.0
            ),
            "r_min": self.r_min,
            "r_max": self.r_max,
        }

    def __repr__(self) -> str:
        return (
            f"RoadIndex(pois={self.columns.size[0]}, height={self.height}, "
            f"pages={self.num_pages})"
        )


def _skeleton(node: RStarNode) -> dict:
    """The :meth:`RoadIndex.snapshot` ``tree`` form of an R*-tree node."""
    if node.is_leaf:
        return {"pois": [e.payload for e in node.entries]}
    return {"children": [_skeleton(c) for c in node.children]}


def _hashed_rows(vectors: Sequence[KeywordBitVector], d: int) -> np.ndarray:
    """``(len(vectors), d)`` mask of ``might_contain`` per topic."""
    rows: Dict[int, List[bool]] = {}
    out = []
    for vec in vectors:
        row = rows.get(vec.bits)
        if row is None:
            row = rows[vec.bits] = [vec.might_contain(f) for f in range(d)]
        out.append(row)
    return np.array(out, dtype=bool).reshape(len(out), d)


class RoadColumns(TreeColumns):
    """The road index's tree as columns: its shape (see
    :class:`TreeColumns`) and the one copy of the node bounds, derived
    from the POI rows.

    POIs get dense slots in page order (then leaf order), nodes are
    addressed by page id. A node's pivot intervals are the min and max
    of its POIs' pivot rows, and its hashed ``sup_K`` row the OR of
    their rows: ``might_contain`` tests one bit, so the OR of the
    members' masks is the mask of the OR'd vectors. No field is
    persisted.

    Attributes:
        aps: slot -> :class:`AugmentedPOI`; ``slot_of`` inverts it by id.
        poi_pivots: ``P x h`` pivot distances; ``poi_finite`` its mask.
        node_lb / node_ub: ``N x h`` pivot intervals (Eqs. 7-8);
            ``node_finite`` masks pivots with both ends finite.
        sup_mask: ``(P + N) x d`` topic membership of the hashed
            ``sup_K`` vectors (POI rows first, then nodes by page).
        exact_mask: ``P x d`` topic membership of the exact ``sup_K``.
        sub_id: per slot, the id of its distinct ``sub_K`` set.
        sub_groups: ``(set ids, sorted topic columns)`` per set size.
    """

    __slots__ = (
        "aps", "slot_of",
        "poi_pivots", "poi_finite", "node_lb", "node_ub", "node_finite",
        "sup_mask", "exact_mask", "sub_id", "num_sub", "sub_groups",
    )

    def __init__(self, index: RoadIndex, skeleton: dict) -> None:
        d = index.network.num_keywords
        h = index.pivots.num_pivots
        aps = [index._augmented[pid] for pid in self._lay_out(skeleton, "pois")]
        self.aps = aps
        self.slot_of = {ap.poi_id: slot for slot, ap in enumerate(aps)}
        self.poi_pivots = np.array(
            [ap.pivot_dists for ap in aps], dtype=np.float64
        ).reshape(len(aps), h)
        self.poi_finite = np.isfinite(self.poi_pivots)
        self.node_lb = self.reduce(np.minimum, self.poi_pivots)
        self.node_ub = self.reduce(np.maximum, self.poi_pivots)
        self.node_finite = np.isfinite(self.node_lb) & np.isfinite(self.node_ub)
        poi_sup = _hashed_rows([ap.sup_vector for ap in aps], d)
        self.sup_mask = np.concatenate(
            (poi_sup, self.reduce(np.logical_or, poi_sup))
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
