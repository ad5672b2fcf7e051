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

**Non-leaf nodes** (:class:`RoadIndexNode`) carry

* the MBR of their POIs;
* ``sup_K`` as the union (bit-OR) of children (Eq. in §4.1);
* ``sub_K`` from one sample object;
* lower/upper pivot-distance bounds (Eqs. 7-8);
* a few sample POIs for the ``lb_Match_Score`` of Eq. 18.

The R\\*-tree is STR-packed at construction and kept as the scaffold
for POI insert/delete; the traversal operates on the immutable
:class:`RoadIndexNode` mirror derived from it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
)

from ..changes import ChangeLog, OwnedLRU
from ..exceptions import IndexStateError, InvalidParameterError
from ..geometry import MBR
from ..network import SpatialSocialNetwork
from ..roadnet.poi import POI, union_keywords
from .bitvector import KeywordBitVector
from .pagecounter import PageAccessCounter
from .pivots import RoadPivotIndex
from .rstar import RStarNode, RStarTree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.road_gates import RoadColumns

#: Default width of the hashed keyword bit vectors.
DEFAULT_NUM_BITS = 32
#: Sample objects retained per non-leaf node for Eq. 18.
DEFAULT_SAMPLES_PER_NODE = 2


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


class RoadIndexNode:
    """An immutable I_R node (leaf or inner) with pruning metadata."""

    __slots__ = (
        "is_leaf", "mbr", "children", "pois",
        "sup_vector", "sub_vector", "sup_keywords",
        "lb_pivot_dists", "ub_pivot_dists", "samples",
        "page_id", "num_pois",
    )

    def __init__(
        self,
        is_leaf: bool,
        mbr: MBR,
        children: Sequence["RoadIndexNode"],
        pois: Sequence[AugmentedPOI],
        sup_vector: KeywordBitVector,
        sub_vector: KeywordBitVector,
        sup_keywords: frozenset,
        lb_pivot_dists: Sequence[float],
        ub_pivot_dists: Sequence[float],
        samples: Sequence[AugmentedPOI],
        num_pois: int,
    ) -> None:
        self.is_leaf = is_leaf
        self.mbr = mbr
        self.children = list(children)
        self.pois = list(pois)
        self.sup_vector = sup_vector
        self.sub_vector = sub_vector
        self.sup_keywords = sup_keywords
        self.lb_pivot_dists = list(lb_pivot_dists)
        self.ub_pivot_dists = list(ub_pivot_dists)
        self.samples = list(samples)
        self.page_id = -1
        self.num_pois = num_pois

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"RoadIndexNode({kind}, pois={self.num_pois})"


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
        samples_per_node: int = DEFAULT_SAMPLES_PER_NODE,
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
        self.samples_per_node = samples_per_node
        self.counter = PageAccessCounter()

        self._augmented: Dict[int, AugmentedPOI] = {}
        self._init_region_cache()
        #: live R*-tree retained for incremental insert/delete; ``None``
        #: when the index was attached from a snapshot (immutable).
        self._tree: Optional[RStarTree] = None
        self._dirty = False
        self._adopt_mirror(self._build(max_entries))

    def _init_region_cache(self) -> None:
        #: (seed, radius) -> region ids, see :meth:`region`
        self._region_cache = OwnedLRU()
        #: seeds answered by a bounded search since the last edit
        self._far_seeds: Set[int] = set()
        #: seeds whose regions an edit may have changed, for caches
        #: derived from regions (the pair kernel's balls)
        self.region_changes = ChangeLog()

    # -- construction ----------------------------------------------------------

    def _build(self, max_entries: int) -> RoadIndexNode:
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
        return self._freeze(tree.root)

    def _freeze(self, node: RStarNode) -> RoadIndexNode:
        """Convert the R\\* scaffold into the immutable augmented mirror."""
        h = self.pivots.num_pivots
        if node.is_leaf:
            members = [self._augmented[e.payload] for e in node.entries]
            sup_vec = KeywordBitVector(self.num_bits)
            sup_k: set = set()
            for ap in members:
                sup_vec.union_update(ap.sup_vector)
                sup_k |= ap.sup_keywords
            sample = members[: self.samples_per_node]
            sub_vec = sample[0].sub_vector if sample else KeywordBitVector(self.num_bits)
            lb = [min(ap.pivot_dists[k] for ap in members) for k in range(h)]
            ub = [max(ap.pivot_dists[k] for ap in members) for k in range(h)]
            assert node.mbr is not None
            return RoadIndexNode(
                is_leaf=True, mbr=node.mbr, children=(), pois=members,
                sup_vector=sup_vec, sub_vector=sub_vec,
                sup_keywords=frozenset(sup_k),
                lb_pivot_dists=lb, ub_pivot_dists=ub,
                samples=sample, num_pois=len(members),
            )
        children = [self._freeze(c) for c in node.children]
        sup_vec = KeywordBitVector(self.num_bits)
        sup_k = set()
        for child in children:
            sup_vec.union_update(child.sup_vector)
            sup_k |= child.sup_keywords
        lb = [min(c.lb_pivot_dists[k] for c in children) for k in range(h)]
        ub = [max(c.ub_pivot_dists[k] for c in children) for k in range(h)]
        samples: List[AugmentedPOI] = []
        for child in children:
            samples.extend(child.samples)
        samples = samples[: self.samples_per_node]
        sub_vec = samples[0].sub_vector if samples else KeywordBitVector(self.num_bits)
        assert node.mbr is not None
        return RoadIndexNode(
            is_leaf=False, mbr=node.mbr, children=children, pois=(),
            sup_vector=sup_vec, sub_vector=sub_vec,
            sup_keywords=frozenset(sup_k),
            lb_pivot_dists=lb, ub_pivot_dists=ub,
            samples=samples, num_pois=sum(c.num_pois for c in children),
        )

    def _adopt_mirror(self, root: RoadIndexNode) -> None:
        """Install a freshly derived mirror: height, page ids, columns.

        ``columns`` is the mirror's columnar image read by the road
        gates; like the mirror, it goes stale on a mutation until
        :meth:`refreeze_if_dirty`, which every query runs first.
        """
        self.root = root
        self.height = self._measure_height(root)
        self.num_pages = self._assign_page_ids()
        self.columns = _derive_columns(self)

    def _measure_height(self, node: RoadIndexNode) -> int:
        height = 1
        while not node.is_leaf:
            node = node.children[0]
            height += 1
        return height

    def _assign_page_ids(self) -> int:
        next_id = 0
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            node.page_id = next_id
            next_id += 1
            queue.extend(node.children)
        return next_id

    # -- snapshots (skip the expensive precompute on reload) ---------------------

    def snapshot(self) -> dict:
        """Serializable image of the index (regions, keywords, structure).

        Rebuilding from a snapshot skips the per-POI truncated Dijkstra
        sweep, which dominates construction cost at scale; only the
        pivot SSSP maps are recomputed on load.
        """
        def node_skeleton(node: RoadIndexNode):
            if node.is_leaf:
                return {"pois": [ap.poi_id for ap in node.pois]}
            return {"children": [node_skeleton(c) for c in node.children]}

        return {
            "pivots": list(self.pivots.pivots),
            "r_min": self.r_min,
            "r_max": self.r_max,
            "num_bits": self.num_bits,
            "samples_per_node": self.samples_per_node,
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
            "tree": node_skeleton(self.root),
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
        index.samples_per_node = int(snapshot["samples_per_node"])
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

        def rebuild(skeleton: dict) -> RoadIndexNode:
            h = pivots.num_pivots
            if "pois" in skeleton:
                members = [index._augmented[pid] for pid in skeleton["pois"]]
                sup_vec = KeywordBitVector(index.num_bits)
                sup_k: set = set()
                for ap in members:
                    sup_vec.union_update(ap.sup_vector)
                    sup_k |= ap.sup_keywords
                sample = members[: index.samples_per_node]
                sub_vec = (
                    sample[0].sub_vector if sample
                    else KeywordBitVector(index.num_bits)
                )
                mbr = MBR.union_of(
                    MBR.from_point((ap.poi.location.x, ap.poi.location.y))
                    for ap in members
                )
                return RoadIndexNode(
                    is_leaf=True, mbr=mbr, children=(), pois=members,
                    sup_vector=sup_vec, sub_vector=sub_vec,
                    sup_keywords=frozenset(sup_k),
                    lb_pivot_dists=[
                        min(ap.pivot_dists[k] for ap in members)
                        for k in range(h)
                    ],
                    ub_pivot_dists=[
                        max(ap.pivot_dists[k] for ap in members)
                        for k in range(h)
                    ],
                    samples=sample, num_pois=len(members),
                )
            children = [rebuild(c) for c in skeleton["children"]]
            sup_vec = KeywordBitVector(index.num_bits)
            sup_k = set()
            for child in children:
                sup_vec.union_update(child.sup_vector)
                sup_k |= child.sup_keywords
            samples: List[AugmentedPOI] = []
            for child in children:
                samples.extend(child.samples)
            samples = samples[: index.samples_per_node]
            sub_vec = (
                samples[0].sub_vector if samples
                else KeywordBitVector(index.num_bits)
            )
            return RoadIndexNode(
                is_leaf=False,
                mbr=MBR.union_of(c.mbr for c in children),
                children=children, pois=(),
                sup_vector=sup_vec, sub_vector=sub_vec,
                sup_keywords=frozenset(sup_k),
                lb_pivot_dists=[
                    min(c.lb_pivot_dists[k] for c in children)
                    for k in range(h)
                ],
                ub_pivot_dists=[
                    max(c.ub_pivot_dists[k] for c in children)
                    for k in range(h)
                ],
                samples=samples,
                num_pois=sum(c.num_pois for c in children),
            )

        index._tree = None
        index._dirty = False
        index._adopt_mirror(rebuild(snapshot["tree"]))
        return index

    # -- incremental maintenance (POI churn) -------------------------------------
    #
    # The R*-tree insert/delete paths are exact, and the augmented POI
    # material is maintained *exactly* here (region membership, sup/sub
    # keyword unions, pivot distances), so the road index carries no
    # slack: one truncated Dijkstra per inserted/removed POI updates the
    # symmetric neighbourhood, and the frozen traversal mirror is
    # re-derived before the next query traverses (`refreeze_if_dirty`).
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
        """Mark the mirror stale after an insert or delete, and drop the
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
        """Re-derive the frozen traversal mirror after mutations.

        The live R*-tree absorbs insert/delete immediately, but queries
        traverse the immutable :class:`RoadIndexNode` mirror; this
        regenerates it (node MBRs, keyword aggregates, pivot-bound
        intervals — all exact), its ``columns`` and page ids. Returns
        whether a refreeze happened.
        """
        if not self._dirty:
            return False
        tree = self._require_tree()
        self._adopt_mirror(self._freeze(tree.root))
        self._dirty = False
        return True

    # -- access -----------------------------------------------------------------

    def augmented(self, poi_id: int) -> AugmentedPOI:
        try:
            return self._augmented[poi_id]
        except KeyError:
            raise IndexStateError(f"POI {poi_id} not in road index") from None

    def visit(self, node: RoadIndexNode) -> None:
        """Record a page access for the traversal touching ``node``."""
        self.counter.record(("road", node.page_id))

    def iter_nodes(self) -> Iterator[RoadIndexNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

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
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)
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
        leaves = inner = 0
        leaf_fill = []
        sup_sizes = []
        for node in self.iter_nodes():
            if node.is_leaf:
                leaves += 1
                leaf_fill.append(len(node.pois))
            else:
                inner += 1
        for ap in self._augmented.values():
            sup_sizes.append(len(ap.sup_keywords))
        return {
            "num_pois": self.root.num_pois,
            "height": self.height,
            "num_pages": self.num_pages,
            "leaf_nodes": leaves,
            "inner_nodes": inner,
            "avg_leaf_fill": sum(leaf_fill) / leaves if leaves else 0.0,
            "num_pivots": self.pivots.num_pivots,
            "avg_sup_keywords": (
                sum(sup_sizes) / len(sup_sizes) if sup_sizes else 0.0
            ),
            "r_min": self.r_min,
            "r_max": self.r_max,
        }

    def __repr__(self) -> str:
        return (
            f"RoadIndex(pois={self.root.num_pois}, height={self.height}, "
            f"pages={self.num_pages})"
        )


def _derive_columns(index: RoadIndex) -> "RoadColumns":
    # Imported at use: the gate module sits in repro.core, which imports
    # this module.
    from ..core.road_gates import RoadColumns

    return RoadColumns(index)
