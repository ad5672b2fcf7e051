"""A from-scratch R\\*-tree (Beckmann et al., SIGMOD 1990; ref [6]).

The road-network index I_R of Section 4.1 stores POIs in an R\\*-tree.
This module implements the classic structure in full:

* **ChooseSubtree** — minimum overlap enlargement at the leaf level,
  minimum area enlargement above (ties by area);
* **OverflowTreatment** — forced reinsertion of the 30% of entries
  farthest from the node's center, once per level per insertion;
* **Split** — the R\\* topological split: choose the axis with the
  smallest margin sum over candidate distributions, then the
  distribution with the smallest overlap (ties by area);
* **Bulk load** — Sort-Tile-Recursive packing of the initial entry set;
  the three dynamic operations above then maintain it under edits.

Entries are ``(mbr, payload)`` pairs; payloads are opaque to the tree.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import IndexStateError, InvalidParameterError
from ..geometry import MBR


class RStarEntry:
    """A leaf entry: a bounding box plus an opaque payload."""

    __slots__ = ("mbr", "payload")

    def __init__(self, mbr: MBR, payload: Any) -> None:
        self.mbr = mbr
        self.payload = payload

    def __repr__(self) -> str:
        return f"RStarEntry({self.mbr!r}, {self.payload!r})"


class RStarNode:
    """A tree node holding either entries (leaf) or child nodes."""

    __slots__ = ("is_leaf", "entries", "children", "mbr", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.entries: List[RStarEntry] = []
        self.children: List["RStarNode"] = []
        self.mbr: Optional[MBR] = None
        self.parent: Optional["RStarNode"] = None

    def members(self) -> Sequence[Any]:
        return self.entries if self.is_leaf else self.children

    def member_mbrs(self) -> List[MBR]:
        if self.is_leaf:
            return [e.mbr for e in self.entries]
        return [c.mbr for c in self.children if c.mbr is not None]

    def recompute_mbr(self) -> None:
        boxes = self.member_mbrs()
        self.mbr = MBR.union_of(boxes) if boxes else None

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"RStarNode({kind}, n={len(self.members())})"


#: Fraction of entries force-reinserted on overflow (the R* paper's p=30%).
REINSERT_FRACTION = 0.3


def _even_sizes(total: int, parts: int) -> List[int]:
    """``parts`` sizes summing to ``total`` that differ by at most one."""
    q, r = divmod(total, parts)
    return [q + 1] * r + [q] * (parts - r)


def _str_tile(
    members: List[Any], count: int, axis: int, dims: int
) -> List[List[Any]]:
    """Cut ``members`` into ``count`` near-equal STR groups from ``axis`` on.

    Sorts by box centre along ``axis`` and cuts the run into
    ``ceil(count ** (1 / remaining_axes))`` slabs, each holding a
    near-equal share of the groups; every slab is tiled along the next
    axis. On the last axis each slab is one group.
    """
    if axis == dims:
        return [members]
    members = sorted(members, key=lambda m: m.mbr.center[axis])
    slabs = 1
    while slabs ** (dims - axis) < count:
        slabs += 1
    sizes = _even_sizes(len(members), count)
    groups: List[List[Any]] = []
    start = first = 0
    for share in _even_sizes(count, slabs):
        length = sum(sizes[first:first + share])
        groups.extend(
            _str_tile(members[start:start + length], share, axis + 1, dims)
        )
        start += length
        first += share
    return groups


class RStarTree:
    """An in-memory R\\*-tree over ``(MBR, payload)`` entries."""

    def __init__(self, max_entries: int = 16, min_fill: float = 0.4) -> None:
        if max_entries < 4:
            raise InvalidParameterError("max_entries must be >= 4")
        if not 0.0 < min_fill <= 0.5:
            raise InvalidParameterError("min_fill must be in (0, 0.5]")
        self.max_entries = max_entries
        self.min_entries = max(2, int(max_entries * min_fill))
        self.root = RStarNode(is_leaf=True)
        self.size = 0
        self._height = 1
        self._reinserted_levels: set = set()
        #: nodes touched by search/nearest since construction (or the
        #: last manual reset); the observability layer reads this to
        #: report traversal effort without a buffer-manager simulation
        self.node_visits = 0

    # -- public API ----------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    def insert(self, mbr: MBR, payload: Any) -> None:
        """Insert one entry, applying forced reinsert before splitting."""
        self._reinserted_levels = set()
        self._insert_entry(RStarEntry(mbr, payload), level=0)
        self.size += 1

    def bulk_load(self, items: Sequence[Tuple[MBR, Any]]) -> None:
        """Pack ``items`` into this empty tree by Sort-Tile-Recursive.

        STR (Leutenegger et al., ICDE 1997) builds the tree bottom-up:
        each level's members are sorted by box centre along the first
        axis, cut into slabs, each slab sorted along the next axis and
        cut into nodes, and the nodes become the members of the level
        above. Sorts are stable, so equal centres keep input order and
        the layout is a pure function of ``items``. Every level is cut
        into ``ceil(n / max_entries)`` groups of near-equal size, so no
        non-root node falls below ``min_entries``. Later edits go
        through the R\\* :meth:`insert` / :meth:`delete` paths.

        Raises:
            IndexStateError: the tree already holds entries.
        """
        if self.size:
            raise IndexStateError("bulk_load needs an empty tree")
        if not items:
            return
        level: List[RStarNode] = []
        for group in self._str_groups([RStarEntry(m, p) for m, p in items]):
            leaf = RStarNode(is_leaf=True)
            leaf.entries = group
            leaf.recompute_mbr()
            level.append(leaf)
        height = 1
        while len(level) > 1:
            parents: List[RStarNode] = []
            for group in self._str_groups(level):
                node = RStarNode(is_leaf=False)
                node.children = group
                for child in group:
                    child.parent = node
                node.recompute_mbr()
                parents.append(node)
            level = parents
            height += 1
        self.root = level[0]
        self.size = len(items)
        self._height = height

    def _str_groups(self, members: List[Any]) -> List[List[Any]]:
        """Tile ``members`` (entries or nodes) into STR node groups."""
        count = -(-len(members) // self.max_entries)
        return _str_tile(members, count, 0, members[0].mbr.dimensions)

    def search(self, query: MBR) -> List[Any]:
        """Payloads of all entries whose MBR intersects ``query``."""
        results: List[Any] = []
        if self.root.mbr is None:
            return results
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.node_visits += 1
            if node.is_leaf:
                results.extend(
                    e.payload for e in node.entries if e.mbr.intersects(query)
                )
            else:
                stack.extend(
                    c for c in node.children
                    if c.mbr is not None and c.mbr.intersects(query)
                )
        return results

    def all_payloads(self) -> List[Any]:
        return self.search(self.root.mbr) if self.root.mbr else []

    def nearest(self, coords: Sequence[float], k: int = 1) -> List[Any]:
        """The ``k`` entries nearest to ``coords`` (best-first search).

        Returns payloads ordered by ascending Euclidean ``mindist`` of
        their MBRs to the query point (ties broken arbitrarily); fewer
        than ``k`` when the tree is smaller.
        """
        import heapq as _heapq

        if k < 1:
            raise InvalidParameterError("k must be >= 1")
        if self.root.mbr is None:
            return []
        results: List[Any] = []
        tick = 0
        heap: List[Tuple[float, int, object]] = [(0.0, tick, self.root)]
        while heap and len(results) < k:
            dist, _t, item = _heapq.heappop(heap)
            if isinstance(item, RStarEntry):
                results.append(item.payload)
                continue
            node = item
            self.node_visits += 1
            members = node.entries if node.is_leaf else node.children
            for member in members:
                mbr = member.mbr
                if mbr is None:
                    continue
                tick += 1
                _heapq.heappush(
                    heap, (mbr.mindist_point(coords), tick, member)
                )
        return results

    def delete(self, mbr: MBR, payload: Any) -> bool:
        """Remove one entry matching ``(mbr, payload)``.

        Returns True when an entry was removed. Underfull nodes are
        condensed: their surviving members are re-inserted, and a root
        with a single child is collapsed (the classic R-tree
        CondenseTree).
        """
        leaf = self._find_leaf(self.root, mbr, payload)
        if leaf is None:
            return False
        for i, entry in enumerate(leaf.entries):
            if entry.mbr == mbr and entry.payload == payload:
                del leaf.entries[i]
                break
        self.size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(
        self, node: RStarNode, mbr: MBR, payload: Any
    ) -> Optional[RStarNode]:
        if node.is_leaf:
            for entry in node.entries:
                if entry.mbr == mbr and entry.payload == payload:
                    return node
            return None
        for child in node.children:
            if child.mbr is not None and child.mbr.contains(mbr):
                found = self._find_leaf(child, mbr, payload)
                if found is not None:
                    return found
        return None

    def _condense(self, node: RStarNode) -> None:
        orphan_entries: List[RStarEntry] = []
        orphan_nodes: List[Tuple[RStarNode, int]] = []
        current: Optional[RStarNode] = node
        while current is not None and current is not self.root:
            parent = current.parent
            assert parent is not None
            if len(current.members()) < self.min_entries:
                parent.children.remove(current)
                if current.is_leaf:
                    orphan_entries.extend(current.entries)
                else:
                    # Orphaned children re-attach *under* a node at the
                    # detached node's own level (the level argument of
                    # _insert_node names the receiving parent's level).
                    attach_level = self.node_level(current)
                    for child in current.children:
                        child.parent = None
                        orphan_nodes.append((child, attach_level))
            else:
                current.recompute_mbr()
            current = parent
        self._propagate_mbr(self.root)

        # Collapse a root with a single inner child.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
            self.root.parent = None
            self._height -= 1
        if not self.root.is_leaf and not self.root.children:
            self.root = RStarNode(is_leaf=True)
            self._height = 1

        self._reinserted_levels = set()
        for child, level in orphan_nodes:
            if level > self._height - 1:
                # The tree shrank below the orphan's level: splice its
                # entries back in at leaf level instead.
                stack = [child]
                while stack:
                    sub = stack.pop()
                    if sub.is_leaf:
                        orphan_entries.extend(sub.entries)
                    else:
                        stack.extend(sub.children)
            else:
                self._insert_node(child, level)
        for entry in orphan_entries:
            self._reinserted_levels = set()
            self._insert_entry(entry, 0)

    def iter_nodes(self) -> Iterator[RStarNode]:
        """All nodes, parents before children."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def node_level(self, node: RStarNode) -> int:
        """Leaf level is 0; the root is ``height - 1``."""
        level = 0
        probe = node
        while not probe.is_leaf:
            probe = probe.children[0]
            level += 1
        return level

    # -- invariants (exercised by tests) --------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`IndexStateError` if any structural invariant fails."""
        def recurse(node: RStarNode, depth: int) -> int:
            members = node.members()
            if node is not self.root and len(members) < self.min_entries:
                raise IndexStateError(f"underfull node at depth {depth}")
            if len(members) > self.max_entries:
                raise IndexStateError(f"overfull node at depth {depth}")
            if node.is_leaf:
                for e in node.entries:
                    if node.mbr is None or not node.mbr.contains(e.mbr):
                        raise IndexStateError("leaf MBR does not cover entry")
                return 1
            depths = set()
            for child in node.children:
                if child.mbr is None or node.mbr is None or not node.mbr.contains(child.mbr):
                    raise IndexStateError("inner MBR does not cover child")
                if child.parent is not node:
                    raise IndexStateError("broken parent pointer")
                depths.add(recurse(child, depth + 1))
            if len(depths) != 1:
                raise IndexStateError("leaves at different depths")
            return depths.pop() + 1

        if self.size == 0:
            return
        measured = recurse(self.root, 0)
        if measured != self._height:
            raise IndexStateError(
                f"height bookkeeping off: stored {self._height}, measured {measured}"
            )

    # -- insertion machinery ---------------------------------------------------

    def _choose_subtree(self, mbr: MBR, level: int) -> RStarNode:
        """Descend from the root to the node at ``level`` that should
        receive an entry bounded by ``mbr``."""
        node = self.root
        depth = 0
        target_depth = self._height - 1 - level
        while depth < target_depth:
            children = node.children
            if node.children and node.children[0].is_leaf:
                # Leaf level below: minimize overlap enlargement.
                best = None
                best_key = None
                for child in children:
                    assert child.mbr is not None
                    enlarged = child.mbr.union(mbr)
                    overlap_before = sum(
                        child.mbr.intersection_area(o.mbr)
                        for o in children
                        if o is not child and o.mbr is not None
                    )
                    overlap_after = sum(
                        enlarged.intersection_area(o.mbr)
                        for o in children
                        if o is not child and o.mbr is not None
                    )
                    key = (
                        overlap_after - overlap_before,
                        child.mbr.enlargement(mbr),
                        child.mbr.area(),
                    )
                    if best_key is None or key < best_key:
                        best, best_key = child, key
                node = best  # type: ignore[assignment]
            else:
                best = None
                best_key = None
                for child in children:
                    assert child.mbr is not None
                    key = (child.mbr.enlargement(mbr), child.mbr.area())
                    if best_key is None or key < best_key:
                        best, best_key = child, key
                node = best  # type: ignore[assignment]
            depth += 1
        return node

    def _insert_entry(self, entry: RStarEntry, level: int) -> None:
        node = self._choose_subtree(entry.mbr, level)
        if level == 0:
            node.entries.append(entry)
        else:
            raise IndexStateError("entries can only be inserted at leaf level")
        self._adjust_after_add(node, level)

    def _insert_node(self, orphan: RStarNode, level: int) -> None:
        """Re-attach a subtree root at ``level`` (used by splits/reinserts)."""
        assert orphan.mbr is not None
        node = self._choose_subtree(orphan.mbr, level)
        node.children.append(orphan)
        orphan.parent = node
        self._adjust_after_add(node, level)

    def _adjust_after_add(self, node: RStarNode, level: int) -> None:
        node.recompute_mbr()
        if len(node.members()) > self.max_entries:
            self._overflow_treatment(node, level)
        self._propagate_mbr(node.parent)

    def _propagate_mbr(self, node: Optional[RStarNode]) -> None:
        while node is not None:
            node.recompute_mbr()
            node = node.parent

    def _overflow_treatment(self, node: RStarNode, level: int) -> None:
        if node is not self.root and level not in self._reinserted_levels:
            self._reinserted_levels.add(level)
            self._reinsert(node, level)
        else:
            self._split(node, level)

    def _reinsert(self, node: RStarNode, level: int) -> None:
        """Forced reinsert: remove the farthest 30% and insert them again."""
        assert node.mbr is not None
        center = node.mbr.center

        def center_distance(box: MBR) -> float:
            return sum((c - b) ** 2 for c, b in zip(center, box.center))

        count = max(1, int(round(len(node.members()) * REINSERT_FRACTION)))
        if node.is_leaf:
            node.entries.sort(key=lambda e: center_distance(e.mbr))
            evicted_entries = node.entries[-count:]
            del node.entries[-count:]
            node.recompute_mbr()
            self._propagate_mbr(node.parent)
            for e in evicted_entries:
                self._insert_entry(e, 0)
        else:
            node.children.sort(key=lambda c: center_distance(c.mbr))  # type: ignore[arg-type]
            evicted_nodes = node.children[-count:]
            del node.children[-count:]
            node.recompute_mbr()
            self._propagate_mbr(node.parent)
            for child in evicted_nodes:
                child.parent = None
                self._insert_node(child, level)

    # -- split ------------------------------------------------------------------

    def _split(self, node: RStarNode, level: int) -> None:
        members = list(node.members())
        boxes = [m.mbr for m in members]
        first_idx, second_idx = self._choose_split(boxes)

        sibling = RStarNode(is_leaf=node.is_leaf)
        if node.is_leaf:
            node.entries = [members[i] for i in first_idx]
            sibling.entries = [members[i] for i in second_idx]
        else:
            node.children = [members[i] for i in first_idx]
            sibling.children = [members[i] for i in second_idx]
            for child in sibling.children:
                child.parent = sibling
        node.recompute_mbr()
        sibling.recompute_mbr()

        if node is self.root:
            new_root = RStarNode(is_leaf=False)
            new_root.children = [node, sibling]
            node.parent = new_root
            sibling.parent = new_root
            new_root.recompute_mbr()
            self.root = new_root
            self._height += 1
        else:
            parent = node.parent
            assert parent is not None
            parent.children.append(sibling)
            sibling.parent = parent
            parent.recompute_mbr()
            if len(parent.children) > self.max_entries:
                self._overflow_treatment(parent, level + 1)

    def _choose_split(
        self, boxes: Sequence[MBR]
    ) -> Tuple[List[int], List[int]]:
        """R\\* split: margin-minimal axis, then overlap-minimal distribution."""
        dims = boxes[0].dimensions
        m = self.min_entries
        n = len(boxes)
        best_axis = -1
        best_axis_margin = None
        axis_orders: List[List[int]] = []

        for axis in range(dims):
            by_low = sorted(range(n), key=lambda i: (boxes[i].low[axis], boxes[i].high[axis]))
            by_high = sorted(range(n), key=lambda i: (boxes[i].high[axis], boxes[i].low[axis]))
            margin_sum = 0.0
            for order in (by_low, by_high):
                for k in range(m, n - m + 1):
                    left = MBR.union_of(boxes[i] for i in order[:k])
                    right = MBR.union_of(boxes[i] for i in order[k:])
                    margin_sum += left.margin() + right.margin()
            if best_axis_margin is None or margin_sum < best_axis_margin:
                best_axis_margin = margin_sum
                best_axis = axis
                axis_orders = [by_low, by_high]

        best_key = None
        best_partition: Tuple[List[int], List[int]] = ([], [])
        for order in axis_orders:
            for k in range(m, n - m + 1):
                left_idx = order[:k]
                right_idx = order[k:]
                left = MBR.union_of(boxes[i] for i in left_idx)
                right = MBR.union_of(boxes[i] for i in right_idx)
                key = (left.intersection_area(right), left.area() + right.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best_partition = (list(left_idx), list(right_idx))
        return best_partition
