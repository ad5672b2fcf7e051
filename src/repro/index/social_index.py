"""The social-network index I_S (Section 4.1).

I_S is a tree over the users of the social network:

* **leaves** are subgraphs produced by balanced graph partitioning
  (Section 4.1 cites METIS [28]; we use the BFS bisection of
  :mod:`repro.socialnet.partition`), holding the users themselves;
* **non-leaf entries** aggregate their subtrees with

  - lower/upper bounds of the users' interest probabilities per topic
    (Eqs. 9-10), kept here as a d-dimensional interest-space MBR;
  - lower/upper bounds of hop distances to the ``l`` social pivots
    (Eqs. 11-12);
  - lower/upper bounds of road distances of the users' homes to the
    ``h`` road pivots (Eqs. 13-14).

Nodes are page-numbered (breadth first) for the I/O simulation. The
partition tree is fixed at construction: the dynamic ops neither add
nor remove users, so maintenance only widens the aggregates in place
(:meth:`SocialIndex.widen_user`) and re-tightens them on
:meth:`SocialIndex.compact`. The index also keeps a columnar image of
its users and nodes current (:attr:`SocialIndex.columns`, a
:class:`~repro.core.social_gates.SocialColumns`), from which the query
processor evaluates Lemmas 3, 4, 8 and 9 for every entry at once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from ..exceptions import IndexStateError, InvalidParameterError
from ..geometry import MBR
from ..network import SpatialSocialNetwork
from ..socialnet.graph import User
from ..socialnet.partition import partition_graph
from .pagecounter import PageAccessCounter
from .pivots import RoadPivotIndex, SocialPivotIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.social_gates import SocialColumns

#: Default leaf capacity (users per leaf partition).
DEFAULT_LEAF_SIZE = 16
#: Default fanout of non-leaf nodes.
DEFAULT_FANOUT = 8


class AugmentedUser:
    """A user plus pre-computed pivot distances."""

    __slots__ = ("user", "social_pivot_dists", "road_pivot_dists")

    def __init__(
        self,
        user: User,
        social_pivot_dists: Sequence[float],
        road_pivot_dists: Sequence[float],
    ) -> None:
        self.user = user
        self.social_pivot_dists = list(social_pivot_dists)
        self.road_pivot_dists = list(road_pivot_dists)

    @property
    def user_id(self) -> int:
        return self.user.user_id


class SocialIndexNode:
    """An I_S node with the Eq. 9-14 aggregate bounds."""

    __slots__ = (
        "is_leaf", "children", "users", "interest_mbr",
        "lb_social_pivot", "ub_social_pivot",
        "lb_road_pivot", "ub_road_pivot",
        "page_id", "num_users",
    )

    def __init__(
        self,
        is_leaf: bool,
        children: Sequence["SocialIndexNode"],
        users: Sequence[AugmentedUser],
        interest_mbr: MBR,
        lb_social_pivot: Sequence[float],
        ub_social_pivot: Sequence[float],
        lb_road_pivot: Sequence[float],
        ub_road_pivot: Sequence[float],
        num_users: int,
    ) -> None:
        self.is_leaf = is_leaf
        self.children = list(children)
        self.users = list(users)
        self.interest_mbr = interest_mbr
        self.lb_social_pivot = list(lb_social_pivot)
        self.ub_social_pivot = list(ub_social_pivot)
        self.lb_road_pivot = list(lb_road_pivot)
        self.ub_road_pivot = list(ub_road_pivot)
        self.page_id = -1
        self.num_users = num_users

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"SocialIndexNode({kind}, users={self.num_users})"


def _finite_bounds(values: Sequence[float]) -> Sequence[float]:
    """Replace an empty sequence by a single +inf guard (defensive)."""
    return values if values else (math.inf,)


class SocialIndex:
    """The complete I_S index over a spatial-social network's users."""

    def __init__(
        self,
        network: SpatialSocialNetwork,
        social_pivots: SocialPivotIndex,
        road_pivots: RoadPivotIndex,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if leaf_size < 1:
            raise InvalidParameterError("leaf_size must be >= 1")
        if fanout < 2:
            raise InvalidParameterError("fanout must be >= 2")
        if network.social.num_users == 0:
            raise InvalidParameterError("cannot index an empty social network")
        self.network = network
        self.social_pivots = social_pivots
        self.road_pivots = road_pivots
        self.leaf_size = leaf_size
        self.fanout = fanout
        self.counter = PageAccessCounter()

        self._augmented = {
            user.user_id: AugmentedUser(
                user=user,
                social_pivot_dists=social_pivots.distances(user.user_id),
                road_pivot_dists=road_pivots.distances(user.home),
            )
            for user in network.social.users()
        }
        self.root = self._build(sorted(self._augmented))
        self.height = self._measure_height(self.root)
        self.num_pages = self._assign_page_ids()
        #: bound entries made potentially loose by widen-on-update (the
        #: ``dynamic.bound_slack`` gauge); reset by :meth:`compact`.
        self.bound_slack = 0
        self._index_paths()
        self.columns = _derive_columns(self)

    # -- construction ----------------------------------------------------------

    def _build(self, user_ids: Sequence[int]) -> SocialIndexNode:
        if len(user_ids) <= self.leaf_size:
            return self._make_leaf(user_ids)
        # Partition into about `fanout` socially cohesive parts.
        part_size = max(self.leaf_size, math.ceil(len(user_ids) / self.fanout))
        parts = partition_graph(self.network.social, user_ids, part_size)
        if len(parts) <= 1:
            return self._make_leaf(user_ids)
        children = [self._build(part) for part in parts]
        return self._aggregate(children)

    def _make_leaf(self, user_ids: Sequence[int]) -> SocialIndexNode:
        members = [self._augmented[uid] for uid in user_ids]
        d = self.network.num_keywords
        lows = [min(float(m.user.interests[f]) for m in members) for f in range(d)]
        highs = [max(float(m.user.interests[f]) for m in members) for f in range(d)]
        l = self.social_pivots.num_pivots
        h = self.road_pivots.num_pivots
        return SocialIndexNode(
            is_leaf=True,
            children=(),
            users=members,
            interest_mbr=MBR(lows, highs),
            lb_social_pivot=[
                min(m.social_pivot_dists[k] for m in members) for k in range(l)
            ],
            ub_social_pivot=[
                max(m.social_pivot_dists[k] for m in members) for k in range(l)
            ],
            lb_road_pivot=[
                min(m.road_pivot_dists[k] for m in members) for k in range(h)
            ],
            ub_road_pivot=[
                max(m.road_pivot_dists[k] for m in members) for k in range(h)
            ],
            num_users=len(members),
        )

    def _aggregate(self, children: Sequence[SocialIndexNode]) -> SocialIndexNode:
        l = self.social_pivots.num_pivots
        h = self.road_pivots.num_pivots
        return SocialIndexNode(
            is_leaf=False,
            children=children,
            users=(),
            interest_mbr=MBR.union_of(c.interest_mbr for c in children),
            lb_social_pivot=[
                min(c.lb_social_pivot[k] for c in children) for k in range(l)
            ],
            ub_social_pivot=[
                max(c.ub_social_pivot[k] for c in children) for k in range(l)
            ],
            lb_road_pivot=[
                min(c.lb_road_pivot[k] for c in children) for k in range(h)
            ],
            ub_road_pivot=[
                max(c.ub_road_pivot[k] for c in children) for k in range(h)
            ],
            num_users=sum(c.num_users for c in children),
        )

    def _measure_height(self, node: SocialIndexNode) -> int:
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

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable image of the index (structure + pivot distances)."""
        def node_skeleton(node: SocialIndexNode):
            if node.is_leaf:
                return {"users": [au.user_id for au in node.users]}
            return {"children": [node_skeleton(c) for c in node.children]}

        return {
            "social_pivots": list(self.social_pivots.pivots),
            "road_pivots": list(self.road_pivots.pivots),
            "leaf_size": self.leaf_size,
            "fanout": self.fanout,
            "augmented": {
                str(uid): {
                    "social": [
                        None if math.isinf(d) else d
                        for d in au.social_pivot_dists
                    ],
                    "road": list(au.road_pivot_dists),
                }
                for uid, au in self._augmented.items()
            },
            "tree": node_skeleton(self.root),
        }

    @classmethod
    def from_snapshot(
        cls,
        network: SpatialSocialNetwork,
        social_pivots: SocialPivotIndex,
        road_pivots: RoadPivotIndex,
        snapshot: dict,
    ) -> "SocialIndex":
        """Reconstruct an index from :meth:`snapshot` output."""
        index = cls.__new__(cls)
        index.network = network
        index.social_pivots = social_pivots
        index.road_pivots = road_pivots
        index.leaf_size = int(snapshot["leaf_size"])
        index.fanout = int(snapshot["fanout"])
        index.counter = PageAccessCounter()
        index._augmented = {}
        for uid_str, data in snapshot["augmented"].items():
            uid = int(uid_str)
            index._augmented[uid] = AugmentedUser(
                user=network.social.user(uid),
                social_pivot_dists=[
                    math.inf if d is None else float(d)
                    for d in data["social"]
                ],
                road_pivot_dists=data["road"],
            )

        def rebuild(skeleton: dict) -> SocialIndexNode:
            if "users" in skeleton:
                return index._make_leaf(skeleton["users"])
            children = [rebuild(c) for c in skeleton["children"]]
            return index._aggregate(children)

        index.root = rebuild(snapshot["tree"])
        index.height = index._measure_height(index.root)
        index.num_pages = index._assign_page_ids()
        index.bound_slack = 0
        index._index_paths()
        index.columns = _derive_columns(index)
        return index

    # -- incremental maintenance (widen-on-update, Section 4.1 bounds) -----------
    #
    # Tree *membership* never changes under the dynamic ops (users are
    # neither added nor removed), so the partition structure stays put
    # and only the per-node aggregates drift. The maintenance contract
    # is admissibility: every Eq. 9-14 bound must keep *containing* its
    # members' true values. Widening preserves containment trivially;
    # tightening is deferred to :meth:`compact` because the true new
    # extremum of a node is unknown without rescanning its members.
    # The price of deferral is slack — bounds looser than necessary
    # prune less (never wrongly) — and `bound_slack` counts the bound
    # entries whose supporting extremum may have retreated.

    def _index_paths(self) -> None:
        """Build leaf-of-user and child->parent maps for bottom-up widening."""
        self._leaf_of: Dict[int, SocialIndexNode] = {}
        self._parent: Dict[int, SocialIndexNode] = {}
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                for au in node.users:
                    self._leaf_of[au.user_id] = node
            else:
                for child in node.children:
                    self._parent[id(child)] = node
                stack.extend(node.children)

    @staticmethod
    def _widen_interval(
        lbs: List[float],
        ubs: List[float],
        values: Sequence[float],
        old_values: Optional[Sequence[float]],
    ) -> int:
        """Widen one node's [lb, ub] pivot intervals to cover ``values``.

        Returns the number of bound entries left potentially slack: the
        member's old value sat exactly on a bound (it may have been the
        supporting extremum) and its new value retreated inward, so the
        bound can no longer be certified tight without a rescan.
        """
        slack = 0
        for k, val in enumerate(values):
            old = None if old_values is None else old_values[k]
            if val < lbs[k]:
                lbs[k] = val
            elif old is not None and old == lbs[k] and val > lbs[k]:
                slack += 1
            if val > ubs[k]:
                ubs[k] = val
            elif old is not None and old == ubs[k] and val < ubs[k]:
                slack += 1
        return slack

    def widen_user(
        self,
        user_id: int,
        old_social: Optional[Sequence[float]] = None,
        old_road: Optional[Sequence[float]] = None,
        old_interests: Optional[Sequence[float]] = None,
    ) -> int:
        """Re-cover ``user_id``'s current values on its leaf-to-root path.

        Call after mutating the user's :class:`AugmentedUser` fields
        (pivot distances, interest vector). Bounds only widen; the
        return value is the slack added (also accumulated on
        :attr:`bound_slack`). The user's row and the rows of the nodes
        on its path are rewritten in :attr:`columns`.
        """
        au = self._augmented[user_id]
        leaf = self._leaf_of.get(user_id)
        if leaf is None:
            raise IndexStateError(f"user {user_id} not in social index")
        columns = self.columns
        columns.write_user(columns.slot_of[user_id])
        point = tuple(float(v) for v in au.user.interests)
        added = 0
        node: Optional[SocialIndexNode] = leaf
        while node is not None:
            if not node.interest_mbr.contains_point(point):
                node.interest_mbr = node.interest_mbr.union(
                    MBR.from_point(point)
                )
            elif old_interests is not None:
                added += sum(
                    1
                    for lo, hi, old, new in zip(
                        node.interest_mbr.low,
                        node.interest_mbr.high,
                        old_interests,
                        point,
                    )
                    if (old == lo and new > lo) or (old == hi and new < hi)
                )
            added += self._widen_interval(
                node.lb_social_pivot,
                node.ub_social_pivot,
                au.social_pivot_dists,
                old_social,
            )
            added += self._widen_interval(
                node.lb_road_pivot,
                node.ub_road_pivot,
                au.road_pivot_dists,
                old_road,
            )
            columns.write_node(node.page_id)
            node = self._parent.get(id(node))
        self.bound_slack += added
        return added

    def check_containment(self) -> None:
        """Assert the admissibility invariant (tests and compaction).

        Every node's intervals must contain all its members' values and
        its interest MBR must contain all members' interest points.
        """
        def walk(node: SocialIndexNode) -> List[AugmentedUser]:
            if node.is_leaf:
                members = list(node.users)
            else:
                members = []
                for child in node.children:
                    members.extend(walk(child))
            for au in members:
                point = tuple(float(v) for v in au.user.interests)
                if not node.interest_mbr.contains_point(point):
                    raise IndexStateError(
                        f"interest MBR lost user {au.user_id}"
                    )
                for k, val in enumerate(au.social_pivot_dists):
                    if not (
                        node.lb_social_pivot[k] <= val <= node.ub_social_pivot[k]
                    ):
                        raise IndexStateError(
                            f"social pivot bound {k} lost user {au.user_id}"
                        )
                for k, val in enumerate(au.road_pivot_dists):
                    if not (
                        node.lb_road_pivot[k] <= val <= node.ub_road_pivot[k]
                    ):
                        raise IndexStateError(
                            f"road pivot bound {k} lost user {au.user_id}"
                        )
            return members

        walk(self.root)

    def compact(self) -> int:
        """Recompute every aggregate exactly and reset the slack gauge.

        A bottom-up in-place rebuild of the Eq. 9-14 bounds from the
        members' current values — the structure (partition tree, page
        ids) is untouched — and of every node row of :attr:`columns`.
        Returns the number of bound entries that actually tightened.
        """
        l = self.social_pivots.num_pivots
        h = self.road_pivots.num_pivots
        d = self.network.num_keywords
        tightened = 0

        def count_changes(node, lbs, ubs, lb_r, ub_r, mbr) -> int:
            changed = sum(
                1
                for old, new in zip(
                    node.lb_social_pivot + node.ub_social_pivot
                    + node.lb_road_pivot + node.ub_road_pivot,
                    lbs + ubs + lb_r + ub_r,
                )
                if old != new
            )
            changed += sum(
                1
                for old, new in zip(
                    node.interest_mbr.low + node.interest_mbr.high,
                    mbr.low + mbr.high,
                )
                if old != new
            )
            return changed

        def recompute(node: SocialIndexNode) -> None:
            nonlocal tightened
            if node.is_leaf:
                members = node.users
                lbs = [
                    min(m.social_pivot_dists[k] for m in members)
                    for k in range(l)
                ]
                ubs = [
                    max(m.social_pivot_dists[k] for m in members)
                    for k in range(l)
                ]
                lb_r = [
                    min(m.road_pivot_dists[k] for m in members)
                    for k in range(h)
                ]
                ub_r = [
                    max(m.road_pivot_dists[k] for m in members)
                    for k in range(h)
                ]
                mbr = MBR(
                    [
                        min(float(m.user.interests[f]) for m in members)
                        for f in range(d)
                    ],
                    [
                        max(float(m.user.interests[f]) for m in members)
                        for f in range(d)
                    ],
                )
            else:
                for child in node.children:
                    recompute(child)
                children = node.children
                lbs = [
                    min(c.lb_social_pivot[k] for c in children)
                    for k in range(l)
                ]
                ubs = [
                    max(c.ub_social_pivot[k] for c in children)
                    for k in range(l)
                ]
                lb_r = [
                    min(c.lb_road_pivot[k] for c in children)
                    for k in range(h)
                ]
                ub_r = [
                    max(c.ub_road_pivot[k] for c in children)
                    for k in range(h)
                ]
                mbr = MBR.union_of(c.interest_mbr for c in children)
            tightened += count_changes(node, lbs, ubs, lb_r, ub_r, mbr)
            node.lb_social_pivot = lbs
            node.ub_social_pivot = ubs
            node.lb_road_pivot = lb_r
            node.ub_road_pivot = ub_r
            node.interest_mbr = mbr

        recompute(self.root)
        self.columns.write_nodes()
        self.bound_slack = 0
        return tightened

    # -- access -----------------------------------------------------------------

    def augmented(self, user_id: int) -> AugmentedUser:
        return self._augmented[user_id]

    def visit(self, node: SocialIndexNode) -> None:
        """Record a page access for the traversal touching ``node``."""
        self.counter.record(("social", node.page_id))

    def iter_nodes(self) -> Iterator[SocialIndexNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def describe(self) -> dict:
        """Structural statistics (for dashboards, logs, and tests)."""
        leaves = inner = 0
        leaf_fill = []
        mbr_widths = []
        for node in self.iter_nodes():
            if node.is_leaf:
                leaves += 1
                leaf_fill.append(len(node.users))
                box = node.interest_mbr
                mbr_widths.append(
                    sum(h - l for l, h in zip(box.low, box.high))
                    / box.dimensions
                )
            else:
                inner += 1
        return {
            "num_users": self.root.num_users,
            "height": self.height,
            "num_pages": self.num_pages,
            "leaf_nodes": leaves,
            "inner_nodes": inner,
            "avg_leaf_fill": sum(leaf_fill) / leaves if leaves else 0.0,
            "avg_leaf_interest_width": (
                sum(mbr_widths) / len(mbr_widths) if mbr_widths else 0.0
            ),
            "num_social_pivots": self.social_pivots.num_pivots,
            "num_road_pivots": self.road_pivots.num_pivots,
        }

    def __repr__(self) -> str:
        return (
            f"SocialIndex(users={self.root.num_users}, height={self.height}, "
            f"pages={self.num_pages})"
        )


def _derive_columns(index: SocialIndex) -> "SocialColumns":
    # Imported here: repro.core imports this module.
    from ..core.social_gates import SocialColumns

    return SocialColumns(index)
