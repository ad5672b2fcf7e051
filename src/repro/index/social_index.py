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

Nodes are page-numbered (breadth first) for the I/O simulation and
carry structure only: children or users, a page id and a user count.
Every aggregate lives in one place, the index's
:class:`SocialColumns` (:attr:`SocialIndex.columns`), as rows by user
slot and node page, from which the query processor evaluates Lemmas 3,
4, 8 and 9 for every entry at once. The partition tree is fixed at
construction: the dynamic ops neither add nor remove users, so
maintenance only widens the node rows in place
(:meth:`SocialIndex.widen_user`) and re-tightens them on
:meth:`SocialIndex.compact`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import IndexStateError, InvalidParameterError
from ..network import SpatialSocialNetwork
from ..socialnet.graph import User
from ..socialnet.partition import partition_graph
from .pagecounter import PageAccessCounter
from .paging import TreeColumns
from .pivots import RoadPivotIndex, SocialPivotIndex

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
    """An I_S node (leaf or inner): structure only.

    Its Eq. 9-14 bounds are rows of the index's :class:`SocialColumns`,
    by ``page_id``.
    """

    __slots__ = ("is_leaf", "children", "users", "page_id", "num_users")

    def __init__(
        self,
        children: Sequence["SocialIndexNode"] = (),
        users: Sequence[AugmentedUser] = (),
    ) -> None:
        self.is_leaf = not children
        self.children = list(children)
        self.users = list(users)
        self.page_id = -1
        self.num_users = (
            len(self.users) if self.is_leaf
            else sum(c.num_users for c in self.children)
        )

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"SocialIndexNode({kind}, users={self.num_users})"


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
        self._adopt(self._partition(sorted(self._augmented)))

    # -- construction ----------------------------------------------------------

    def _partition(self, user_ids: Sequence[int]) -> dict:
        """The partition tree over ``user_ids``, in :meth:`snapshot`'s
        ``tree`` form."""
        if len(user_ids) <= self.leaf_size:
            return {"users": list(user_ids)}
        # Partition into about `fanout` socially cohesive parts.
        part_size = max(self.leaf_size, math.ceil(len(user_ids) / self.fanout))
        parts = partition_graph(self.network.social, user_ids, part_size)
        if len(parts) <= 1:
            return {"users": list(user_ids)}
        return {"children": [self._partition(part) for part in parts]}

    def _mirror(self, skeleton: dict) -> SocialIndexNode:
        """The nodes of a tree skeleton: structure only, for both build
        and attach."""
        if "users" in skeleton:
            return SocialIndexNode(
                users=[self._augmented[uid] for uid in skeleton["users"]]
            )
        return SocialIndexNode(
            children=[self._mirror(c) for c in skeleton["children"]]
        )

    def _adopt(self, skeleton: dict) -> None:
        """Install the tree: nodes, height, page ids and exact columns."""
        self.root = self._mirror(skeleton)
        self.height = self._measure_height(self.root)
        self.num_pages = self._assign_page_ids()
        #: bound entries made potentially loose by widen-on-update (the
        #: ``dynamic.bound_slack`` gauge); reset by :meth:`compact`.
        self.bound_slack = 0
        self.columns = SocialColumns(self)

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

        index._adopt(snapshot["tree"])
        return index

    # -- incremental maintenance (widen-on-update, Section 4.1 bounds) -----------
    #
    # Tree *membership* never changes under the dynamic ops (users are
    # neither added nor removed), so the partition structure stays put
    # and only the node rows of `columns` drift. The maintenance contract
    # is admissibility: every Eq. 9-14 bound must keep *containing* its
    # members' true values. Widening preserves containment trivially;
    # tightening is deferred to :meth:`compact` because the true new
    # extremum of a node is unknown without rescanning its members.
    # The price of deferral is slack — bounds looser than necessary
    # prune less (never wrongly) — and `bound_slack` counts the bound
    # entries whose supporting extremum may have retreated.

    def widen_user(
        self,
        user_id: int,
        old_social: Optional[Sequence[float]] = None,
        old_road: Optional[Sequence[float]] = None,
        old_interests: Optional[Sequence[float]] = None,
    ) -> int:
        """Re-cover ``user_id``'s current values on its leaf-to-root path.

        Call after mutating the user's :class:`AugmentedUser` fields
        (pivot distances, interest vector): the user's row of
        :attr:`columns` is rewritten from them and the rows of the
        nodes on its path widen to cover it. Bounds only widen; the
        return value is the slack added (also accumulated on
        :attr:`bound_slack`): per node, a bound the user's old value sat
        on and its new value retreated from, which can no longer be
        certified tight without a rescan. An interest point outside a
        node's MBR widens the box and adds no interest slack.
        """
        cols = self.columns
        slot = cols.slot_of.get(user_id)
        if slot is None:
            raise IndexStateError(f"user {user_id} not in social index")
        au = self._augmented[user_id]
        cols.user_social[slot] = au.social_pivot_dists
        cols.user_road[slot] = au.road_pivot_dists
        cols.user_interests[slot] = au.user.interests
        pages = cols.path_pages(slot)
        added = 0

        point = cols.user_interests[slot]
        low, high = cols.node_low[pages], cols.node_high[pages]
        if old_interests is not None:
            old = np.asarray(old_interests, dtype=np.float64)
            inside = ((low <= point) & (point <= high)).all(axis=1)
            retreated = ((old == low) & (point > low)) | (
                (old == high) & (point < high)
            )
            added += int(retreated[inside].sum())
        cols.node_low[pages] = np.minimum(low, point)
        cols.node_high[pages] = np.maximum(high, point)

        for lb_name, ub_name, row, old in (
            ("node_social_lb", "node_social_ub", cols.user_social[slot],
             old_social),
            ("node_road_lb", "node_road_ub", cols.user_road[slot], old_road),
        ):
            lbs = getattr(cols, lb_name)
            ubs = getattr(cols, ub_name)
            lb, ub = lbs[pages], ubs[pages]
            if old is not None:
                old = np.asarray(old, dtype=np.float64)
                added += int(((old == lb) & (row > lb)).sum())
                added += int(((old == ub) & (row < ub)).sum())
            lbs[pages] = np.minimum(lb, row)
            ubs[pages] = np.maximum(ub, row)
        self.bound_slack += added
        return added

    def check_containment(self) -> None:
        """Assert the admissibility invariant (tests and compaction).

        Every node row of :attr:`columns` must cover the exact bound of
        its members: its intervals contain all its members' pivot
        distances and its interest MBR all their interest points.
        """
        for name, stored, ufunc, exact in self.columns.exact_bounds():
            lost = ufunc(stored, exact) != stored
            if lost.any():
                page, col = np.argwhere(lost)[0]
                raise IndexStateError(
                    f"{name}[{col}] of page {page} lost a member"
                )

    def compact(self) -> int:
        """Recompute every node row exactly and reset the slack gauge.

        One bottom-up reduction of the Eq. 9-14 bounds from the members'
        current rows; the structure (partition tree, page ids) is
        untouched. Returns the number of bound entries that changed.
        """
        tightened = 0
        for _name, stored, _ufunc, exact in self.columns.exact_bounds():
            tightened += int(np.count_nonzero(stored != exact))
            stored[...] = exact
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
        cols = self.columns
        for node in self.iter_nodes():
            if node.is_leaf:
                leaves += 1
                leaf_fill.append(len(node.users))
                widths = (
                    cols.node_high[node.page_id] - cols.node_low[node.page_id]
                ).tolist()
                mbr_widths.append(sum(widths) / len(widths))
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


#: Each node bound of Eqs. 9-14 as (node rows, member rows, reduction).
NODE_BOUNDS: Tuple[Tuple[str, str, np.ufunc], ...] = (
    ("node_low", "user_interests", np.minimum),  # Eq. 9
    ("node_high", "user_interests", np.maximum),  # Eq. 10
    ("node_social_lb", "user_social", np.minimum),  # Eq. 11
    ("node_social_ub", "user_social", np.maximum),  # Eq. 12
    ("node_road_lb", "user_road", np.minimum),  # Eq. 13
    ("node_road_ub", "user_road", np.maximum),  # Eq. 14
)


class SocialColumns(TreeColumns):
    """The social index's bounds as columns: the one copy of the user
    values and node bounds, kept current by the index.

    Users get dense slots in page order (then leaf order), nodes are
    addressed by page id. Tree membership never changes under the
    dynamic ops, so slots are stable: :meth:`SocialIndex.widen_user`
    rewrites a user's row and widens its path's node rows in place, and
    :meth:`SocialIndex.compact` recomputes every node row.

    Attributes:
        aus: slot -> :class:`AugmentedUser`; ``slot_of`` inverts it by id.
        user_leaf: a slot's leaf page.
        user_social / user_road / user_interests: ``U x l`` social-pivot
            hops, ``U x h`` road-pivot distances, ``U x d`` interests.
        node_social_lb / node_social_ub: ``N x l`` hop intervals
            (Eqs. 11-12); node_road_lb / node_road_ub: ``N x h``
            (Eqs. 13-14); node_low / node_high: ``N x d`` interest MBRs
            (Eqs. 9-10).
    """

    __slots__ = (
        "aus", "slot_of", "user_leaf",
        "user_social", "user_road", "user_interests",
        "node_social_lb", "node_social_ub", "node_road_lb", "node_road_ub",
        "node_low", "node_high",
    )

    def __init__(self, index: SocialIndex) -> None:
        aus = self._lay_out(index.root, index.num_pages, lambda n: n.users)
        self.aus = aus
        self.slot_of = {au.user_id: slot for slot, au in enumerate(aus)}
        self.user_leaf = [
            page for page, slots in enumerate(self.leaf_slots) for _ in slots
        ]

        def rows(values, width: int) -> np.ndarray:
            return np.array(values, dtype=np.float64).reshape(len(aus), width)

        self.user_social = rows(
            [au.social_pivot_dists for au in aus],
            index.social_pivots.num_pivots,
        )
        self.user_road = rows(
            [au.road_pivot_dists for au in aus], index.road_pivots.num_pivots
        )
        self.user_interests = rows(
            [au.user.interests for au in aus], index.network.num_keywords
        )
        for name, rows_name, ufunc in NODE_BOUNDS:
            setattr(self, name, self.reduce(ufunc, getattr(self, rows_name)))
        # Hop rows are reduced across their few pivots, which runs
        # fastest down columns.
        for name in ("user_social", "node_social_lb", "node_social_ub"):
            setattr(self, name, np.asfortranarray(getattr(self, name)))

    def exact_bounds(self) -> Iterator[Tuple[str, np.ndarray, np.ufunc, np.ndarray]]:
        """Per node bound: its name, its stored rows, its reduction and
        the exact rows reduced from the members' current rows."""
        for name, rows_name, ufunc in NODE_BOUNDS:
            yield (
                name, getattr(self, name), ufunc,
                self.reduce(ufunc, getattr(self, rows_name)),
            )

    def path_pages(self, slot: int) -> List[int]:
        """Page ids from ``slot``'s leaf up to the root."""
        pages = []
        page = self.user_leaf[slot]
        while page >= 0:
            pages.append(page)
            page = self.parent[page]
        return pages
