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

The tree lives in one place, the index's :class:`SocialColumns`
(:attr:`SocialIndex.columns`): its shape as per-page lists (pages
numbered breadth first for the I/O simulation), each user's pivot
distances and interests as a row by slot, and every aggregate as a row
by page, from which the query processor evaluates Lemmas 3, 4, 8 and 9
for every entry at once. No node objects exist. The partition tree is
fixed at construction: the dynamic ops neither add nor remove users, so
maintenance only rewrites a user's row and widens the node rows above
it in place (:meth:`SocialIndex.widen_user`), and re-tightens them on
:meth:`SocialIndex.compact`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import IndexStateError, InvalidParameterError
from ..network import SpatialSocialNetwork
from ..socialnet.partition import partition_graph
from .pagecounter import PageAccessCounter
from .paging import TreeColumns
from .pivots import RoadPivotIndex, SocialPivotIndex

#: Default leaf capacity (users per leaf partition).
DEFAULT_LEAF_SIZE = 16
#: Default fanout of non-leaf nodes.
DEFAULT_FANOUT = 8


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

        users = list(network.social.users())
        self._adopt(
            self._partition(sorted(user.user_id for user in users)),
            {u.user_id: social_pivots.distances(u.user_id) for u in users},
            {u.user_id: road_pivots.distances(u.home) for u in users},
        )

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

    def _adopt(
        self,
        skeleton: dict,
        social: Dict[int, Sequence[float]],
        road: Dict[int, Sequence[float]],
    ) -> None:
        """Lay the tree out as exact :attr:`columns` from its skeleton
        and each user's social- and road-pivot distances."""
        #: bound entries made potentially loose by widen-on-update (the
        #: ``dynamic.bound_slack`` gauge); reset by :meth:`compact`.
        self.bound_slack = 0
        self.columns = SocialColumns(self, skeleton, social, road)

    @property
    def height(self) -> int:
        return self.columns.height

    @property
    def num_pages(self) -> int:
        return self.columns.num_pages

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable image of the index (structure + pivot distances)."""
        columns = self.columns
        return {
            "social_pivots": list(self.social_pivots.pivots),
            "road_pivots": list(self.road_pivots.pivots),
            "leaf_size": self.leaf_size,
            "fanout": self.fanout,
            "augmented": {
                str(uid): {
                    "social": [
                        None if math.isinf(d) else d
                        for d in social.tolist()
                    ],
                    "road": road.tolist(),
                }
                for uid, social, road in zip(
                    columns.user_ids, columns.user_social, columns.user_road
                )
            },
            "tree": columns.skeleton("users", columns.user_ids),
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
        rows = {int(uid): data for uid, data in snapshot["augmented"].items()}
        index._adopt(
            snapshot["tree"],
            {
                uid: [math.inf if d is None else float(d) for d in data["social"]]
                for uid, data in rows.items()
            },
            {uid: data["road"] for uid, data in rows.items()},
        )
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
        social: Optional[Sequence[float]] = None,
        road: Optional[Sequence[float]] = None,
    ) -> int:
        """Write ``user_id``'s new social- and/or road-pivot row and
        re-cover it on the user's leaf-to-root path.

        The rows of the nodes on the path widen to cover the new row.
        Bounds only widen; the return value is the slack added (also
        accumulated on :attr:`bound_slack`): per node, a bound the
        user's old value sat on and its new value retreated from, which
        can no longer be certified tight without a rescan.
        """
        cols = self.columns
        slot = cols.slot_of.get(user_id)
        if slot is None:
            raise IndexStateError(f"user {user_id} not in social index")
        pages = cols.path_pages(slot)
        added = 0
        for new, rows, lbs, ubs in (
            (social, cols.user_social, cols.node_social_lb,
             cols.node_social_ub),
            (road, cols.user_road, cols.node_road_lb, cols.node_road_ub),
        ):
            if new is None:
                continue
            old = rows[slot].copy()
            rows[slot] = new
            row = rows[slot]
            lb, ub = lbs[pages], ubs[pages]
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

    def visit(self, page: int) -> None:
        """Record a page access for the traversal touching ``page``."""
        self.counter.record(("social", page))

    def describe(self) -> dict:
        """Structural statistics (for dashboards, logs, and tests)."""
        cols = self.columns
        mbr_widths = []
        stack = [0]  # depth first, last child first: the order of the sum
        while stack:
            page = stack.pop()
            stack.extend(cols.children[page])
            if not cols.children[page]:
                widths = (cols.node_high[page] - cols.node_low[page]).tolist()
                mbr_widths.append(sum(widths) / len(widths))
        leaves = len(mbr_widths)
        return {
            "num_users": cols.size[0],
            "height": self.height,
            "num_pages": self.num_pages,
            "leaf_nodes": leaves,
            "inner_nodes": self.num_pages - leaves,
            "avg_leaf_fill": cols.size[0] / leaves if leaves else 0.0,
            "avg_leaf_interest_width": (
                sum(mbr_widths) / len(mbr_widths) if mbr_widths else 0.0
            ),
            "num_social_pivots": self.social_pivots.num_pivots,
            "num_road_pivots": self.road_pivots.num_pivots,
        }

    def __repr__(self) -> str:
        return (
            f"SocialIndex(users={self.columns.size[0]}, height={self.height}, "
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
    """The social index's tree as columns: its shape (see
    :class:`TreeColumns`) and the one copy of the user values and node
    bounds, kept current by the index.

    Users get dense slots in page order (then leaf order), nodes are
    addressed by page id. Tree membership never changes under the
    dynamic ops, so slots are stable: :meth:`SocialIndex.widen_user`
    rewrites a user's row and widens its path's node rows in place, and
    :meth:`SocialIndex.compact` recomputes every node row.

    Attributes:
        user_ids: slot -> user id; ``slot_of`` inverts it.
        user_leaf: a slot's leaf page.
        user_social / user_road / user_interests: ``U x l`` social-pivot
            hops, ``U x h`` road-pivot distances, ``U x d`` interests.
        node_social_lb / node_social_ub: ``N x l`` hop intervals
            (Eqs. 11-12); node_road_lb / node_road_ub: ``N x h``
            (Eqs. 13-14); node_low / node_high: ``N x d`` interest MBRs
            (Eqs. 9-10).
    """

    __slots__ = (
        "user_ids", "slot_of", "user_leaf",
        "user_social", "user_road", "user_interests",
        "node_social_lb", "node_social_ub", "node_road_lb", "node_road_ub",
        "node_low", "node_high",
    )

    def __init__(
        self,
        index: SocialIndex,
        skeleton: dict,
        social: Dict[int, Sequence[float]],
        road: Dict[int, Sequence[float]],
    ) -> None:
        ids = self._lay_out(skeleton, "users")
        self.user_ids = ids
        self.slot_of = {uid: slot for slot, uid in enumerate(ids)}
        self.user_leaf = [
            page for page, slots in enumerate(self.leaf_slots) for _ in slots
        ]

        def rows(values, width: int) -> np.ndarray:
            return np.array(values, dtype=np.float64).reshape(len(ids), width)

        users = index.network.social
        self.user_social = rows(
            [social[uid] for uid in ids], index.social_pivots.num_pivots
        )
        self.user_road = rows(
            [road[uid] for uid in ids], index.road_pivots.num_pivots
        )
        self.user_interests = rows(
            [users.user(uid).interests for uid in ids],
            index.network.num_keywords,
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
