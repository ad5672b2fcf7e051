"""Social network graph model (Definition 3).

Users are vertices; undirected edges are friendships. Each user carries a
``d``-dimensional interest vector ``u_j.w`` (topic probabilities in
``[0, 1]``) and a home location on the road network. Hop distances
(``dist_SN``) are unweighted BFS distances.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

import numpy as np

from ..changes import ChangeLog
from ..exceptions import GraphConstructionError, UnknownEntityError
from ..roadnet.graph import NetworkPosition


@dataclass(frozen=True)
class User:
    """A social-network user.

    Attributes:
        user_id: unique identifier.
        interests: ``d``-dimensional numpy vector of topic probabilities
            (``u_j.w``); each entry lies in ``[0, 1]``.
        home: the user's home location on the road network (``u_j.Loc``).
    """

    user_id: int
    interests: np.ndarray
    home: NetworkPosition

    def __post_init__(self) -> None:
        arr = np.asarray(self.interests, dtype=float)
        if arr.ndim != 1:
            raise GraphConstructionError(
                f"interest vector of user {self.user_id} must be 1-D"
            )
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise GraphConstructionError(
                f"interest probabilities of user {self.user_id} outside [0, 1]"
            )
        arr = np.clip(arr, 0.0, 1.0)
        arr.setflags(write=False)
        object.__setattr__(self, "interests", arr)

    @property
    def dimensions(self) -> int:
        return int(self.interests.shape[0])


class SocialNetwork:
    """An undirected friendship graph over :class:`User` objects."""

    def __init__(self) -> None:
        self._users: Dict[int, User] = {}
        self._adj: Dict[int, Set[int]] = {}
        self._num_edges = 0
        self.version = 0
        #: ids of the users added or replaced (a move replaces the
        #: frozen record), for the caches that follow user changes.
        self.user_changes = ChangeLog()

    # -- construction ------------------------------------------------------

    def add_user(self, user: User) -> None:
        if user.user_id in self._users:
            raise GraphConstructionError(f"duplicate user id {user.user_id}")
        self._users[user.user_id] = user
        self._adj[user.user_id] = set()
        self.version += 1
        self.user_changes.record(user.user_id)

    def add_friendship(self, a: int, b: int) -> None:
        """Add an undirected friendship edge between users ``a`` and ``b``."""
        if a == b:
            raise GraphConstructionError(f"self friendship on user {a}")
        for uid in (a, b):
            if uid not in self._users:
                raise GraphConstructionError(f"friendship references unknown user {uid}")
        if b in self._adj[a]:
            raise GraphConstructionError(f"duplicate friendship ({a}, {b})")
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._num_edges += 1
        self.version += 1

    def remove_friendship(self, a: int, b: int) -> None:
        """Remove the undirected friendship edge between ``a`` and ``b``."""
        for uid in (a, b):
            if uid not in self._users:
                raise UnknownEntityError(f"unknown user {uid}")
        if b not in self._adj[a]:
            raise GraphConstructionError(f"no friendship ({a}, {b})")
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self._num_edges -= 1
        self.version += 1

    def replace_user(self, user: User) -> User:
        """Swap in a new :class:`User` record under an existing id.

        Friendships are untouched; returns the previous record. This is
        the primitive behind ``move_user`` — :class:`User` is frozen, so
        a relocation is modelled as a replacement.
        """
        if user.user_id not in self._users:
            raise UnknownEntityError(f"unknown user {user.user_id}")
        previous = self._users[user.user_id]
        self._users[user.user_id] = user
        self.version += 1
        self.user_changes.record(user.user_id)
        return previous

    # -- accessors ---------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self._users)

    @property
    def num_friendships(self) -> int:
        return self._num_edges

    def average_degree(self) -> float:
        if not self._users:
            return 0.0
        return 2.0 * self._num_edges / len(self._users)

    def user(self, user_id: int) -> User:
        try:
            return self._users[user_id]
        except KeyError:
            raise UnknownEntityError(f"unknown user {user_id}") from None

    def has_user(self, user_id: int) -> bool:
        return user_id in self._users

    def users(self) -> Iterator[User]:
        return iter(self._users.values())

    def user_ids(self) -> Iterator[int]:
        return iter(self._users)

    def friends(self, user_id: int) -> Set[int]:
        try:
            return self._adj[user_id]
        except KeyError:
            raise UnknownEntityError(f"unknown user {user_id}") from None

    def are_friends(self, a: int, b: int) -> bool:
        return a in self._adj and b in self._adj[a]

    # -- hop distances (dist_SN) ---------------------------------------------

    def hop_distances_from(
        self, source: int, max_hops: Optional[int] = None
    ) -> Dict[int, int]:
        """BFS hop distances from ``source``.

        Args:
            source: starting user id.
            max_hops: when given, stop the BFS at this depth; the result
                only contains users within ``max_hops`` hops.
        """
        if source not in self._adj:
            raise UnknownEntityError(f"unknown user {source}")
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            d = dist[node]
            if max_hops is not None and d >= max_hops:
                continue
            for nbr in self._adj[node]:
                if nbr not in dist:
                    dist[nbr] = d + 1
                    queue.append(nbr)
        return dist

    def hop_distance(self, a: int, b: int) -> float:
        """``dist_SN(a, b)``; ``math.inf`` when disconnected."""
        if b not in self._adj:
            raise UnknownEntityError(f"unknown user {b}")
        return self.hop_distances_from(a).get(b, math.inf)

    # -- connectivity --------------------------------------------------------

    def is_connected_subset(self, user_ids: Sequence[int]) -> bool:
        """True when ``user_ids`` induces a connected subgraph.

        This is the GP-SSN requirement "all users in S are connected in
        G_s" — connectivity *within* the induced subgraph, not merely
        within the whole network.
        """
        ids = set(user_ids)
        if not ids:
            return False
        for uid in ids:
            if uid not in self._adj:
                raise UnknownEntityError(f"unknown user {uid}")
        start = next(iter(ids))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in self._adj[node]:
                if nbr in ids and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(ids)

    def connected_component(self, start: int) -> List[int]:
        """All user ids reachable from ``start`` (including ``start``)."""
        if start not in self._adj:
            raise UnknownEntityError(f"unknown user {start}")
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in self._adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return sorted(seen)

    def __repr__(self) -> str:
        return (
            f"SocialNetwork(|V|={self.num_users}, |E|={self.num_friendships}, "
            f"deg={self.average_degree():.2f})"
        )
