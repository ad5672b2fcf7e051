"""The integrated spatial-social network ``G_rs`` (Definition 4).

:class:`SpatialSocialNetwork` bundles a road network with its POIs and a
social network whose users are anchored to road edges, and validates the
coupling invariants at construction time:

* every user's home and every POI's position references a real edge with
  a valid offset;
* POI identifiers are unique;
* user interest vectors and the keyword universe share one dimension
  ``d`` (``num_keywords``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .changes import ChangeLog
from .config import NETWORK_DISTANCE_CACHE_SIZE
from .exceptions import (
    GraphConstructionError,
    InvalidParameterError,
    UnknownEntityError,
)
from .roadnet.engines import CSREngine
from .roadnet.graph import RoadNetwork
from .roadnet.poi import POI
from .roadnet.shortest_path import DistanceOracle
from .socialnet.graph import SocialNetwork, User


class SpatialSocialNetwork:
    """An integrated spatial-social network (``G_rs = G_r ∪ G_s``)."""

    def __init__(
        self,
        road: RoadNetwork,
        social: SocialNetwork,
        pois: Sequence[POI],
        num_keywords: int,
        distance_cache_size: int = NETWORK_DISTANCE_CACHE_SIZE,
        validate: bool = True,
    ) -> None:
        self.road = road
        self.social = social
        self.num_keywords = int(num_keywords)
        self._pois: Dict[int, POI] = {}
        if validate:
            for poi in pois:
                if poi.poi_id in self._pois:
                    raise GraphConstructionError(
                        f"duplicate POI id {poi.poi_id}"
                    )
                road.validate_position(poi.position)
                for keyword in poi.keywords:
                    if not 0 <= keyword < self.num_keywords:
                        raise GraphConstructionError(
                            f"POI {poi.poi_id} keyword {keyword} outside "
                            f"[0, {self.num_keywords})"
                        )
                self._pois[poi.poi_id] = poi
            for user in social.users():
                road.validate_position(user.home)
                if user.dimensions != self.num_keywords:
                    raise GraphConstructionError(
                        f"user {user.user_id} has {user.dimensions}-dim "
                        f"interests but the network declares "
                        f"d={self.num_keywords}"
                    )
        else:
            # Attaching a frozen snapshot: the coupling invariants were
            # validated when the file was written, and re-walking every
            # POI/user would defeat the O(1) open.
            for poi in pois:
                self._pois[poi.poi_id] = poi
        self._poi_version = 0
        #: ids of the POIs added or removed, for the caches that follow
        #: POI churn (the pair kernel) instead of rebuilding on it.
        self.poi_changes = ChangeLog()
        self._endpoint_pois: Optional[Tuple[int, Dict[int, List[int]]]] = None
        #: shared oracle for dist_RN lookups; keys are ("user", id) and
        #: ("poi", id) so users and POIs never collide.
        self.distances = DistanceOracle(road, cache_size=distance_cache_size)

    def use_distance_engine(self, name: str) -> CSREngine:
        """The shared oracle's ``dist_RN`` engine, which must be ``name``.

        ``"csr"`` is the only engine; any other name raises
        :class:`~repro.exceptions.InvalidParameterError`. Kept for callers
        that still name the engine they expect.
        """
        engine = self.distances.engine
        if name != engine.name:
            raise InvalidParameterError(
                f"unknown distance engine {name!r}; the only engine is "
                f"{engine.name!r}"
            )
        return engine

    # -- mutation (bumps version counters so indexes can detect staleness) ----

    @property
    def version(self) -> int:
        """Combined version of the underlying graphs and the POI set.

        Index structures capture this at build time and refuse to serve
        queries once it moves (see
        :meth:`repro.core.algorithm.GPSSNQueryProcessor.answer`).
        """
        return self.road.version + self.social.version + self._poi_version

    def add_poi(self, poi: POI) -> None:
        """Add a POI (validated like construction-time POIs).

        Only the oracle map cached under the new ``("poi", id)`` key is
        dropped: every other map is rooted at an unchanged position on
        an unchanged road graph, so it stays exact.
        """
        if poi.poi_id in self._pois:
            raise GraphConstructionError(f"duplicate POI id {poi.poi_id}")
        self.road.validate_position(poi.position)
        for keyword in poi.keywords:
            if not 0 <= keyword < self.num_keywords:
                raise GraphConstructionError(
                    f"POI {poi.poi_id} keyword {keyword} outside "
                    f"[0, {self.num_keywords})"
                )
        self._pois[poi.poi_id] = poi
        self._poi_version += 1
        self.poi_changes.record(poi.poi_id)
        self.distances.forget(("poi", poi.poi_id))

    def remove_poi(self, poi_id: int) -> POI:
        """Remove and return a POI.

        Drops the removed POI's ``("poi", id)`` oracle map, so a future
        POI reusing the id cannot inherit its distances; maps rooted
        elsewhere stay exact.
        """
        try:
            poi = self._pois.pop(poi_id)
        except KeyError:
            raise UnknownEntityError(f"unknown POI {poi_id}") from None
        self._poi_version += 1
        self.poi_changes.record(poi_id)
        self.distances.forget(("poi", poi_id))
        return poi

    def move_user(self, user_id: int, home: "NetworkPosition") -> User:
        """Relocate a user's home; returns the previous record.

        Interests and friendships are preserved. Only the user's cached
        ``("user", id)`` map is dropped, since it is rooted at the old
        home; every other map keeps its source and stays exact.
        """
        current = self.social.user(user_id)
        self.road.validate_position(home)
        moved = User(user_id=user_id, interests=current.interests, home=home)
        previous = self.social.replace_user(moved)
        self.distances.forget(("user", user_id))
        return previous

    def add_friendship(self, a: int, b: int) -> None:
        """Add a friendship edge (hop distances shift; road caches stay)."""
        self.social.add_friendship(a, b)

    def remove_friendship(self, a: int, b: int) -> None:
        """Remove a friendship edge."""
        self.social.remove_friendship(a, b)

    def apply(self, mutation) -> None:
        """Apply one typed mutation (see :mod:`repro.dynamic.ops`).

        Dispatches on ``mutation.op`` so the dynamic layer's dataclasses
        stay import-free here; raises for unknown operations. Index
        maintenance is *not* performed — that is the job of
        :class:`repro.dynamic.maintenance.DynamicIndexMaintainer`, which
        wraps this call with incremental index updates.
        """
        from .roadnet.graph import NetworkPosition

        op = getattr(mutation, "op", None)
        if op == "move_user":
            self.move_user(
                mutation.user,
                NetworkPosition(mutation.u, mutation.v, mutation.offset),
            )
        elif op == "add_friend":
            self.add_friendship(mutation.a, mutation.b)
        elif op == "remove_friend":
            self.remove_friendship(mutation.a, mutation.b)
        elif op == "add_poi":
            from .roadnet.poi import POI

            position = NetworkPosition(mutation.u, mutation.v, mutation.offset)
            self.road.validate_position(position)
            self.add_poi(
                POI(
                    poi_id=mutation.poi,
                    location=self.road.position_coords(position),
                    position=position,
                    keywords=frozenset(mutation.keywords),
                )
            )
        elif op == "remove_poi":
            self.remove_poi(mutation.poi)
        else:
            raise GraphConstructionError(f"unknown mutation op {op!r}")

    def add_user(self, user: "User", friends: Iterable[int] = ()) -> None:
        """Add a user (validated) and wire the given friendships.

        Drops any oracle map cached under the new ``("user", id)`` key.
        """
        self.road.validate_position(user.home)
        if user.dimensions != self.num_keywords:
            raise GraphConstructionError(
                f"user {user.user_id} has {user.dimensions}-dim interests "
                f"but the network declares d={self.num_keywords}"
            )
        self.social.add_user(user)
        for friend in friends:
            self.social.add_friendship(user.user_id, friend)
        self.distances.forget(("user", user.user_id))

    # -- POI access ----------------------------------------------------------

    @property
    def num_pois(self) -> int:
        return len(self._pois)

    def has_poi(self, poi_id: int) -> bool:
        return poi_id in self._pois

    def poi(self, poi_id: int) -> POI:
        try:
            return self._pois[poi_id]
        except KeyError:
            raise UnknownEntityError(f"unknown POI {poi_id}") from None

    def pois(self) -> List[POI]:
        return list(self._pois.values())

    def poi_ids(self) -> List[int]:
        return list(self._pois)

    # -- distances (dist_RN between users and POIs) ---------------------------

    def user_poi_distance(self, user_id: int, poi_id: int) -> float:
        """``dist_RN(u_j, o_i)`` — the Dijkstra tree is rooted at the POI.

        POI-rooted trees are reused across the many users compared against
        the same candidate POI during query processing, which keeps the
        oracle cache effective.
        """
        user = self.social.user(user_id)
        poi = self.poi(poi_id)
        return self.distances.distance(("poi", poi_id), poi.position, user.home)

    def poi_poi_distance(self, a: int, b: int) -> float:
        """``dist_RN(o_a, o_b)`` between two POIs."""
        poi_a = self.poi(a)
        poi_b = self.poi(b)
        return self.distances.distance(("poi", a), poi_a.position, poi_b.position)

    def pois_within(self, poi_id: int, radius: float) -> List[int]:
        """Ids of POIs with ``dist_RN`` at most ``radius`` from ``poi_id``.

        Materializes the circular region ``⊙(o_i, radius)`` of Section 3.1
        (including ``poi_id`` itself).
        """
        center = self.poi(poi_id)
        dist_map = self.distances.distances_from(("poi", poi_id), center.position)
        result = []
        from .roadnet.shortest_path import position_distance_from_map

        for other in self._pois.values():
            d = position_distance_from_map(
                self.road, dist_map, other.position, center.position
            )
            if d <= radius:
                result.append(other.poi_id)
        return result

    def _pois_by_endpoint(self) -> Dict[int, List[int]]:
        """Edge-endpoint vertex -> ids of POIs anchored on that vertex.

        Version-guarded lazy cache; lets bounded region sweeps gather
        candidates from the searched neighbourhood instead of scanning
        every POI.
        """
        cached = self._endpoint_pois
        if cached is not None and cached[0] == self.version:
            return cached[1]
        by_vertex: Dict[int, List[int]] = {}
        for poi in self._pois.values():
            for vertex in (poi.position.u, poi.position.v):
                by_vertex.setdefault(vertex, []).append(poi.poi_id)
        self._endpoint_pois = (self.version, by_vertex)
        return by_vertex

    def poi_distances_within(self, poi_id: int, radius: float) -> Dict[int, float]:
        """``{o.id: dist_RN(o_i, o)}`` over POIs within ``radius`` of ``poi_id``.

        One *bounded*, uncached search per call: offline index builds
        sweep every POI once, where caching |P| full vertex maps would
        both evict the query-relevant oracle entries and pay O(|V|) per
        POI. The truncation is lossless — the edge endpoint realizing a
        qualifying POI's distance lies on its shortest path, so that
        vertex distance never exceeds ``radius``. Distances are exactly
        the values :meth:`poi_poi_distance` would report.
        """
        from .roadnet.shortest_path import (
            position_distance_from_map,
            position_seeds,
        )

        center = self.poi(poi_id)
        dist_map = self.distances.engine.sssp(
            position_seeds(self.road, center.position),
            max_distance=radius + 1e-9,
        )
        self.distances.searches_run += 1
        by_endpoint = self._pois_by_endpoint()
        candidates: set = set()
        for vertex in dist_map:
            candidates.update(by_endpoint.get(vertex, ()))
        # Same-edge POIs reach the center by the direct along-edge walk,
        # which needs no vertex map entry — always consider them.
        for vertex in (center.position.u, center.position.v):
            candidates.update(by_endpoint.get(vertex, ()))
        out: Dict[int, float] = {}
        for pid in sorted(candidates):
            other = self._pois[pid]
            d = position_distance_from_map(
                self.road, dist_map, other.position, center.position
            )
            if d <= radius:
                out[pid] = d
        return out

    def __repr__(self) -> str:
        return (
            f"SpatialSocialNetwork(road={self.road!r}, social={self.social!r}, "
            f"pois={self.num_pois}, d={self.num_keywords})"
        )
