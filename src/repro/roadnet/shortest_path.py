"""Shortest-path machinery for road-network distances (``dist_RN``).

The paper's query processing needs three flavours of network distance:

* full single-source shortest paths from pivot vertices (built offline,
  Section 4.1);
* truncated searches around a POI to materialize the circular regions
  ``⊙(o_i, r)`` / ``⊙(o_i, 2r)`` (Section 3.1);
* point-to-point distances between arbitrary network positions (users'
  homes and POIs), served by :class:`DistanceOracle` with memoized
  per-source searches.

The searches here are plain binary-heap Dijkstra over the dict-of-dicts
adjacency; edge weights are road segment lengths. The oracle runs its
searches on the C Dijkstra of :class:`~repro.roadnet.engines.CSREngine`
and caches each as a dense row; the functions in this module stay the
reference implementation that engine is validated against.
"""

from __future__ import annotations

import heapq
import math
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..changes import LRU
from ..config import DEFAULT_DISTANCE_CACHE_SIZE
from ..exceptions import UnknownEntityError
from .csr import DenseDistanceView
from .graph import NetworkPosition, RoadNetwork


def dijkstra(
    road: RoadNetwork,
    source: int,
    max_distance: float = math.inf,
) -> Dict[int, float]:
    """Single-source shortest path distances from vertex ``source``.

    Args:
        road: the road network.
        source: starting vertex id.
        max_distance: stop expanding once settled distances exceed this
            bound (the returned map contains only vertices within it).

    Returns:
        Mapping ``vertex -> distance`` for every reachable vertex within
        ``max_distance``.
    """
    if not road.has_vertex(source):
        raise UnknownEntityError(f"unknown road vertex {source}")
    return multi_source_dijkstra(road, [(source, 0.0)], max_distance)


def multi_source_dijkstra(
    road: RoadNetwork,
    sources: Iterable[Tuple[int, float]],
    max_distance: float = math.inf,
) -> Dict[int, float]:
    """Dijkstra from several ``(vertex, initial_distance)`` seeds.

    The multi-seed form lets a search start *on an edge*: a network
    position ``(u, v, offset)`` seeds ``u`` with ``offset`` and ``v`` with
    ``edge_length - offset``.
    """
    dist: Dict[int, float] = {}
    heap: List[Tuple[float, int]] = []
    for vertex, d0 in sources:
        if not road.has_vertex(vertex):
            raise UnknownEntityError(f"unknown road vertex {vertex}")
        if d0 <= max_distance and d0 < dist.get(vertex, math.inf):
            dist[vertex] = d0
            heapq.heappush(heap, (d0, vertex))
    settled: set = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled or d > dist.get(node, math.inf):
            continue
        settled.add(node)
        for nbr, length in road.neighbors(node).items():
            nd = d + length
            if nd <= max_distance and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def position_seeds(
    road: RoadNetwork, pos: NetworkPosition
) -> List[Tuple[int, float]]:
    """Dijkstra seeds for a position on edge ``(u, v)`` at ``offset``."""
    length = road.edge_length(pos.u, pos.v)
    return [(pos.u, pos.offset), (pos.v, max(length - pos.offset, 0.0))]


def direct_edge_distance(
    road: RoadNetwork,
    pos_a: NetworkPosition,
    pos_b: NetworkPosition,
) -> float:
    """Along-edge walking distance between two positions on one edge.

    Returns ``math.inf`` when the positions do not share an edge. Edge
    orientation is normalized once: ``pos_a``'s offset is re-measured
    from ``pos_b.u`` when the two positions name the endpoints in
    opposite order. A self-loop edge (``u == v``) leaves the offset
    direction ambiguous, so both ways around the loop are considered.
    """
    if frozenset((pos_a.u, pos_a.v)) != frozenset((pos_b.u, pos_b.v)):
        return math.inf
    length = road.edge_length(pos_b.u, pos_b.v)
    if pos_b.u == pos_b.v:
        delta = abs(pos_a.offset - pos_b.offset)
        return min(delta, length - delta)
    a = pos_a.offset if pos_a.u == pos_b.u else length - pos_a.offset
    return abs(a - pos_b.offset)


class VertexIndexer:
    """A dense ``0..n-1`` remap of road vertex ids (iteration order).

    The vectorized refinement kernels replace per-vertex dict lookups
    with array gathers; this is the shared id <-> index contract. The
    order is ``list(road.vertices())`` — identical to the order
    :class:`~repro.roadnet.csr.CSRGraph` freezes, so the engine's dense
    rows line up without a remap.
    """

    __slots__ = ("ids", "index_of", "size", "road_version")

    def __init__(self, road: RoadNetwork) -> None:
        self.ids: List[int] = list(road.vertices())
        self.index_of: Dict[int, int] = {
            vid: i for i, vid in enumerate(self.ids)
        }
        self.size = len(self.ids)
        self.road_version = road.version


class PositionArrays:
    """Array image of a sequence of network positions.

    Mirrors :func:`position_distance_from_map` over the whole sequence
    at once: given a dense vertex-distance vector, the distance to every
    position is one fused gather/min expression. The same-edge
    correction (the scalar function's ``source_pos`` branch) stays
    scalar but only runs for the — typically zero or one — positions
    sharing the source's edge. The sequence grows at its end
    (:meth:`extend`) and an entry can be rewritten in place
    (:meth:`replace`).
    """

    __slots__ = (
        "positions", "u_idx", "v_idx", "offset", "rem",
        "edge_min", "edge_max",
    )

    def __init__(
        self,
        road: RoadNetwork,
        indexer: VertexIndexer,
        positions: Sequence[NetworkPosition],
    ) -> None:
        self.positions: List[NetworkPosition] = list(positions)
        (
            self.u_idx, self.v_idx, self.offset, self.rem,
            self.edge_min, self.edge_max,
        ) = self._encode(road, indexer, self.positions)

    @staticmethod
    def _encode(
        road: RoadNetwork,
        indexer: VertexIndexer,
        positions: Sequence[NetworkPosition],
    ) -> Tuple[np.ndarray, ...]:
        n = len(positions)
        u_idx = np.empty(n, dtype=np.int64)
        v_idx = np.empty(n, dtype=np.int64)
        offset = np.empty(n, dtype=np.float64)
        rem = np.empty(n, dtype=np.float64)
        edge_min = np.empty(n, dtype=np.int64)
        edge_max = np.empty(n, dtype=np.int64)
        index_of = indexer.index_of
        for i, pos in enumerate(positions):
            length = road.edge_length(pos.u, pos.v)
            u_idx[i] = index_of[pos.u]
            v_idx[i] = index_of[pos.v]
            offset[i] = pos.offset
            rem[i] = length - pos.offset
            edge_min[i] = min(pos.u, pos.v)
            edge_max[i] = max(pos.u, pos.v)
        return u_idx, v_idx, offset, rem, edge_min, edge_max

    def __len__(self) -> int:
        return len(self.positions)

    def extend(
        self,
        road: RoadNetwork,
        indexer: VertexIndexer,
        positions: Sequence[NetworkPosition],
    ) -> None:
        """Append ``positions`` after the current entries."""
        tail = self._encode(road, indexer, positions)
        self.positions.extend(positions)
        for name, column in zip(self.__slots__[1:], tail):
            setattr(
                self, name, np.concatenate((getattr(self, name), column))
            )

    def replace(
        self,
        i: int,
        road: RoadNetwork,
        indexer: VertexIndexer,
        position: NetworkPosition,
    ) -> None:
        """Rewrite entry ``i`` as ``position``."""
        self.positions[i] = position
        for name, column in zip(
            self.__slots__[1:], self._encode(road, indexer, [position])
        ):
            getattr(self, name)[i] = column[0]

    def distances_from_dense(
        self,
        road: RoadNetwork,
        dense: np.ndarray,
        source_pos: Optional[NetworkPosition] = None,
        start: int = 0,
    ) -> np.ndarray:
        """Distance to every position from ``start`` on, given dense
        vertex distances.

        Bitwise-identical to calling :func:`position_distance_from_map`
        per position: the per-element expression is the same IEEE
        ``min(d[u] + offset, d[v] + (len - offset))``, and the same-edge
        correction applies :func:`direct_edge_distance` to exactly the
        positions the scalar branch would.
        """
        u_idx, v_idx, offset, rem = self.u_idx, self.v_idx, self.offset, self.rem
        edge_min, edge_max = self.edge_min, self.edge_max
        if start:
            u_idx, v_idx, offset, rem = (
                u_idx[start:], v_idx[start:], offset[start:], rem[start:]
            )
            edge_min, edge_max = edge_min[start:], edge_max[start:]
        best = np.minimum(dense[u_idx] + offset, dense[v_idx] + rem)
        if source_pos is not None:
            a, b = source_pos.u, source_pos.v
            if a > b:
                a, b = b, a
            mask = (edge_min == a) & (edge_max == b)
            if mask.any():
                for i in np.flatnonzero(mask):
                    direct = direct_edge_distance(
                        road, source_pos, self.positions[start + i]
                    )
                    if direct < best[i]:
                        best[i] = direct
        return best


def position_distance_from_map(
    road: RoadNetwork,
    dist_map: Dict[int, float],
    pos: NetworkPosition,
    source_pos: Optional[NetworkPosition] = None,
) -> float:
    """Distance to ``pos`` given vertex distances ``dist_map`` from a source.

    The distance to an on-edge position is the best of reaching either
    endpoint and walking along the edge. When ``source_pos`` lies on the
    *same* edge, the direct along-edge walk is also considered (the
    vertex detour may overestimate it); see :func:`direct_edge_distance`
    for the orientation/self-loop handling.
    """
    length = road.edge_length(pos.u, pos.v)
    via_u = dist_map.get(pos.u, math.inf) + pos.offset
    via_v = dist_map.get(pos.v, math.inf) + (length - pos.offset)
    best = min(via_u, via_v)
    if source_pos is not None:
        best = min(best, direct_edge_distance(road, source_pos, pos))
    return best


class DistanceOracle:
    """Memoized point-to-point road-network distances.

    Runs one search per distinct source position and caches the
    resulting dense vertex-distance view under a caller-supplied key
    (usually the user/POI id), evicting least-recently-used entries
    beyond ``cache_size`` (``None`` picks
    :data:`repro.config.DEFAULT_DISTANCE_CACHE_SIZE`).

    The search itself runs on the oracle's own
    :class:`~repro.roadnet.engines.CSREngine` (``self.engine``).
    """

    def __init__(
        self,
        road: RoadNetwork,
        cache_size: Optional[int] = None,
    ) -> None:
        from .engines import CSREngine  # deferred: engines imports us

        self.road = road
        self.cache_size = (
            DEFAULT_DISTANCE_CACHE_SIZE if cache_size is None else cache_size
        )
        self.engine = CSREngine(road)
        self._cache = LRU()  # key -> DenseDistanceView
        self._indexer: Optional[VertexIndexer] = None
        self._road_version = road.version
        #: number of full searches actually executed (for tests/benchmarks)
        self.searches_run = 0
        #: lookups served from the cache without a search; together with
        #: ``searches_run`` this is the oracle's hit/miss breakdown, which
        #: the query processor snapshots per query for its metrics
        self.cache_hits = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of map requests served from the cache (0 when idle)."""
        total = self.searches_run + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def vertex_indexer(self) -> VertexIndexer:
        """The dense vertex remap for this road network (version-checked)."""
        indexer = self._indexer
        if indexer is None or indexer.road_version != self.road.version:
            indexer = self._indexer = VertexIndexer(self.road)
        return indexer

    def _lookup(
        self, key: Hashable, pos: NetworkPosition
    ) -> DenseDistanceView:
        """The cached view for ``key``, or one engine search from ``pos``."""
        self._check_road_version()
        cached = self._cache.hit(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        view = self.engine.sssp(position_seeds(self.road, pos))
        self.searches_run += 1
        self._cache.put(key, view, self.cache_size)
        return view

    def distances_from(
        self, key: Hashable, pos: NetworkPosition
    ) -> DenseDistanceView:
        """Vertex-distance view from ``pos``, cached under ``key``."""
        return self._lookup(key, pos)

    def dense_distances_from(
        self, key: Hashable, pos: NetworkPosition
    ) -> np.ndarray:
        """Dense (indexer-order) vertex distances from ``pos``.

        The ``row`` of the view :meth:`distances_from` returns: one cache
        and one hit/miss count serve both.
        """
        return self._lookup(key, pos).row

    def distance(
        self,
        key_a: Hashable,
        pos_a: NetworkPosition,
        pos_b: NetworkPosition,
    ) -> float:
        """``dist_RN`` between two network positions.

        The search tree is rooted at ``pos_a`` (cached under ``key_a``);
        ``pos_b`` only needs the endpoint lookups, so many targets
        sharing a source amortize the cached map.
        """
        dist_map = self.distances_from(key_a, pos_a)
        return position_distance_from_map(self.road, dist_map, pos_b, pos_a)

    def _check_road_version(self) -> None:
        """Drop every cached map once the road graph has changed."""
        if self._road_version != self.road.version:
            self.clear()
            self._road_version = self.road.version

    def forget(self, key: Hashable) -> None:
        """Drop the map cached under ``key`` (its source moved or left)."""
        self._cache.pop(key, None)

    def clear(self) -> None:
        self._cache.clear()
