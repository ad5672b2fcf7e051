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
searches on the CSR array kernel of
:class:`~repro.roadnet.engines.CSREngine`; the functions in this module
stay the reference implementation that engine is validated against.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
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

from ..config import DEFAULT_DISTANCE_CACHE_SIZE
from ..exceptions import UnknownEntityError
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
    :class:`~repro.roadnet.csr.CSRGraph` freezes, so dense rows coming
    out of the scipy Dijkstra path line up without a remap.
    """

    __slots__ = ("ids", "index_of", "size", "road_version", "_identity")

    def __init__(self, road: RoadNetwork) -> None:
        self.ids: List[int] = list(road.vertices())
        self.index_of: Dict[int, int] = {
            vid: i for i, vid in enumerate(self.ids)
        }
        self.size = len(self.ids)
        self.road_version = road.version
        # Synthetic datasets label vertices 0..n-1 already; when the id
        # space is dense the keys of a distance map can be used as
        # indices directly, skipping the per-key dict hop.
        self._identity = all(vid == i for i, vid in enumerate(self.ids))

    def dense_distances(self, dist_map: Dict[int, float]) -> np.ndarray:
        """``dist_map`` as a float64 array in indexer order (inf = absent)."""
        arr = np.full(self.size, math.inf, dtype=np.float64)
        n = len(dist_map)
        if not n:
            return arr
        if self._identity:
            idx = np.fromiter(dist_map.keys(), dtype=np.int64, count=n)
        else:
            index_of = self.index_of
            idx = np.fromiter(
                (index_of[v] for v in dist_map), dtype=np.int64, count=n
            )
        arr[idx] = np.fromiter(dist_map.values(), dtype=np.float64, count=n)
        return arr


class PositionArrays:
    """Array image of a fixed sequence of network positions.

    Mirrors :func:`position_distance_from_map` over the whole sequence
    at once: given a dense vertex-distance vector, the distance to every
    position is one fused gather/min expression. The same-edge
    correction (the scalar function's ``source_pos`` branch) stays
    scalar but only runs for the — typically zero or one — positions
    sharing the source's edge.
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
        n = len(positions)
        self.positions: Tuple[NetworkPosition, ...] = tuple(positions)
        self.u_idx = np.empty(n, dtype=np.int64)
        self.v_idx = np.empty(n, dtype=np.int64)
        self.offset = np.empty(n, dtype=np.float64)
        self.rem = np.empty(n, dtype=np.float64)
        self.edge_min = np.empty(n, dtype=np.int64)
        self.edge_max = np.empty(n, dtype=np.int64)
        index_of = indexer.index_of
        for i, pos in enumerate(positions):
            length = road.edge_length(pos.u, pos.v)
            self.u_idx[i] = index_of[pos.u]
            self.v_idx[i] = index_of[pos.v]
            self.offset[i] = pos.offset
            self.rem[i] = length - pos.offset
            if pos.u <= pos.v:
                self.edge_min[i] = pos.u
                self.edge_max[i] = pos.v
            else:
                self.edge_min[i] = pos.v
                self.edge_max[i] = pos.u

    def __len__(self) -> int:
        return len(self.positions)

    def distances_from_dense(
        self,
        road: RoadNetwork,
        dense: np.ndarray,
        source_pos: Optional[NetworkPosition] = None,
    ) -> np.ndarray:
        """Distance to every position given dense vertex distances.

        Bitwise-identical to calling :func:`position_distance_from_map`
        per position: the per-element expression is the same IEEE
        ``min(d[u] + offset, d[v] + (len - offset))``, and the same-edge
        correction applies :func:`direct_edge_distance` to exactly the
        positions the scalar branch would.
        """
        best = np.minimum(
            dense[self.u_idx] + self.offset, dense[self.v_idx] + self.rem
        )
        if source_pos is not None:
            a, b = source_pos.u, source_pos.v
            if a > b:
                a, b = b, a
            mask = (self.edge_min == a) & (self.edge_max == b)
            if mask.any():
                for i in np.flatnonzero(mask):
                    direct = direct_edge_distance(
                        road, source_pos, self.positions[i]
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
    resulting vertex-distance map under a caller-supplied key (usually
    the user/POI id), evicting least-recently-used entries beyond
    ``cache_size`` (``None`` picks
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
        self._cache: "OrderedDict[Hashable, Dict[int, float]]" = OrderedDict()
        # Dense companions to cached maps, for the vectorized kernels:
        # key -> (dict the row was built from, float64 row in indexer
        # order). The dict reference guards staleness — when the main
        # LRU replaces an entry, the identity check fails and the row is
        # rebuilt.
        self._dense_cache: Dict[
            Hashable, Tuple[Dict[int, float], np.ndarray]
        ] = {}
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
            self._dense_cache.clear()
        return indexer

    def distances_from(
        self, key: Hashable, pos: NetworkPosition
    ) -> Dict[int, float]:
        """Vertex-distance map from ``pos``, cached under ``key``."""
        self._check_road_version()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            return cached
        dist_map = self.engine.sssp(position_seeds(self.road, pos))
        self.searches_run += 1
        self._cache[key] = dist_map
        if len(self._cache) > self.cache_size:
            evicted_key, _ = self._cache.popitem(last=False)
            self._dense_cache.pop(evicted_key, None)
        return dist_map

    def dense_distances_from(
        self, key: Hashable, pos: NetworkPosition
    ) -> np.ndarray:
        """Dense (indexer-order) vertex distances from ``pos``.

        Shares the dict cache and hit/miss accounting with
        :meth:`distances_from` — a dense request for a cached source is
        a cache hit, a miss runs exactly one engine search — and keeps a
        dense side-row per cached entry. When the engine's map is a
        dense-row view (the scipy CSR path), its row is reused directly
        — no marshalling pass in either direction.
        """
        self._check_road_version()
        indexer = self.vertex_indexer()
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.cache_hits += 1
            dense_entry = self._dense_cache.get(key)
            if dense_entry is not None and dense_entry[0] is cached:
                return dense_entry[1]
            row = getattr(cached, "row", None)
            if row is None:
                row = indexer.dense_distances(cached)
            self._dense_cache[key] = (cached, row)
            return row
        seeds = position_seeds(self.road, pos)
        dist_map = self.engine.sssp(seeds)
        # The scipy CSR path hands back a dense-row view (internal order
        # == indexer order, the invariant sssp_dense already relies on):
        # the row doubles as the dense companion with no marshalling.
        row = getattr(dist_map, "row", None)
        if row is None:
            row = indexer.dense_distances(dist_map)
        self.searches_run += 1
        self._cache[key] = dist_map
        self._dense_cache[key] = (dist_map, row)
        if len(self._cache) > self.cache_size:
            evicted_key, _ = self._cache.popitem(last=False)
            self._dense_cache.pop(evicted_key, None)
        return row

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
        self._dense_cache.pop(key, None)

    def clear(self) -> None:
        self._cache.clear()
        self._dense_cache.clear()


def bidirectional_dijkstra(
    road: RoadNetwork,
    source: int,
    target: int,
) -> float:
    """Point-to-point shortest distance via bidirectional search.

    Expands two Dijkstra frontiers (from ``source`` and ``target``)
    alternately, stopping once the sum of the two settled radii exceeds
    the best meeting-point distance found — the classic optimality
    condition. Returns ``math.inf`` when the vertices are disconnected.

    Roughly halves the settled vertex count versus a unidirectional
    search on road-like graphs; used where a single point-to-point
    distance is needed without wanting the full SSSP map.
    """
    if not road.has_vertex(source):
        raise UnknownEntityError(f"unknown road vertex {source}")
    if not road.has_vertex(target):
        raise UnknownEntityError(f"unknown road vertex {target}")
    if source == target:
        return 0.0

    dist_f: Dict[int, float] = {source: 0.0}
    dist_b: Dict[int, float] = {target: 0.0}
    heap_f: List[Tuple[float, int]] = [(0.0, source)]
    heap_b: List[Tuple[float, int]] = [(0.0, target)]
    settled_f: set = set()
    settled_b: set = set()
    best = math.inf

    def relax(
        heap: List[Tuple[float, int]],
        dist: Dict[int, float],
        settled: set,
        other_dist: Dict[int, float],
    ) -> float:
        """Settle one vertex on one side; returns its distance (or inf)."""
        nonlocal best
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled or d > dist.get(node, math.inf):
                continue
            settled.add(node)
            for nbr, length in road.neighbors(node).items():
                nd = d + length
                if nd < dist.get(nbr, math.inf):
                    dist[nbr] = nd
                    heapq.heappush(heap, (nd, nbr))
                if nbr in other_dist:
                    meeting = nd + other_dist[nbr]
                    if meeting < best:
                        best = meeting
            if node in other_dist:
                meeting = d + other_dist[node]
                if meeting < best:
                    best = meeting
            return d
        return math.inf

    radius_f = radius_b = 0.0
    while heap_f or heap_b:
        if radius_f + radius_b >= best:
            break
        if (heap_f and not heap_b) or (
            heap_f and heap_b and heap_f[0][0] <= heap_b[0][0]
        ):
            radius_f = relax(heap_f, dist_f, settled_f, dist_b)
        elif heap_b:
            radius_b = relax(heap_b, dist_b, settled_b, dist_f)
        else:
            break
    return best
