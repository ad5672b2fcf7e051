"""Road network graph model (Definition 1).

A :class:`RoadNetwork` is an undirected weighted graph whose vertices are
road intersections with 2D coordinates and whose edges are road segments.
Entities (users' homes, POIs) do not live on vertices but *on edges*, at a
:class:`NetworkPosition` — an ``(u, v, offset)`` triple meaning "``offset``
length units from vertex ``u`` along edge ``(u, v)``".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..exceptions import GraphConstructionError, UnknownEntityError
from ..geometry import Point


@dataclass(frozen=True)
class NetworkPosition:
    """A location on a road edge.

    ``offset`` is measured from ``u`` toward ``v`` and must lie within
    ``[0, edge_length]``. A position with ``offset == 0`` coincides with
    vertex ``u``; ``offset == edge_length`` coincides with ``v``.
    """

    u: int
    v: int
    offset: float

    def endpoints(self) -> Tuple[int, int]:
        return (self.u, self.v)


class RoadNetwork:
    """An undirected, weighted spatial road network.

    Vertices carry 2D coordinates; edge weights default to the Euclidean
    distance between endpoints (roads are drawn as straight segments).
    """

    def __init__(self) -> None:
        self._coords: Dict[int, Point] = {}
        self._adj: Dict[int, Dict[int, float]] = {}
        self._num_edges = 0
        #: bumped on every mutation so indexes can detect staleness
        self.version = 0

    # -- construction ------------------------------------------------------

    def add_vertex(self, vertex_id: int, x: float, y: float) -> None:
        """Add an intersection vertex at ``(x, y)``.

        Raises :class:`GraphConstructionError` on duplicate identifiers.
        """
        if vertex_id in self._coords:
            raise GraphConstructionError(f"duplicate vertex id {vertex_id}")
        self._coords[vertex_id] = Point(float(x), float(y))
        self._adj[vertex_id] = {}
        self.version += 1

    def add_edge(self, u: int, v: int, length: Optional[float] = None) -> None:
        """Add a road segment between vertices ``u`` and ``v``.

        ``length`` defaults to the Euclidean distance between the
        endpoints. Self loops, missing endpoints, and non-positive lengths
        are rejected; re-adding an existing edge is rejected as a duplicate.
        """
        if u == v:
            raise GraphConstructionError(f"self loop on vertex {u}")
        for w in (u, v):
            if w not in self._coords:
                raise GraphConstructionError(f"edge references unknown vertex {w}")
        if v in self._adj[u]:
            raise GraphConstructionError(f"duplicate edge ({u}, {v})")
        if length is None:
            length = self._coords[u].distance_to(self._coords[v])
            # Coincident vertices would make a zero-length road; use a tiny
            # positive epsilon so Dijkstra stays well-defined.
            length = max(length, 1e-9)
        if length <= 0:
            raise GraphConstructionError(
                f"edge ({u}, {v}) has non-positive length {length}"
            )
        self._adj[u][v] = float(length)
        self._adj[v][u] = float(length)
        self._num_edges += 1
        self.version += 1

    # -- accessors ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._coords)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def average_degree(self) -> float:
        """Mean vertex degree (2|E| / |V|); 0 for an empty graph."""
        if not self._coords:
            return 0.0
        return 2.0 * self._num_edges / len(self._coords)

    def vertices(self) -> Iterator[int]:
        return iter(self._coords)

    def has_vertex(self, vertex_id: int) -> bool:
        return vertex_id in self._coords

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def coords(self, vertex_id: int) -> Point:
        try:
            return self._coords[vertex_id]
        except KeyError:
            raise UnknownEntityError(f"unknown road vertex {vertex_id}") from None

    def neighbors(self, vertex_id: int) -> Dict[int, float]:
        """Mapping ``neighbor -> edge length`` for ``vertex_id``."""
        try:
            return self._adj[vertex_id]
        except KeyError:
            raise UnknownEntityError(f"unknown road vertex {vertex_id}") from None

    def edge_length(self, u: int, v: int) -> float:
        try:
            return self._adj[u][v]
        except KeyError:
            raise UnknownEntityError(f"unknown road edge ({u}, {v})") from None

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, length)`` with u < v."""
        for u, nbrs in self._adj.items():
            for v, length in nbrs.items():
                if u < v:
                    yield (u, v, length)

    # -- positions on edges --------------------------------------------------

    def validate_position(self, pos: NetworkPosition) -> None:
        """Raise unless ``pos`` denotes a real point on a real edge."""
        length = self.edge_length(pos.u, pos.v)
        if not 0.0 <= pos.offset <= length + 1e-9:
            raise GraphConstructionError(
                f"offset {pos.offset} outside [0, {length}] on edge "
                f"({pos.u}, {pos.v})"
            )

    def position_coords(self, pos: NetworkPosition) -> Point:
        """Interpolated 2D coordinates of a network position."""
        length = self.edge_length(pos.u, pos.v)
        a = self._coords[pos.u]
        b = self._coords[pos.v]
        t = 0.0 if length == 0 else min(max(pos.offset / length, 0.0), 1.0)
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def nearest_vertex(self, x: float, y: float) -> int:
        """Identifier of the vertex closest (Euclidean) to ``(x, y)``.

        Linear scan; intended for data generation, not hot query paths.
        """
        if not self._coords:
            raise UnknownEntityError("road network has no vertices")
        best_id, best_d = -1, math.inf
        for vid, pt in self._coords.items():
            d = (pt.x - x) ** 2 + (pt.y - y) ** 2
            if d < best_d:
                best_id, best_d = vid, d
        return best_id

    # -- connectivity --------------------------------------------------------

    def connected_component(self, start: int) -> List[int]:
        """Vertices reachable from ``start`` (including ``start``)."""
        if start not in self._adj:
            raise UnknownEntityError(f"unknown road vertex {start}")
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in self._adj[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return sorted(seen)

    def is_connected(self) -> bool:
        if self.num_vertices <= 1:
            return True
        first = next(iter(self._coords))
        return len(self.connected_component(first)) == self.num_vertices

    def __repr__(self) -> str:
        return (
            f"RoadNetwork(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"deg={self.average_degree():.2f})"
        )
