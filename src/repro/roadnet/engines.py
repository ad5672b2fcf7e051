"""The ``dist_RN`` engine: C Dijkstra over a CSR snapshot of the road.

Every GP-SSN phase bottoms out in road-network distances: region
materialization ``⊙(o_i, r)`` / ``⊙(o_i, 2r)``, the ``maxdist_RN(S, R)``
objective, the pivot rows, and the traversal/refinement distance
pruning. All of them are seeded SSSP sweeps, answered by
:class:`CSREngine` on a :class:`~repro.roadnet.csr.CSRGraph` snapshot:
every full or bounded sweep is one scipy C Dijkstra and yields a dense
per-vertex row.

The engine snapshots the road network lazily and rebuilds whenever its
version counter moves, so a mutated network never serves stale
distances. :class:`~repro.roadnet.shortest_path.DistanceOracle` builds
one per road network.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .csr import CSRGraph, DenseDistanceView
from .graph import NetworkPosition, RoadNetwork
from .shortest_path import position_distance_from_map, position_seeds


class CSREngine:
    """C Dijkstra over a lazily (re)built CSR snapshot.

    Answers two request shapes:

    * :meth:`sssp` / :meth:`sssp_dense` — a seeded (optionally
      truncated) vertex-distance view or dense row, the workhorse behind
      cached oracle maps, pivot rows and region sweeps;
    * :meth:`point_to_point` — one exact position-to-position distance.
    """

    name = "csr"

    def __init__(self, road: RoadNetwork) -> None:
        self.road = road
        self._graph: Optional[CSRGraph] = None

    def graph(self) -> CSRGraph:
        """The CSR snapshot, rebuilt when the road network mutated."""
        if self._graph is None or self._graph.road_version != self.road.version:
            self._graph = CSRGraph(self.road)
        return self._graph

    def adopt_graph(self, graph: CSRGraph) -> None:
        """Install a pre-built (possibly memmapped) CSR snapshot.

        The caller vouches that ``graph`` images this engine's road
        network at its current version; the lazy-rebuild check keeps
        guarding against later mutations.
        """
        self._graph = graph

    def sssp(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> DenseDistanceView:
        """``vertex_id -> distance`` view from ``(vertex, d0)`` seeds."""
        return self.graph().sssp(seeds, max_distance)

    def sssp_dense(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> np.ndarray:
        """Dense form of :meth:`sssp` for vectorized callers.

        Returns a float64 per-vertex distance row in the road network's
        vertex iteration order (``inf`` = unreached).
        """
        # CSRGraph freezes vertices in road iteration order — the same
        # order VertexIndexer uses — so the row needs no remap.
        return self.graph().sssp_dense(seeds, max_distance)

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        """Exact ``dist_RN`` between two network positions: one seeded
        search from ``pos_a``, read at ``pos_b``'s edge endpoints."""
        dist = self.graph().sssp(position_seeds(self.road, pos_a))
        return position_distance_from_map(self.road, dist, pos_b, pos_a)

    def stats(self) -> Dict[str, float]:
        """Search counters (empty until the snapshot is built)."""
        if self._graph is None:
            return {}
        return {"scipy_runs": float(self._graph.scipy_runs)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
