"""The ``dist_RN`` engine: Dijkstra over a CSR snapshot of the road.

Every GP-SSN phase bottoms out in road-network distances: region
materialization ``⊙(o_i, r)`` / ``⊙(o_i, 2r)``, the ``maxdist_RN(S, R)``
objective, the pivot rows, and the traversal/refinement distance
pruning. All of them are seeded SSSP sweeps, answered by
:class:`CSREngine` on a :class:`~repro.roadnet.csr.CSRGraph` snapshot:
full and bounded sweeps run on the flat-array kernel (or scipy's C
Dijkstra on larger graphs).

The engine snapshots the road network lazily and rebuilds whenever its
version counter moves, so a mutated network never serves stale
distances. :class:`~repro.roadnet.shortest_path.DistanceOracle` builds
one per road network.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from .csr import CSRGraph
from .graph import NetworkPosition, RoadNetwork
from .shortest_path import direct_edge_distance


class CSREngine:
    """Flat-array Dijkstra over a lazily (re)built CSR snapshot.

    Answers two request shapes:

    * :meth:`sssp` / :meth:`sssp_dense` — a seeded (optionally
      truncated) vertex-distance map or dense row, the workhorse behind
      cached oracle maps, pivot rows and region sweeps;
    * :meth:`point_to_point` — one exact position-to-position distance,
      with no map materialized.
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
    ) -> Dict[int, float]:
        """``vertex_id -> distance`` map from ``(vertex, d0)`` seeds."""
        return self.graph().sssp(seeds, max_distance)

    def sssp_dense(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ):
        """Dense form of :meth:`sssp` for vectorized callers.

        Returns a float64 per-vertex distance row in the road network's
        vertex iteration order (``inf`` = unreached), or ``None`` when
        the graph is below the scipy threshold — the caller then falls
        back to densifying the dict result.
        """
        # CSRGraph freezes vertices in road iteration order — the same
        # order VertexIndexer uses — so the row needs no remap.
        return self.graph().sssp_dense(seeds, max_distance)

    def _position_seeds_internal(
        self, graph: CSRGraph, pos: NetworkPosition
    ) -> List[Tuple[int, float]]:
        length = self.road.edge_length(pos.u, pos.v)
        return graph.internal_seeds(
            [(pos.u, pos.offset), (pos.v, max(length - pos.offset, 0.0))]
        )

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        """Exact ``dist_RN`` between two network positions, stopping as
        soon as both endpoints of ``pos_b``'s edge settle."""
        graph = self.graph()
        seeds = self._position_seeds_internal(graph, pos_a)
        iu = graph.index_of[pos_b.u]
        iv = graph.index_of[pos_b.v]
        dist = graph.kernel(seeds, targets={iu, iv})
        length = self.road.edge_length(pos_b.u, pos_b.v)
        inf = math.inf
        best = min(
            dist.get(iu, inf) + pos_b.offset,
            dist.get(iv, inf) + (length - pos_b.offset),
            direct_edge_distance(self.road, pos_a, pos_b),
        )
        return best

    def stats(self) -> Dict[str, float]:
        """Kernel counters (empty until the snapshot is built)."""
        if self._graph is None:
            return {}
        return {
            "kernel_runs": float(self._graph.kernel_runs),
            "scipy_runs": float(self._graph.scipy_runs),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
