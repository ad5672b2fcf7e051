"""Pluggable distance engines behind ``dist_RN``.

Every GP-SSN phase bottoms out in road-network distances: region
materialization ``⊙(o_i, r)`` / ``⊙(o_i, 2r)``, the ``maxdist_RN(S, R)``
objective, and the traversal/refinement distance pruning. A
:class:`DistanceEngine` is the strategy object that answers those
requests; the implementations trade preprocessing for query speed:

``csr``
    A :class:`~repro.roadnet.csr.CSRGraph` snapshot. Full and bounded
    SSSP sweeps run on the flat-array kernel (or scipy's C Dijkstra on
    larger graphs); point-to-point queries stop as soon as both target
    endpoints settle.

``ch``
    A :class:`~repro.roadnet.ch.ContractionHierarchy` built on the CSR
    snapshot. Point-to-point ``dist_RN`` runs as a bidirectional upward
    search (microseconds after preprocessing); bounded region sweeps —
    where a truncated search is already cheap and the hierarchy cannot
    help — fall through to the CSR kernel.

Engines snapshot the road network lazily and rebuild whenever its
version counter moves, so a mutated network never serves stale
distances. Select one by name via :func:`make_engine`, the
``distance_engine`` knobs on :class:`~repro.network.SpatialSocialNetwork`
/ :class:`~repro.core.algorithm.GPSSNQueryProcessor`, or the CLI's
``--distance-engine`` flag.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from ..config import DISTANCE_ENGINES
from ..exceptions import InvalidParameterError
from .ch import ContractionHierarchy
from .csr import CSRGraph
from .graph import NetworkPosition, RoadNetwork
from .shortest_path import direct_edge_distance

#: The selectable engine names (single source of truth lives in
#: :data:`repro.config.DISTANCE_ENGINES`), in ascending preprocessing cost.
ENGINE_NAMES: Tuple[str, ...] = DISTANCE_ENGINES


class DistanceEngine:
    """Strategy interface for ``dist_RN`` computations.

    Subclasses answer two request shapes:

    * :meth:`sssp` — a seeded (optionally truncated) vertex-distance
      map, the workhorse behind cached oracle maps and region sweeps;
    * :meth:`point_to_point` — one exact position-to-position distance,
      with no map materialized.
    """

    name = "abstract"

    def __init__(self, road: RoadNetwork) -> None:
        self.road = road

    def sssp(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> Dict[int, float]:
        """``vertex_id -> distance`` map from ``(vertex, d0)`` seeds."""
        raise NotImplementedError

    def sssp_dense(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ):
        """Optional dense form of :meth:`sssp` for vectorized callers.

        Returns a float64 per-vertex distance row in the road network's
        vertex iteration order (``inf`` = unreached), or ``None`` when
        the engine has no native dense path — the caller then falls back
        to densifying the dict result. Engines whose kernels already
        produce a dense row (the scipy CSR path) override this to skip a
        dict round-trip.
        """
        return None

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        """Exact ``dist_RN`` between two network positions."""
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        """Engine-specific observability counters (may be empty)."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class CSREngine(DistanceEngine):
    """Flat-array Dijkstra over a lazily (re)built CSR snapshot."""

    name = "csr"

    def __init__(self, road: RoadNetwork) -> None:
        super().__init__(road)
        self._graph: Optional[CSRGraph] = None

    def graph(self) -> CSRGraph:
        """The CSR snapshot, rebuilt when the road network mutated."""
        if self._graph is None or self._graph.road_version != self.road.version:
            self._graph = CSRGraph(self.road)
            self._invalidate_derived()
        return self._graph

    def adopt_graph(self, graph: CSRGraph) -> None:
        """Install a pre-built (possibly memmapped) CSR snapshot.

        The caller vouches that ``graph`` images this engine's road
        network at its current version; the lazy-rebuild check keeps
        guarding against later mutations.
        """
        self._graph = graph
        self._invalidate_derived()

    def _invalidate_derived(self) -> None:
        """Hook for subclasses holding structures derived from the CSR."""

    def sssp(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> Dict[int, float]:
        return self.graph().sssp(seeds, max_distance)

    def sssp_dense(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ):
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
        if self._graph is None:
            return {}
        return {
            "kernel_runs": float(self._graph.kernel_runs),
            "scipy_runs": float(self._graph.scipy_runs),
        }


class CHEngine(CSREngine):
    """Contraction-hierarchy point-to-point on top of the CSR snapshot.

    The hierarchy is built (or adopted from a frozen arena) on
    first use and rebuilt when the road network mutates. SSSP maps and
    bounded region sweeps go to the CSR kernel — the paper's ``2r``
    sweeps are truncated searches the hierarchy cannot shortcut.
    """

    name = "ch"

    def __init__(self, road: RoadNetwork) -> None:
        super().__init__(road)
        self._ch: Optional[ContractionHierarchy] = None

    def _invalidate_derived(self) -> None:
        self._ch = None

    def adopt(self, graph: CSRGraph, ch: ContractionHierarchy) -> None:
        """Install a pre-built CSR snapshot plus its hierarchy together."""
        self.adopt_graph(graph)
        self._ch = ch

    def hierarchy(self) -> ContractionHierarchy:
        graph = self.graph()  # may invalidate a stale self._ch
        if self._ch is None:
            self._ch = ContractionHierarchy.build(graph)
        return self._ch

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        ch = self.hierarchy()
        graph = self._graph
        seeds_a = self._position_seeds_internal(graph, pos_a)
        seeds_b = self._position_seeds_internal(graph, pos_b)
        best = ch.query(seeds_a, seeds_b)
        direct = direct_edge_distance(self.road, pos_a, pos_b)
        return best if best <= direct else direct

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        if self._ch is not None:
            out.update(
                shortcuts_added=float(self._ch.shortcuts_added),
                preprocess_seconds=float(self._ch.preprocess_seconds),
                upward_settles=float(self._ch.query_settles),
            )
        return out


class LazyCHEngine(CHEngine):
    """Contraction hierarchy with *lazy* invalidation for dynamic networks.

    The eager ``ch`` engine drops its hierarchy the moment the road
    version moves, so one edge-length update forces a full re-contraction
    before the next point-to-point query. This variant keeps the stale
    hierarchy parked and stays exact by routing affected queries through
    the CSR Dijkstra kernel instead:

    * mutation sites report touched vertices via :meth:`mark_dirty`;
    * while stale, every point-to-point query is treated as affected
      (an exact per-source reachability test would cost as much as the
      fallback itself) and answered by the CSR kernel on the *current*
      graph — exact, just slower than a hierarchy hit;
    * a full rebuild is scheduled once the staleness bound is crossed —
      either ``rebuild_after`` fallback queries have paid the Dijkstra
      tax or the dirty-vertex set has grown past it — amortizing the
      re-contraction over a batch of mutations instead of paying it per
      mutation.

    Bounded SSSP sweeps already run on the CSR kernel in every CH
    engine, so they stay exact with no special handling.
    """

    name = "lazy-ch"

    #: Default staleness bound (fallback queries or dirty vertices).
    DEFAULT_REBUILD_AFTER = 64

    def __init__(
        self, road: RoadNetwork, rebuild_after: int = DEFAULT_REBUILD_AFTER
    ) -> None:
        super().__init__(road)
        if rebuild_after < 1:
            raise InvalidParameterError("rebuild_after must be >= 1")
        self.rebuild_after = rebuild_after
        self.dirty_vertices: set = set()
        self.fallback_queries = 0
        self.lazy_rebuilds = 0
        self._ch_version: Optional[int] = None

    def _invalidate_derived(self) -> None:
        # Deliberately keep the stale hierarchy parked: while
        # `_ch_version` trails the road version, point_to_point serves
        # exact answers through the CSR kernel and the re-contraction is
        # deferred to the staleness bound.
        pass

    def adopt(self, graph: CSRGraph, ch: ContractionHierarchy) -> None:
        super().adopt(graph, ch)
        self._ch_version = self.road.version

    def mark_dirty(self, *vertices: int) -> None:
        """Record road vertices touched by a mutation (edge endpoints)."""
        self.dirty_vertices.update(int(v) for v in vertices)

    @property
    def stale(self) -> bool:
        """True when a hierarchy exists but trails the road version."""
        return self._ch is not None and self._ch_version != self.road.version

    def hierarchy(self) -> ContractionHierarchy:
        graph = self.graph()
        if self._ch is None or self._ch_version != self.road.version:
            self._ch = ContractionHierarchy.build(graph)
            self._ch_version = self.road.version
            self.dirty_vertices.clear()
            self.fallback_queries = 0
        return self._ch

    def point_to_point(
        self, pos_a: NetworkPosition, pos_b: NetworkPosition
    ) -> float:
        if self.stale:
            if (
                self.fallback_queries >= self.rebuild_after
                or len(self.dirty_vertices) >= self.rebuild_after
            ):
                self.lazy_rebuilds += 1
                # fall through: hierarchy() re-contracts at this version
            else:
                self.fallback_queries += 1
                return CSREngine.point_to_point(self, pos_a, pos_b)
        return super().point_to_point(pos_a, pos_b)

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out.update(
            dirty_vertices=float(len(self.dirty_vertices)),
            fallback_queries=float(self.fallback_queries),
            lazy_rebuilds=float(self.lazy_rebuilds),
            stale=float(self.stale),
        )
        return out


def make_engine(name: str, road: RoadNetwork) -> DistanceEngine:
    """Construct a distance engine by name (see :data:`ENGINE_NAMES`)."""
    if name == "csr":
        return CSREngine(road)
    if name == "ch":
        return CHEngine(road)
    if name == "lazy-ch":
        return LazyCHEngine(road)
    raise InvalidParameterError(
        f"unknown distance engine {name!r}; expected one of {ENGINE_NAMES}"
    )
