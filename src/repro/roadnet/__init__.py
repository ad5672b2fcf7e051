"""Spatial road network substrate (Definitions 1-2 of the paper).

Public surface:

* :class:`~repro.roadnet.graph.RoadNetwork` — the weighted planar-ish graph
  of road vertices and segments;
* :class:`~repro.roadnet.graph.NetworkPosition` — a point on an edge,
  where users live and POIs sit;
* :class:`~repro.roadnet.poi.POI` — a point of interest with keywords;
* :class:`~repro.roadnet.shortest_path.DistanceOracle` — cached
  ``dist_RN`` distances between network positions;
* the ``dist_RN`` engine :class:`~repro.roadnet.engines.CSREngine`
  over the :class:`~repro.roadnet.csr.CSRGraph` snapshot.
"""

from .csr import CSRGraph
from .engines import CSREngine
from .graph import NetworkPosition, RoadNetwork
from .poi import POI
from .shortest_path import DistanceOracle, dijkstra

__all__ = [
    "RoadNetwork",
    "NetworkPosition",
    "POI",
    "DistanceOracle",
    "dijkstra",
    "CSRGraph",
    "CSREngine",
]
