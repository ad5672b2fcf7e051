"""Dataset input/output.

The paper evaluates on public datasets distributed in two de-facto
standard formats, both supported here so the reproduction can run on
the *real* data when it is available:

* :mod:`~repro.io.formats` — parsers/writers for SNAP-style social edge
  lists (Brightkite/Gowalla), SNAP-style check-in records, and
  DIMACS-style road graphs (California/Colorado);
* :mod:`~repro.io.bundle` — a self-contained JSON bundle format that
  round-trips a full :class:`~repro.network.SpatialSocialNetwork`
  (road + POIs + users + friendships) for reproducible experiments;
* :mod:`~repro.io.snapshot` — the zero-copy frozen arena: one
  page-aligned binary file holding the network and its built indexes
  (pivot tables, R*-trees), which
  :func:`~repro.io.snapshot.freeze` writes and
  :class:`~repro.io.snapshot.FrozenSnapshot` memmap-attaches in O(1),
  shared read-only across worker processes.
"""

from .bundle import load_network, save_network
from .formats import (
    load_checkins,
    load_dimacs_road,
    load_snap_social_edges,
    write_checkins,
    write_dimacs_road,
    write_snap_social_edges,
)
from .snapshot import FrozenRoadNetwork, FrozenSnapshot, freeze

__all__ = [
    "save_network",
    "load_network",
    "freeze",
    "FrozenSnapshot",
    "FrozenRoadNetwork",
    "load_snap_social_edges",
    "write_snap_social_edges",
    "load_checkins",
    "write_checkins",
    "load_dimacs_road",
    "write_dimacs_road",
]
