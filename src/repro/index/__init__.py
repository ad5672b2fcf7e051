"""Indexing mechanisms (Section 4).

* :class:`~repro.index.rstar.RStarTree` — a from-scratch R\\*-tree
  (insert, forced reinsert, topological split) used as the spatial
  backbone of the road index;
* :class:`~repro.index.road_index.RoadIndex` — the paper's I_R: POIs in
  an R\\*-tree whose entries carry keyword supersets/subsets (as hashed
  bit vectors) and pivot-distance bounds;
* :class:`~repro.index.social_index.SocialIndex` — the paper's I_S: a
  partition tree over the social graph whose entries carry interest-space
  MBRs and pivot-distance bounds;
* :mod:`~repro.index.paging` — each index tree is held only as
  columns by page id: its shape (child pages, leaf slots, member
  counts) and its bounds, derived by segmented reductions over the
  member rows; no node objects exist;
* :mod:`~repro.index.pivots` — Algorithm 1 pivot selection with the
  swap-based local search and the cost model;
* :class:`~repro.index.pagecounter.PageAccessCounter` — the simulated
  I/O accounting used by the experiments.
"""

from .bitvector import KeywordBitVector
from .pagecounter import PageAccessCounter
from .pivots import (
    RoadPivotIndex,
    SocialPivotIndex,
    select_pivots_road,
    select_pivots_social,
)
from .road_index import RoadIndex
from .rstar import RStarTree
from .social_index import SocialIndex

__all__ = [
    "RStarTree",
    "RoadIndex",
    "SocialIndex",
    "RoadPivotIndex",
    "SocialPivotIndex",
    "select_pivots_road",
    "select_pivots_social",
    "KeywordBitVector",
    "PageAccessCounter",
]
