"""Compressed-sparse-row snapshot of a road network + its C Dijkstra.

The dict-of-dicts adjacency of :class:`~repro.roadnet.graph.RoadNetwork`
is ideal for construction, validation, and mutation, but a search over
it pays for every hashed vertex id and pointer chase.
:class:`CSRGraph` freezes the adjacency into three flat arrays —
``indptr``, ``indices``, ``weights``, the standard compressed-sparse-row
layout — with a dense ``0..n-1`` remap of vertex ids, and hands every
search to ``scipy.sparse.csgraph.dijkstra``'s C implementation. A
seeded search — a network position starts from both edge endpoints,
``(u, offset)`` and ``(v, len - offset)`` — is one C search from a
virtual source vertex ``n`` whose out-edges are the seeds, so its row
equals the reference
:func:`~repro.roadnet.shortest_path.multi_source_dijkstra` bit for bit.

The snapshot records the road network's version counter at build time;
:class:`~repro.roadnet.engines.CSREngine` rebuilds it lazily when the
underlying graph mutates.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Mapping
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from ..exceptions import UnknownEntityError
from .graph import RoadNetwork


class SortedIdIndex:
    """Dict-like ``vertex_id -> internal_index`` over a sorted id array.

    Borrowed (memmapped) graphs keep their ids as a strictly ascending
    numpy array; building an n-entry dict on attach would defeat the
    O(1) open, so lookups binary-search the array instead. Implements
    the subset of the dict protocol the engine and seed translation
    actually use.
    """

    __slots__ = ("_ids",)

    def __init__(self, ids: np.ndarray) -> None:
        self._ids = ids

    def __getitem__(self, vid: int) -> int:
        pos = int(np.searchsorted(self._ids, vid))
        if pos >= len(self._ids) or int(self._ids[pos]) != vid:
            raise KeyError(vid)
        return pos

    def get(self, vid: int, default=None):
        try:
            return self[vid]
        except KeyError:
            return default

    def __contains__(self, vid: int) -> bool:
        return self.get(vid) is not None

    def __len__(self) -> int:
        return len(self._ids)


class DenseDistanceView(Mapping):
    """Dict-like view of one dense SSSP row (``vertex_id -> distance``).

    Materializing an n-entry Python dict per search is the single
    biggest cost of a full-graph SSSP on large networks, yet consumers
    (``position_distance_from_map``, the oracle cache) probe only a few
    vertices per map. The view answers ``get``/``[]``/``in`` straight
    from the float64 row; unreached vertices (``inf``) read as absent,
    matching the dict the reference Dijkstra returns. Iteration walks the
    reachable vertices only, so bounded searches stay proportional to
    the searched neighbourhood. ``row`` exposes the dense array for
    vectorized consumers (internal-index order, ``inf`` = unreached)
    and ``ids`` the vertex id at each row position.
    """

    __slots__ = ("row", "ids", "_index")

    def __init__(self, ids, index, row: np.ndarray) -> None:
        self.row = row
        self.ids = ids
        self._index = index

    def __getitem__(self, vid: int) -> float:
        idx = self._index.get(vid)
        if idx is None:
            raise KeyError(vid)
        d = self.row[idx]
        if not math.isfinite(d):
            raise KeyError(vid)
        return float(d)

    def get(self, vid: int, default=None):
        idx = self._index.get(vid)
        if idx is None:
            return default
        d = self.row[idx]
        return float(d) if math.isfinite(d) else default

    def __contains__(self, vid: int) -> bool:
        return self.get(vid) is not None

    def _finite(self) -> np.ndarray:
        return np.flatnonzero(np.isfinite(self.row))

    def __len__(self) -> int:
        return int(self._finite().size)

    def __iter__(self):
        ids = self.ids
        for i in self._finite().tolist():
            yield int(ids[i])

    def items(self):
        ids, row = self.ids, self.row
        return (
            (int(ids[i]), float(row[i])) for i in self._finite().tolist()
        )


class CSRGraph:
    """An immutable CSR image of a :class:`RoadNetwork`.

    Vertex ids are remapped to dense internal indices ``0..n-1`` in the
    road network's iteration order; ``ids[i]`` recovers the original id
    and ``index_of`` maps back.
    """

    __slots__ = (
        "ids", "_index_of", "indptr", "indices", "weights",
        "road_version", "_sp_matrix", "_sp_lock", "scipy_runs",
    )

    def __init__(self, road: RoadNetwork) -> None:
        ids: List[int] = list(road.vertices())
        index_of: Dict[int, int] = {vid: i for i, vid in enumerate(ids)}
        n = len(ids)
        indptr: List[int] = [0] * (n + 1)
        for i, vid in enumerate(ids):
            indptr[i + 1] = indptr[i] + len(road.neighbors(vid))
        m = indptr[n]
        indices: List[int] = [0] * m
        weights: List[float] = [0.0] * m
        pos = 0
        for vid in ids:
            for nbr, w in road.neighbors(vid).items():
                indices[pos] = index_of[nbr]
                weights[pos] = w
                pos += 1
        self.ids = ids
        self._index_of = index_of
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.road_version = road.version
        self._sp_matrix = None
        self._sp_lock = threading.Lock()
        #: number of C searches run (for tests/benchmarks)
        self.scipy_runs = 0

    @classmethod
    def from_arrays(
        cls,
        ids,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
        road_version: int = 0,
    ) -> "CSRGraph":
        """Wrap borrowed (read-only, possibly memmapped) CSR arrays.

        Nothing is copied and no per-vertex Python structures are built:
        the id index is materialized lazily on first need, so attaching
        a memmapped graph is O(1) regardless of size.
        """
        graph = cls.__new__(cls)
        graph.ids = ids
        graph._index_of = None
        graph.indptr = indptr
        graph.indices = indices
        graph.weights = weights
        graph.road_version = road_version
        graph._sp_matrix = None
        graph._sp_lock = threading.Lock()
        graph.scipy_runs = 0
        return graph

    @property
    def index_of(self):
        """``vertex_id -> internal_index`` (dict, or a binary-search
        facade over the id array when ids are sorted borrowed arrays)."""
        if self._index_of is None:
            arr = np.asarray(self.ids, dtype=np.int64)
            if arr.size > 1 and bool(np.all(arr[1:] > arr[:-1])):
                self._index_of = SortedIdIndex(arr)
            else:
                self._index_of = {
                    int(vid): i for i, vid in enumerate(self.ids)
                }
        return self._index_of

    # -- pickling (batch workers ship CSR state inside network snapshots) ----

    def __getstate__(self) -> Dict[str, object]:
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot != "_sp_lock"
        }
        # The scipy matrix is derived state: building it again is
        # cheap, and dropping it keeps snapshots lean.
        state["_sp_matrix"] = None
        # Borrowed/memmapped arrays must not leak into pickles — the
        # receiving process may not be able to re-open the backing file,
        # and np.memmap pickles by absolute path. Own everything.
        for key in ("indptr", "indices", "weights"):
            state[key] = np.ascontiguousarray(state[key])
        if not isinstance(state["ids"], list):
            state["ids"] = [int(i) for i in state["ids"]]
            state["_index_of"] = None  # rebuilt lazily on the other side
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._sp_lock = threading.Lock()

    # -- shape ---------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def __repr__(self) -> str:
        return (
            f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"version={self.road_version})"
        )

    # -- seed handling -------------------------------------------------------

    def internal_seeds(
        self, seeds: Iterable[Tuple[int, float]]
    ) -> List[Tuple[int, float]]:
        """Translate ``(vertex_id, d0)`` seeds to internal indices."""
        out: List[Tuple[int, float]] = []
        for vid, d0 in seeds:
            try:
                out.append((self.index_of[vid], d0))
            except KeyError:
                raise UnknownEntityError(f"unknown road vertex {vid}") from None
        return out

    # -- search --------------------------------------------------------------

    def _augmented(self, k: int):
        """The scipy matrix of the graph plus the virtual source row.

        Vertex ``n`` has no in-edges; its row ends the arrays and has
        room for at least ``k`` seed edges. The matrix is built once (the
        room only grows, by rebuilding, when a search brings more
        distinct seed vertices than any before it). The caller holds
        ``_sp_lock``.
        """
        mat = self._sp_matrix
        m = len(self.indices)
        if mat is None or len(mat.indices) - m < k:
            n = self.num_vertices
            room = max(k, 2)
            data = np.zeros(m + room, dtype=np.float64)
            data[:m] = self.weights
            indices = np.zeros(m + room, dtype=np.int32)
            indices[:m] = self.indices
            indptr = np.empty(n + 2, dtype=np.int32)
            indptr[: n + 1] = self.indptr
            indptr[n + 1] = m + room
            mat = csr_matrix(
                (data, indices, indptr), shape=(n + 1, n + 1), copy=False
            )
            self._sp_matrix = mat
        return mat

    def _scipy_dense(
        self,
        seeds: Sequence[Tuple[int, float]],
        max_distance: float,
    ) -> np.ndarray:
        """Seeded multi-source SSSP as one C Dijkstra from a virtual source.

        The seeds become the out-edges of virtual vertex ``n``: each
        seed vertex keeps its smallest ``d0`` (the rule of
        :func:`~repro.roadnet.shortest_path.multi_source_dijkstra`),
        seeds beyond ``max_distance`` are dropped, and the rest are
        written in ascending column order into the virtual row — a
        zero ``d0`` stays an edge. scipy then adds each edge weight to
        the settled distance exactly as the reference does, so the row
        equals the reference's bit for bit. Only the virtual row's
        entries are written per call; the lock keeps concurrent callers
        from interleaving a write with another caller's search. Returns
        the dense per-vertex float64 row in internal-index order (inf =
        out of reach / beyond the bound).
        """
        best: Dict[int, float] = {}
        for idx, d0 in seeds:
            if d0 <= max_distance and d0 < best.get(idx, math.inf):
                best[idx] = d0
        n = self.num_vertices
        if not best:
            return np.full(n, math.inf, dtype=np.float64)
        cols = sorted(best)
        k = len(cols)
        with self._sp_lock:
            mat = self._augmented(k)
            m = int(mat.indptr[n])
            mat.indices[m : m + k] = cols
            mat.data[m : m + k] = [best[c] for c in cols]
            mat.indptr[n + 1] = m + k
            self.scipy_runs += 1
            row = _scipy_dijkstra(
                mat, directed=True, indices=n, limit=max_distance
            )
        return row[:n]

    def sssp(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> DenseDistanceView:
        """Seeded SSSP over original vertex ids, as a dict-like view (a
        drop-in for the reference
        :func:`~repro.roadnet.shortest_path.multi_source_dijkstra`).
        """
        row = self.sssp_dense(seeds, max_distance)
        return DenseDistanceView(self.ids, self.index_of, row)

    def sssp_dense(
        self,
        seeds: Iterable[Tuple[int, float]],
        max_distance: float = math.inf,
    ) -> np.ndarray:
        """Seeded SSSP as a dense per-vertex row in ``ids`` order."""
        return self._scipy_dense(self.internal_seeds(seeds), max_distance)
