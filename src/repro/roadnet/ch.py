"""Contraction hierarchy over a CSR road graph (exact ``dist_RN``).

Offline, every vertex is *contracted* in ascending importance order:
removing it from the remaining graph and inserting *shortcut* edges
between its neighbors wherever the vertex lay on their only shortest
path (a bounded *witness search* proves or refutes a bypass). Online, a
point-to-point query runs two Dijkstra searches that only ever relax
edges toward more important vertices — search spaces are tiny, and the
minimum meeting distance is the exact shortest-path distance.

The importance order uses the classic lazy-update heuristic: priority =
edge difference (shortcuts needed minus degree) + deleted-neighbor
count, re-evaluated on pop. Witness searches are settle-capped; a missed
witness only inserts a redundant shortcut (slower preprocessing, never a
wrong distance), so correctness does not depend on the cap.

Everything here works on the dense internal indices of a
:class:`~repro.roadnet.csr.CSRGraph`; translation from vertex ids and
on-edge positions is the engine layer's job
(:mod:`repro.roadnet.engines`).
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .csr import CSRGraph

#: Witness searches stop after settling this many vertices; higher means
#: fewer redundant shortcuts but slower preprocessing.
DEFAULT_WITNESS_SETTLE_CAP = 120


class ContractionHierarchy:
    """A built hierarchy: vertex ranks plus the upward search graph.

    The upward graph keeps, for every original edge and every shortcut,
    the single orientation that points from the lower-ranked endpoint to
    the higher-ranked one (the graph is undirected, so one upward copy
    per edge suffices for both search directions).
    """

    __slots__ = (
        "n", "rank", "up_indptr", "up_indices", "up_weights",
        "shortcuts_added", "preprocess_seconds", "query_settles",
        "_up_cache",
    )

    def __init__(
        self,
        n: int,
        rank,
        up_indptr,
        up_indices,
        up_weights,
        shortcuts_added: int,
        preprocess_seconds: float,
    ) -> None:
        self.n = n
        self.rank = rank
        self.up_indptr = up_indptr
        self.up_indices = up_indices
        self.up_weights = up_weights
        self.shortcuts_added = shortcuts_added
        self.preprocess_seconds = preprocess_seconds
        #: total vertices settled across all upward searches (obs counter)
        self.query_settles = 0
        # Plain-list mirrors of the upward CSR for the heap kernel,
        # materialized lazily when the arrays arrive borrowed (memmap).
        self._up_cache: Optional[Tuple[list, list, list]] = None

    def _upward_lists(self) -> Tuple[list, list, list]:
        if self._up_cache is None:
            self._up_cache = tuple(
                arr if isinstance(arr, list) else arr.tolist()
                for arr in (self.up_indptr, self.up_indices, self.up_weights)
            )
        return self._up_cache

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        csr: CSRGraph,
        witness_settle_cap: int = DEFAULT_WITNESS_SETTLE_CAP,
    ) -> "ContractionHierarchy":
        started = time.perf_counter()
        n = csr.num_vertices
        indptr, indices, weights = csr._lists()
        # Mutable remaining-graph adjacency, shrinking as nodes contract.
        adj: List[Dict[int, float]] = [{} for _ in range(n)]
        for u in range(n):
            for j in range(indptr[u], indptr[u + 1]):
                adj[u][indices[j]] = weights[j]
        # Final edge set (original + shortcuts) feeding the upward graph;
        # keyed on the sorted endpoint pair, keeping the minimum weight
        # ever observed (every candidate weight is a real path length,
        # so the minimum never undercuts the true distance).
        edges: Dict[Tuple[int, int], float] = {}
        for u in range(n):
            for v, w in adj[u].items():
                if u < v:
                    edges[(u, v)] = w
        contracted = [False] * n
        deleted_nbrs = [0] * n
        rank = [0] * n
        inf = math.inf
        shortcuts_added = 0

        def witness_search(
            source: int, excluded: int, limit: float, targets: Sequence[int]
        ) -> Dict[int, float]:
            """Bounded Dijkstra in the remaining graph avoiding ``excluded``."""
            dist: Dict[int, float] = {source: 0.0}
            heap: List[Tuple[float, int]] = [(0.0, source)]
            pending = set(targets)
            settles = 0
            while heap and pending and settles < witness_settle_cap:
                d, u = heapq.heappop(heap)
                if d > dist.get(u, inf):
                    continue
                if d > limit:
                    break
                settles += 1
                pending.discard(u)
                for v, w in adj[u].items():
                    if v == excluded or contracted[v]:
                        continue
                    nd = d + w
                    if nd <= limit and nd < dist.get(v, inf):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            return dist

        def simulate(v: int) -> Tuple[List[Tuple[int, int, float]], int]:
            """Shortcuts required to contract ``v`` now, plus its degree."""
            nbrs = [(u, w) for u, w in adj[v].items() if not contracted[u]]
            needed: List[Tuple[int, int, float]] = []
            for i, (u, du) in enumerate(nbrs):
                rest = nbrs[i + 1:]
                if not rest:
                    break
                limit = du + max(w for _, w in rest)
                wdist = witness_search(u, v, limit, [x for x, _ in rest])
                for x, dx in rest:
                    if x == u:
                        continue
                    via = du + dx
                    if wdist.get(x, inf) > via:
                        needed.append((u, x, via))
            return needed, len(nbrs)

        # Lazy-update priority queue over (edge_diff + deleted_neighbors).
        heap: List[Tuple[int, int]] = []
        for v in range(n):
            needed, degree = simulate(v)
            heapq.heappush(heap, (len(needed) - degree, v))
        order = 0
        while heap:
            _stale, v = heapq.heappop(heap)
            if contracted[v]:
                continue
            needed, degree = simulate(v)
            priority = len(needed) - degree + deleted_nbrs[v]
            if heap and priority > heap[0][0]:
                heapq.heappush(heap, (priority, v))
                continue
            for a, b, w in needed:
                old = adj[a].get(b)
                if old is None or w < old:
                    adj[a][b] = w
                    adj[b][a] = w
                    key = (a, b) if a < b else (b, a)
                    prev = edges.get(key)
                    if prev is None or w < prev:
                        edges[key] = w
                    shortcuts_added += 1
            rank[v] = order
            order += 1
            contracted[v] = True
            for u in list(adj[v]):
                deleted_nbrs[u] += 1
                adj[u].pop(v, None)
            adj[v].clear()

        # Orient every surviving edge upward and freeze to CSR lists.
        up_lists: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for (a, b), w in edges.items():
            if rank[a] < rank[b]:
                up_lists[a].append((b, w))
            else:
                up_lists[b].append((a, w))
        up_indptr = [0] * (n + 1)
        for i in range(n):
            up_indptr[i + 1] = up_indptr[i] + len(up_lists[i])
        up_indices: List[int] = [0] * up_indptr[n]
        up_weights: List[float] = [0.0] * up_indptr[n]
        pos = 0
        for entries in up_lists:
            for target, w in entries:
                up_indices[pos] = target
                up_weights[pos] = w
                pos += 1
        return cls(
            n=n,
            rank=rank,
            up_indptr=up_indptr,
            up_indices=up_indices,
            up_weights=up_weights,
            shortcuts_added=shortcuts_added,
            preprocess_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _upward(
        self,
        seeds: Sequence[Tuple[int, float]],
        other: Optional[Dict[int, float]] = None,
        cutoff: float = math.inf,
    ) -> Tuple[Dict[int, float], float]:
        """Upward Dijkstra from ``seeds``; meeting check against ``other``.

        Returns the upward distance map and the best meeting distance
        found (``inf`` when ``other`` is ``None`` or disjoint). Vertices
        whose key already exceeds the running best cannot contribute to
        a shorter meeting, so the search stops there.
        """
        inf = math.inf
        up_indptr, up_indices, up_weights = self._upward_lists()
        dist: Dict[int, float] = {}
        heap: List[Tuple[float, int]] = []
        for idx, d0 in seeds:
            if d0 < dist.get(idx, inf):
                dist[idx] = d0
                heapq.heappush(heap, (d0, idx))
        best = cutoff
        settles = 0
        while heap:
            d, u = heapq.heappop(heap)
            if d >= best:
                break
            if d > dist.get(u, inf):
                continue
            settles += 1
            if other is not None:
                du_other = other.get(u)
                if du_other is not None and d + du_other < best:
                    best = d + du_other
            for j in range(up_indptr[u], up_indptr[u + 1]):
                v = up_indices[j]
                nd = d + up_weights[j]
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        self.query_settles += settles
        return dist, best

    def query(
        self,
        seeds_a: Sequence[Tuple[int, float]],
        seeds_b: Sequence[Tuple[int, float]],
    ) -> float:
        """Exact shortest distance between two seeded vertex sets.

        Seeds are ``(internal_index, initial_distance)`` pairs, the same
        two-endpoint form the flat Dijkstra uses for on-edge positions.
        Returns ``math.inf`` for disconnected pairs.
        """
        if not seeds_a or not seeds_b:
            return math.inf
        backward, _ = self._upward(seeds_b)
        if not backward:
            return math.inf
        _, best = self._upward(seeds_a, other=backward)
        return float(best)

    def __repr__(self) -> str:
        return (
            f"ContractionHierarchy(n={self.n}, "
            f"shortcuts={self.shortcuts_added}, "
            f"preprocess={self.preprocess_seconds:.3f}s)"
        )
