"""Pivot selection and pivot-distance lookups (Sections 3.2, 4.1, 4.2.3).

The paper pre-computes distances from every user/POI to a handful of
pivots and uses triangle-inequality bounds at query time. Pivots are
chosen by Algorithm 1: a swap-based local search over candidate pivot
sets, restarted ``global_iter`` times, guided by a cost model
(Eqs. 20-21; only referenced in the extended abstract, so we instantiate
the natural choice below).

Cost model
----------
For a pivot set ``P`` and a sample of entity pairs ``(a, b)``, the
quality of the pivot-based lower bound is how close

    lb(a, b) = max_{p in P} |dist(a, p) - dist(b, p)|

gets to ``dist(a, b)`` from below. We therefore score a pivot set by the
*mean lower bound* over sampled pairs; maximizing it tightens the bound
and strengthens the distance pruning (Lemmas 4, 7, 9). Because
``lb <= dist`` always holds, a higher mean is unambiguously better.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

import numpy as np

from ..exceptions import InvalidParameterError, UnknownEntityError
from ..roadnet.engines import CSREngine
from ..roadnet.graph import NetworkPosition, RoadNetwork
from ..roadnet.shortest_path import position_distance_from_map
from ..socialnet.graph import SocialNetwork

#: ``vertex_id -> distance``: a
#: :class:`~repro.roadnet.csr.DenseDistanceView` over one engine row.
DistanceMap = Mapping[int, float]


def pivot_lower_bound(
    dists_a: Sequence[float], dists_b: Sequence[float]
) -> float:
    """Triangle-inequality lower bound ``max_k |d(a, p_k) - d(b, p_k)|``.

    The extended abstract's Eq. for ``lb_dist_SN`` prints ``min``; the
    triangle inequality gives ``|d(a,p) - d(b,p)| <= d(a,b)`` for *every*
    pivot, so the tightest safe bound is the ``max`` over pivots, which is
    what we use (and what Eqs. 17/19 use as well).

    Unreachable pivots (infinite distances on both sides) contribute 0;
    one-sided infinities witness disconnection and yield ``inf``.
    """
    best = 0.0
    for da, db in zip(dists_a, dists_b):
        a_inf = math.isinf(da)
        b_inf = math.isinf(db)
        if a_inf and b_inf:
            continue
        if a_inf or b_inf:
            return math.inf
        gap = abs(da - db)
        if gap > best:
            best = gap
    return best


def select_pivots(
    candidates: Sequence[int],
    num_pivots: int,
    distance_fn: Callable[[int, int], float],
    sample_pairs: Sequence[Tuple[int, int]],
    rng: np.random.Generator,
    global_iter: int = 3,
    swap_iter: int = 20,
) -> List[int]:
    """Algorithm 1: swap-based local search for a good pivot set.

    Args:
        candidates: entity ids eligible to be pivots.
        num_pivots: size of the pivot set (``h`` or ``l``).
        distance_fn: exact distance between two entity ids.
        sample_pairs: entity pairs used to evaluate the cost model.
        rng: randomness source for initialization and swaps.
        global_iter: number of random restarts (lines 2-3).
        swap_iter: pivot/non-pivot swaps attempted per restart (line 6).

    Returns:
        The best pivot set found, as a sorted list of entity ids.
    """
    candidates = list(dict.fromkeys(candidates))
    if num_pivots < 1:
        raise InvalidParameterError("num_pivots must be >= 1")
    if len(candidates) <= num_pivots:
        return sorted(candidates)

    # Memoize entity -> pivot distances across cost evaluations.
    dist_cache: Dict[Tuple[int, int], float] = {}

    def dist(a: int, b: int) -> float:
        key = (a, b) if a <= b else (b, a)
        if key not in dist_cache:
            dist_cache[key] = distance_fn(key[0], key[1])
        return dist_cache[key]

    def cost(pivots: Sequence[int]) -> float:
        """Mean pivot lower bound over the sampled pairs (higher = better)."""
        if not sample_pairs:
            return 0.0
        total = 0.0
        for a, b in sample_pairs:
            da = [dist(a, p) for p in pivots]
            db = [dist(b, p) for p in pivots]
            lb = pivot_lower_bound(da, db)
            if not math.isinf(lb):
                total += lb
        return total / len(sample_pairs)

    global_cost = -math.inf
    best_set: List[int] = []
    for _ in range(max(global_iter, 1)):
        pivots = list(rng.choice(candidates, size=num_pivots, replace=False))
        pivots = [int(p) for p in pivots]
        local_cost = cost(pivots)
        non_pivots = [c for c in candidates if c not in pivots]
        for _ in range(max(swap_iter, 0)):
            if not non_pivots:
                break
            i = int(rng.integers(len(pivots)))
            j = int(rng.integers(len(non_pivots)))
            new_pivots = list(pivots)
            new_pivots[i] = non_pivots[j]
            new_cost = cost(new_pivots)
            if new_cost > local_cost:
                non_pivots[j] = pivots[i]
                pivots = new_pivots
                local_cost = new_cost
        if local_cost > global_cost:
            global_cost = local_cost
            best_set = pivots
    return sorted(best_set)


class RoadPivotIndex:
    """Pre-computed road-network pivot distances (``dist_RN(·, rp_k)``).

    One full SSSP per pivot vertex, run on the network's ``dist_RN``
    engine; distances to arbitrary :class:`NetworkPosition` values are
    derived from the two edge endpoints, so a single map serves every
    user and POI.
    """

    def __init__(
        self, engine: CSREngine, pivot_vertices: Sequence[int]
    ) -> None:
        if not pivot_vertices:
            raise InvalidParameterError("need at least one road pivot")
        road = engine.road
        for v in pivot_vertices:
            if not road.has_vertex(v):
                raise UnknownEntityError(f"pivot references unknown vertex {v}")
        self.road = road
        self.pivots: List[int] = list(pivot_vertices)
        self._maps: List[DistanceMap] = [
            engine.sssp([(p, 0.0)]) for p in self.pivots
        ]

    @classmethod
    def from_maps(
        cls,
        road: RoadNetwork,
        pivot_vertices: Sequence[int],
        maps: Sequence,
    ) -> "RoadPivotIndex":
        """Revive pivot distances from pre-computed per-pivot maps.

        Frozen snapshots store one dense distance row per pivot; re-running
        the full Dijkstras on attach would defeat the O(1) open. Each map
        only needs ``.get(vertex_id, default)``.
        """
        if len(pivot_vertices) != len(maps):
            raise InvalidParameterError(
                f"{len(pivot_vertices)} pivots but {len(maps)} distance maps"
            )
        index = cls.__new__(cls)
        index.road = road
        index.pivots = [int(p) for p in pivot_vertices]
        index._maps = list(maps)
        return index

    @property
    def num_pivots(self) -> int:
        return len(self.pivots)

    def distances(self, pos: NetworkPosition) -> List[float]:
        """``[dist_RN(pos, rp_1), ..., dist_RN(pos, rp_h)]``."""
        return [
            position_distance_from_map(self.road, dist_map, pos)
            for dist_map in self._maps
        ]

    def lower_bound(self, dists_a: Sequence[float], dists_b: Sequence[float]) -> float:
        return pivot_lower_bound(dists_a, dists_b)


class SocialPivotIndex:
    """Pre-computed social-network pivot hop distances (``dist_SN(·, sp_k)``).

    One full BFS per pivot user. Distances to users in other components
    are ``inf``, which the bounds treat as "provably more than any hop
    threshold".
    """

    def __init__(self, social: SocialNetwork, pivot_users: Sequence[int]) -> None:
        if not pivot_users:
            raise InvalidParameterError("need at least one social pivot")
        self.social = social
        self.pivots: List[int] = list(pivot_users)
        self._maps: List[Dict[int, int]] = [
            social.hop_distances_from(p) for p in self.pivots
        ]

    @property
    def num_pivots(self) -> int:
        return len(self.pivots)

    def distances(self, user_id: int) -> List[float]:
        """``[dist_SN(u, sp_1), ..., dist_SN(u, sp_l)]`` (inf if unreachable)."""
        if not self.social.has_user(user_id):
            raise UnknownEntityError(f"unknown user {user_id}")
        return [
            float(dist_map[user_id]) if user_id in dist_map else math.inf
            for dist_map in self._maps
        ]

    # -- incremental maintenance -------------------------------------------------
    #
    # Unlike the widen-only social-index aggregates, these maps must stay
    # *exact*: ``pivot_lower_bound`` over a stale map can exceed the true
    # hop distance (e.g. after add_friend shrinks distances), which would
    # over-prune — the inadmissible direction. BFS hop distances admit a
    # cheap exactness test per pivot, so most edge flips refresh nothing.

    def plan_edge_change(self, a: int, b: int, removing: bool) -> List[int]:
        """Pivot map indices invalidated by flipping friendship ``(a, b)``.

        Must be called on the *pre-mutation* graph (the test reads the
        current maps). For unweighted BFS distances from pivot ``p``:

        * adding ``(a, b)`` can only create shorter paths when the
          endpoint levels differ by more than one hop (or exactly one of
          them is unreachable);
        * removing ``(a, b)`` can only destroy shortest paths when the
          edge spans adjacent levels (``|d_p(a) - d_p(b)| == 1``) —
          same-level edges are never on a BFS shortest path.
        """
        stale: List[int] = []
        for k, dist_map in enumerate(self._maps):
            da = dist_map.get(a)
            db = dist_map.get(b)
            if removing:
                if da is None or db is None:
                    continue
                if abs(da - db) == 1:
                    stale.append(k)
            else:
                if da is None and db is None:
                    continue
                if da is None or db is None or abs(da - db) > 1:
                    stale.append(k)
        return stale

    def recompute(self, indices: Sequence[int]) -> Set[int]:
        """Re-run the BFS for the given pivot map indices (post-mutation).

        Returns the users whose hop count to one of those pivots changed,
        including users who gained or lost reachability; every other
        user's :meth:`distances` row is what it was before the call.
        """
        changed: Set[int] = set()
        for k in indices:
            old = self._maps[k]
            new = self.social.hop_distances_from(self.pivots[k])
            changed.update(
                uid for uid, hops in new.items() if old.get(uid) != hops
            )
            changed.update(uid for uid in old if uid not in new)
            self._maps[k] = new
        return changed

    def lower_bound(self, dists_a: Sequence[float], dists_b: Sequence[float]) -> float:
        return pivot_lower_bound(dists_a, dists_b)


def select_pivots_road(
    engine: CSREngine,
    num_pivots: int,
    rng: np.random.Generator,
    num_sample_pairs: int = 30,
    global_iter: int = 3,
    swap_iter: int = 15,
) -> RoadPivotIndex:
    """Choose ``h`` road pivot vertices with Algorithm 1 and index them.

    Every candidate-side SSSP runs on ``engine`` (the network's
    ``dist_RN`` engine), which answers each one on larger graphs with
    a single C Dijkstra and a dense row instead of a per-vertex dict.
    """
    vertices = list(engine.road.vertices())
    if not vertices:
        raise InvalidParameterError("road network is empty")
    sample_count = min(num_sample_pairs, max(1, len(vertices) // 2))
    pairs = [
        (int(rng.choice(vertices)), int(rng.choice(vertices)))
        for _ in range(sample_count)
    ]
    # Candidate pool: a random subset keeps the local search cheap on
    # large networks without hurting quality noticeably.
    pool_size = min(len(vertices), max(4 * num_pivots, 40))
    pool = [int(v) for v in rng.choice(vertices, size=pool_size, replace=False)]

    sssp_cache: Dict[int, DistanceMap] = {}

    def vertex_distance(a: int, b: int) -> float:
        if a not in sssp_cache:
            sssp_cache[a] = engine.sssp([(a, 0.0)])
        return sssp_cache[a].get(b, math.inf)

    chosen = select_pivots(
        pool, num_pivots, vertex_distance, pairs, rng,
        global_iter=global_iter, swap_iter=swap_iter,
    )
    return RoadPivotIndex(engine, chosen)


def select_pivots_social(
    social: SocialNetwork,
    num_pivots: int,
    rng: np.random.Generator,
    num_sample_pairs: int = 30,
    global_iter: int = 3,
    swap_iter: int = 15,
) -> SocialPivotIndex:
    """Choose ``l`` social pivot users with Algorithm 1 and index them."""
    users = list(social.user_ids())
    if not users:
        raise InvalidParameterError("social network is empty")
    sample_count = min(num_sample_pairs, max(1, len(users) // 2))
    pairs = [
        (int(rng.choice(users)), int(rng.choice(users)))
        for _ in range(sample_count)
    ]
    pool_size = min(len(users), max(4 * num_pivots, 40))
    pool = [int(u) for u in rng.choice(users, size=pool_size, replace=False)]

    bfs_cache: Dict[int, Dict[int, int]] = {}

    def hop_distance(a: int, b: int) -> float:
        if a not in bfs_cache:
            bfs_cache[a] = social.hop_distances_from(a)
        return float(bfs_cache[a].get(b, math.inf))

    chosen = select_pivots(
        pool, num_pivots, hop_distance, pairs, rng,
        global_iter=global_iter, swap_iter=swap_iter,
    )
    return SocialPivotIndex(social, chosen)
