"""Candidate refinement: group enumeration and POI-region construction.

The index traversal of Algorithm 2 ends with candidate users ``S_cand``
and candidate POIs ``R_cand``; this module turns them into the final
``(S, R)`` answer:

* :func:`enumerate_connected_groups` — all connected ``tau``-subsets of
  the candidate users that contain the query user and satisfy the
  pairwise interest threshold ``gamma`` (the refinement of Section 5),
  enumerated over a per-query :class:`GroupSpace` of dense indices;
* :func:`best_region_for_seed` — for a group ``S`` and a seed POI
  ``o_i``, the subset of ``ball(o_i, r)`` minimizing
  ``maxdist_RN(S, R)`` subject to the matching threshold (the scalar
  reference of :class:`PairKernel`);
* :func:`refine_pairs` — the one gated (group, seed) pair loop, which
  the indexed, sampled and scan answers share over their own groups
  and seeds;
* :func:`sample_connected_groups` — the paper's subset sampling, random
  expansions through a :class:`GroupSpace`.

Canonical candidate-region space
--------------------------------
Definition 5 constrains ``R`` by *pairwise* road distance ``<= 2r``. As
in the paper (Section 3.1), we materialize candidate regions as balls of
radius ``r`` centered at POIs: ``R ⊆ ball(o_i, r)`` with ``o_i ∈ R``.
Any such set is pairwise-feasible by the triangle inequality, and every
ball of radius ``r`` around an arbitrary center that contains some POI
``o_i`` is covered by ``ball(o_i, 2r) ⊇ ball(center, r)`` — the paper's
superset argument. Both the indexed algorithm and the exhaustive
baseline search exactly this space, so their answers are comparable.

Within a seed's ball the optimal subset is found *exactly*: matching
scores are monotone in ``R`` (Lemma 2) and the objective is the max of
per-POI distances, so the optimum is the shortest feasible prefix of
POIs ordered by ``max_{u in S} dist_RN(u, o)``.
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import chain, islice
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..changes import LRU, ChangeLog, OwnedLRU
from ..exceptions import UnknownEntityError
from ..network import SpatialSocialNetwork
from ..roadnet.shortest_path import PositionArrays, position_distance_from_map
from .metrics import DEFAULT_SCORER, MetricScorer, at_least
from .query import QueryStatistics
from .scores import match_score


#: Most score-matrix entries :class:`GroupSpace` holds at once: its
#: compat rows are scored in blocks of ``max(1, COMPAT_CELLS // |space|)``
#: users (512 KiB of float64), so a large space costs memory and time
#: only for the blocks whose users the enumeration actually extends.
COMPAT_CELLS = 1 << 16


class GroupSpace:
    """The users one group enumeration can reach, in dense local indices.

    The space holds the issuer plus every permitted user within
    ``tau - 1`` hops of it through permitted users: no group member and
    no frontier entry can lie outside it. Users are kept in ascending id
    order, so local order is id order and every sorted id list maps to a
    sorted index list.

    Only *inner* users — within ``tau - 2`` hops — are ever extended
    (a user ``h`` hops out joins a group of at least ``h + 1``), so only
    they get, the first time the enumeration extends a group by them
    (:meth:`expand`; ``None`` until then):

    * ``neighbours`` — the sorted permitted-neighbour list, as local
      indices, and ``neighbour_bits``, the same set as an int bitmask;
    * ``compat`` — an int bitmask of the users whose
      ``Interest_Score`` with them reaches ``gamma``. Inner users are
      scored in blocks (breadth-first order, at most
      :data:`COMPAT_CELLS` entries per block), each one
      ``scorer.pairwise_matrix`` of the block's rows against the whole
      space, with every entry within
      :data:`~repro.core.metrics.PAIR_TOL` of ``gamma``
      re-scored by ``scorer.score``, so each bit equals
      ``score(w_a, w_b) >= gamma`` exactly. For ``tau == 2`` the only
      inner user is the issuer: one row, linear in the space.
    """

    __slots__ = (
        "users", "root", "neighbours", "neighbour_bits", "compat",
        "_index", "_social", "_scorer", "_gamma", "_interests", "_matrix",
        "_blocks", "_block_of",
    )

    def __init__(
        self,
        network: SpatialSocialNetwork,
        query_user: int,
        tau: int,
        gamma: float,
        allowed: Optional[Set[int]] = None,
        scorer: Optional[MetricScorer] = None,
    ) -> None:
        social = network.social
        if not social.has_user(query_user):
            raise UnknownEntityError(f"unknown query user {query_user}")

        # Breadth-first through permitted users, tau - 1 hops deep.
        hops = {query_user: 0}
        inner_ids: List[int] = []
        level = [query_user]
        for hop in range(1, tau):
            inner_ids.extend(level)
            following = []
            for uid in level:
                for nbr in social.friends(uid):
                    if nbr not in hops and (allowed is None or nbr in allowed):
                        hops[nbr] = hop
                        following.append(nbr)
            level = following
        users = sorted(hops)
        index = {uid: i for i, uid in enumerate(users)}
        n = len(users)
        self.users = users
        self.root = index[query_user]
        self.neighbours: List[Optional[List[int]]] = [None] * n
        self.neighbour_bits: List[Optional[int]] = [None] * n
        self.compat: List[Optional[int]] = [None] * n
        self._index = index
        self._social = social
        self._scorer = scorer or DEFAULT_SCORER
        self._gamma = gamma
        inner = [index[uid] for uid in inner_ids]
        size = max(1, COMPAT_CELLS // n)
        self._blocks = [inner[s:s + size] for s in range(0, len(inner), size)]
        self._block_of = {
            i: block for block in self._blocks for i in block
        }
        self._interests: List[np.ndarray] = []
        self._matrix: Optional[np.ndarray] = None

    def expand(self, i: int) -> List[int]:
        """Build (once) and return inner user ``i``'s neighbour list,
        scoring its ``compat`` row first if its block is unscored.

        Every permitted neighbour of an inner user lies in the space,
        so membership in the space is the permission test.
        """
        if self.compat[i] is None:
            self._score(self._block_of[i])
        index = self._index
        nbrs = sorted(
            index[nbr] for nbr in self._social.friends(self.users[i])
            if nbr in index
        )
        self.neighbours[i] = nbrs
        self.neighbour_bits[i] = sum(map((1).__lshift__, nbrs))
        return nbrs

    def _score(self, rows: List[int]) -> None:
        """Fill the ``compat`` masks of one block of inner users."""
        if self._matrix is None:
            social = self._social
            self._interests = [social.user(uid).interests for uid in self.users]
            self._matrix = np.stack(self._interests)
        scorer, gamma, interests = self._scorer, self._gamma, self._interests
        ok = at_least(
            scorer.pairwise_matrix(self._matrix, rows), gamma,
            lambda r, j: scorer.score(interests[j], interests[rows[r]]),
        )
        packed = np.packbits(ok, axis=1, bitorder="little")
        for i, row in zip(rows, packed):
            self.compat[i] = int.from_bytes(row.tobytes(), "little")


def enumerate_group_indices(
    space: GroupSpace,
    tau: int,
    limit: Optional[int] = None,
    explain=None,
) -> Iterator[Tuple[int, ...]]:
    """Yield connected, pairwise-compatible ``tau``-groups of ``space``.

    Groups are tuples of local indices, the issuer first and the other
    members in the order they joined. A group is compatible with a
    candidate when the AND of its members' ``compat`` masks has the
    candidate's bit set.

    The search is the "extension set" technique, run as one iterative
    depth-first search: a group only ever grows by frontier entries
    after the one it last took, and the frontier of a child is the rest
    of its parent's frontier plus the new member's neighbours that the
    parent had not yet seen (banned or in its frontier). Each connected
    group is generated exactly once, in an order fixed by ids alone. An
    incompatible candidate stays in ``seen``: it is incompatible with
    every supergroup too. The last level only tests bits.

    ``limit`` caps the yielded groups: the search stops right after the
    ``limit``-th. With ``explain`` (an
    :class:`~repro.obs.funnel.ExplainRecorder`, or ``None`` to keep the
    loop free of hook calls) every candidate considered is visited in
    the ``refine.groups`` funnel, pruned under ``group.interest`` when
    incompatible and survived when taken, as it is considered.
    """
    root = space.root
    if tau == 1:
        yield (root,)
        return
    remaining = math.inf if limit is None else limit
    if remaining <= 0:
        return
    neighbours = space.neighbours
    neighbour_bits = space.neighbour_bits
    compat = space.compat
    last = tau - 1  # the size of a group whose candidates complete it
    # Frames are [group, mask, frontier, seen, next position]; `leaf`
    # is a group of size tau - 1 waiting for its bit tests.
    stack: List[list] = []
    leaf = None
    frontier = space.expand(root)
    if last == 1:
        leaf = ((root,), compat[root], frontier)
    else:
        stack.append([
            (root,), compat[root], frontier,
            neighbour_bits[root] | (1 << root), 0,
        ])
    while True:
        if leaf is not None:
            group, mask, frontier = leaf
            leaf = None
            if explain is None:
                hits = [c for c in frontier if mask >> c & 1]
                if len(hits) >= remaining:
                    hits = hits[:remaining]
                remaining -= len(hits)
                for c in hits:
                    yield group + (c,)
                if not remaining:
                    return
            else:
                for c in frontier:
                    explain.visit("refine.groups")
                    if mask >> c & 1:
                        explain.survive("refine.groups")
                        yield group + (c,)
                        remaining -= 1
                        if not remaining:
                            return
                    else:
                        explain.prune("refine.groups", "group.interest")
        if not stack:
            return
        frame = stack[-1]
        group, mask, frontier, seen, pos = frame
        end = len(frontier)
        while pos < end:
            c = frontier[pos]
            pos += 1
            if explain is not None:
                explain.visit("refine.groups")
            if mask >> c & 1:
                if explain is not None:
                    explain.survive("refine.groups")
                break
            if explain is not None:
                explain.prune("refine.groups", "group.interest")
        else:
            stack.pop()
            continue
        frame[4] = pos
        child = frontier[pos:]
        nbrs = neighbours[c]
        if nbrs is None:
            nbrs = space.expand(c)
        bits = neighbour_bits[c]
        fresh = bits & ~seen
        if fresh:
            child.extend([j for j in nbrs if fresh >> j & 1])
        child_group = group + (c,)
        child_mask = mask & compat[c]
        if len(child_group) == last:
            leaf = (child_group, child_mask, child)
        else:
            stack.append([child_group, child_mask, child, seen | bits, 0])


def enumerate_connected_groups(
    network: SpatialSocialNetwork,
    query_user: int,
    tau: int,
    gamma: float,
    allowed: Optional[Set[int]] = None,
    limit: Optional[int] = None,
    scorer: Optional[MetricScorer] = None,
    explain=None,
) -> Iterator[FrozenSet[int]]:
    """Yield connected ``tau``-groups containing ``query_user``.

    Groups satisfy all three social predicates of Definition 5: they
    contain the issuer, they induce a connected subgraph of ``G_s``, and
    every *pair* of members has ``Interest_Score >= gamma`` (checked
    incrementally, so incompatible branches die early).

    A thin wrapper over :class:`GroupSpace` and
    :func:`enumerate_group_indices` that maps each group back to user
    ids; the query processor consumes the index tuples directly.

    Args:
        network: the spatial-social network.
        query_user: the issuer ``u_q``.
        tau: group size.
        gamma: pairwise interest threshold.
        allowed: optional candidate-user whitelist (``S_cand``); the
            issuer is always treated as allowed.
        limit: optional cap on the number of yielded groups.
        scorer: the pairwise interest metric; defaults to the paper's
            dot product (Eq. 1).
        explain: optional :class:`~repro.obs.funnel.ExplainRecorder`
            (see :func:`enumerate_group_indices`).

    Yields:
        ``frozenset`` groups of exactly ``tau`` user ids.
    """
    space = GroupSpace(network, query_user, tau, gamma, allowed, scorer)
    users = space.users
    for group in enumerate_group_indices(space, tau, limit, explain):
        yield frozenset([users[i] for i in group])


def group_distance_maps(
    network: SpatialSocialNetwork, group: Iterable[int]
) -> Dict[int, Dict[int, float]]:
    """One Dijkstra vertex-distance map per group member (oracle-cached)."""
    maps = {}
    for uid in group:
        user = network.social.user(uid)
        maps[uid] = network.distances.distances_from(("user", uid), user.home)
    return maps


def max_group_distance_to_poi(
    network: SpatialSocialNetwork,
    dist_maps: Dict[int, Dict[int, float]],
    poi_id: int,
) -> float:
    """``max_{u in S} dist_RN(u, o_i)`` from pre-built distance maps."""
    poi = network.poi(poi_id)
    return max(
        position_distance_from_map(
            network.road, dist_map, poi.position,
            network.social.user(uid).home,
        )
        for uid, dist_map in dist_maps.items()
    )


def best_region_for_seed(
    network: SpatialSocialNetwork,
    group_interests: Sequence[np.ndarray],
    dist_maps: Dict[int, Dict[int, float]],
    seed_poi: int,
    region_poi_ids: Sequence[int],
    theta: float,
) -> Optional[Tuple[FrozenSet[int], float]]:
    """The optimal feasible region for one (group, seed) pair.

    Args:
        network: the spatial-social network.
        group_interests: interest vectors of the group's members.
        dist_maps: per-member Dijkstra maps (:func:`group_distance_maps`).
        seed_poi: the center POI ``o_i`` (always included in ``R``).
        region_poi_ids: POIs within road distance ``r`` of the seed
            (must include the seed itself).
        theta: the matching threshold.

    Returns:
        ``(R, maxdist_RN(S, R))`` for the feasible subset minimizing the
        max distance, or ``None`` when even the full ball fails the
        matching threshold for some member. ``R`` is the *minimal*
        feasible prefix: a scanned POI joins it only when it covers at
        least one fresh topic (a coverage-redundant POI can never change
        any member's score, and the deciding POI — the one that flips
        the last member over ``theta`` — always contributes, so dropping
        redundant POIs leaves the max distance unchanged).
    """
    # Distance of every region POI to the group.
    dmax = {
        pid: max_group_distance_to_poi(network, dist_maps, pid)
        for pid in region_poi_ids
    }
    if seed_poi not in dmax:
        dmax[seed_poi] = max_group_distance_to_poi(network, dist_maps, seed_poi)

    ordered = sorted(dmax, key=dmax.get)
    covered: Set[int] = set(network.poi(seed_poi).keywords)
    chosen: Set[int] = {seed_poi}

    # Incremental matching: track each member's current score and bump
    # it only for newly covered topics, so the scan costs O(new topics)
    # per added POI instead of re-scoring every member from scratch.
    scores = [match_score(w, covered) for w in group_interests]
    unmatched = sum(1 for s in scores if s < theta)
    if unmatched == 0:
        return frozenset(chosen), dmax[seed_poi]
    for pid in ordered:
        if pid in chosen:
            continue
        fresh = network.poi(pid).keywords - covered
        if not fresh:
            continue
        chosen.add(pid)
        covered |= fresh
        for idx, w in enumerate(group_interests):
            gained = sum(float(w[f]) for f in fresh)
            if scores[idx] < theta and scores[idx] + gained >= theta:
                unmatched -= 1
            scores[idx] += gained
        if unmatched == 0:
            max_distance = max(dmax[p] for p in chosen)
            return frozenset(chosen), max_distance
    return None


def exact_maxdist(
    network: SpatialSocialNetwork,
    group: Iterable[int],
    pois: Iterable[int],
) -> float:
    """``maxdist_RN(S, R)`` evaluated exactly (Definition 5)."""
    dist_maps = group_distance_maps(network, group)
    pois = list(pois)
    if not pois:
        return 0.0
    return max(
        max_group_distance_to_poi(network, dist_maps, pid) for pid in pois
    )


class BallArrays:
    """Array image of one candidate ball ``⊙(o_seed, r)``.

    Holds the ball's POIs (deduplicated, seed guaranteed present — the
    same normalization the scalar ``dmax`` dict applies through key
    insertion) as indices into the kernel's POI-order arrays, plus a
    boolean keyword matrix view and the OR of all its rows (the full
    ball's coverage, for the infeasibility gate).
    """

    __slots__ = (
        "seed_poi", "poi_ids", "dense_idx", "seed_local", "seed_dense",
        "keywords", "full_cover_f8",
    )

    def __init__(
        self,
        kernel: "PairKernel",
        seed_poi: int,
        region_poi_ids: Sequence[int],
    ) -> None:
        # First-occurrence dedup in region order, seed appended when
        # absent: exactly the key order of the scalar dmax dict, which
        # the stable distance sort below depends on for tie-breaking.
        ids: List[int] = []
        seen: Set[int] = set()
        for pid in region_poi_ids:
            if pid not in seen:
                seen.add(pid)
                ids.append(pid)
        if seed_poi not in seen:
            ids.append(seed_poi)
        self.seed_poi = seed_poi
        self.poi_ids = ids
        poi_index = kernel.poi_index
        self.dense_idx = np.fromiter(
            (poi_index[pid] for pid in ids), dtype=np.int64, count=len(ids)
        )
        self.seed_local = ids.index(seed_poi)
        self.seed_dense = poi_index[seed_poi]
        self.keywords = kernel.keywords[self.dense_idx]
        self.full_cover_f8 = (
            self.keywords.any(axis=0).astype(np.float64)
        )


class GroupState:
    """Per-(group, query) arrays shared across every seed evaluation.

    Built at most once per group — in the refinement loop only for a
    group with a pair that reaches the prefix scan (:class:`BlockGates`
    decides the rest) — and reused for all of its (group, seed) pairs:

    * ``gmax`` — ``max_{u in S} dist_RN(u, o)`` for *every* POI (the
      batched form of :func:`max_group_distance_to_poi`), a max-reduce
      over the kernel's cached per-member distance rows;
    * ``seed_feasible`` — for every POI, whether the seed *alone*
      theta-matches every member (one matmul over the POI×topic matrix);
      such pairs resolve in O(1) without any prefix scan.
    """

    __slots__ = ("interests", "gmax", "seed_feasible", "theta")

    def __init__(
        self,
        kernel: "PairKernel",
        group: Iterable[int],
        theta: float,
    ) -> None:
        members = sorted(group)
        self.theta = theta
        self.interests = np.stack(
            [kernel.interest_vector(uid) for uid in members]
        )
        rows = [kernel.member_row(uid) for uid in members]
        self.gmax = rows[0] if len(rows) == 1 else np.maximum.reduce(rows)
        # Seed-only matching: the seed theta-matches the whole group iff
        # it theta-matches every member — an AND over per-member POI
        # feasibility arrays cached once per (user, theta) at the kernel
        # (``min over members >= theta`` restated exactly).
        feas = kernel.user_poi_feasible(members[0], theta)
        for uid in members[1:]:
            feas = feas & kernel.user_poi_feasible(uid, theta)
        self.seed_feasible = feas


#: Groups pulled from the enumerator per gate reduction in the vector
#: refinement loop. Fixed: big enough to amortize the numpy calls of a
#: reduction, small enough that an uncapped enumeration streams lazily
#: with bounded memory.
GROUP_BLOCK = 256

#: Absolute slack of :meth:`PairKernel.member_bound`'s theta test. A
#: Match_Score is a sum of at most ``d`` non-negative weights of a
#: normalized distribution, so two summation orders differ by about
#: ``d * 2**-53``; the slack dwarfs that and only ever lowers the bound.
MATCH_SLACK = 1e-9


class BlockGates:
    """Seed-axis gates of one query, reduced per block of groups.

    Every (group, seed) pair of the refinement loop is decided first by
    three per-seed quantities, each a reduction over the group's
    members of a per-member row over the query's candidate seeds:

    * ``lb`` — ``max_{u in S} dist_RN(u, o)``, the pair-value lower
      bound of Lemma 5 (the seed always belongs to its region);
    * ``seed_ok`` — the seed alone theta-matches every member (``all``
      over :meth:`PairKernel.user_poi_feasible` rows);
    * ``ball_ok`` — the seed's full ball theta-matches every member.

    These are exactly :class:`GroupState`'s reductions restricted to the
    seeds. Member rows live in dense ``(space, seeds)`` arrays indexed by
    :class:`GroupSpace` local index; a row is filled the first time its
    user occurs in a block, so rows are computed once per query and only
    for users of an enumerated group. A whole block of groups is reduced
    by one ``(block, tau)`` gather per quantity. ``g_min`` is each
    group's smallest bound over its viable seeds (``seed_ok`` or
    ``ball_ok``): when it is not below the running k-th value, no pair
    of the group can enter the top-k.
    """

    __slots__ = (
        "kernel", "users", "seed_dense", "full_cover", "theta",
        "_filled", "_lb", "_seed_ok", "_ball_ok",
    )

    def __init__(
        self,
        kernel: "PairKernel",
        users: Sequence[int],
        seed_dense: np.ndarray,
        full_cover: np.ndarray,
        theta: float,
    ) -> None:
        self.kernel = kernel
        self.users = users
        self.seed_dense = seed_dense
        self.full_cover = full_cover
        self.theta = theta
        shape = (len(users), len(seed_dense))
        self._filled = np.zeros(len(users), dtype=bool)
        self._lb = np.empty(shape)
        self._seed_ok = np.empty(shape, dtype=bool)
        self._ball_ok = np.empty(shape, dtype=bool)

    def _fill(self, rows: List[int]) -> None:
        kernel = self.kernel
        seed_dense = self.seed_dense
        theta = self.theta
        uids = [self.users[i] for i in rows]
        for i, uid in zip(rows, uids):
            self._lb[i] = kernel.member_row(uid)[seed_dense]
            self._seed_ok[i] = (
                kernel.user_poi_feasible(uid, theta)[seed_dense]
            )
        interests = np.stack([kernel.interest_vector(uid) for uid in uids])
        self._ball_ok[rows] = ((self.full_cover @ interests.T) >= theta).T
        self._filled[rows] = True

    def reduce(
        self, index: np.ndarray, width: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(lb, seed_ok, ball_ok, g_min)`` for a ``(block, tau)`` array
        of groups as local indices, over the first ``width`` seeds (all
        by default).

        The first three are ``(block, width)`` arrays, ``g_min`` has one
        entry per group (``inf`` when no seed is viable).
        """
        fresh = index[~self._filled[index]]
        if fresh.size:
            self._fill(np.unique(fresh).tolist())
        cols = slice(None, width)
        lb = self._lb[:, cols][index].max(axis=1)
        seed_ok = self._seed_ok[:, cols][index].all(axis=1)
        ball_ok = self._ball_ok[:, cols][index].all(axis=1)
        g_min = np.where(seed_ok | ball_ok, lb, np.inf).min(
            axis=1, initial=np.inf
        )
        return lb, seed_ok, ball_ok, g_min


class PairKernel:
    """Vectorized evaluation of (group, seed) pairs (Lemma 5 / Eqs. 5-6).

    The scalar refinement path costs one ``position_distance_from_map``
    call per (member, POI) pair and a Python keyword scan per (group,
    seed). This kernel restructures the work around dense arrays:

    * one cached float64 distance row per *member* covering **all**
      POIs (a gather over the member's dense SSSP vector from
      :meth:`~repro.roadnet.shortest_path.DistanceOracle.dense_distances_from`);
    * one gather-and-reduce per *block* of groups over the candidate
      seeds (:class:`BlockGates`), and one max-reduce over all POIs for
      a group only when some pair needs the prefix scan
      (:class:`GroupState`);
    * per (group, seed) pair only O(1) gates plus — when the seed alone
      is not enough — a stable argsort of the ball's gathered distances
      and a cumulative-coverage matmul for the feasible-prefix scan;
    * before that scan, a per-member lower bound of the pair's value
      (:meth:`member_bound`, the singleton group's optimum at the seed):
      Definition 5 makes the group's region theta-match every member,
      so by Lemma 2 no member's own best region is farther than the
      group's, and a pair with a member bound ``>= kth`` cannot win.

    Outcomes are identical to :func:`best_region_for_seed` (post
    minimal-prefix fix): the distance values are bitwise-equal IEEE
    expressions and the prefix order uses the same stable tie-breaking.
    :func:`best_region_for_seed` stays as the correctness reference:
    the exhaustive :class:`~repro.core.baseline.BaselineProcessor` runs
    on it and ``tests/unit/test_pair_kernel.py`` compares the two.

    The kernel lives as long as the road graph and follows POI and user
    mutations (:meth:`follow`) instead of being rebuilt:

    * every POI owns one *slot* (a column of every per-POI array) for
      life: an added POI appends a slot, a removed one retires its slot
      (it leaves ``poi_index`` and ``live``, and no reader indexes it
      again), and a POI re-added under the same id gets a new slot;
    * a member row or feasibility array covers the slots that existed
      when it was computed, and the first read after POIs were added
      extends it over the new slots only;
    * a moved or added user loses its member row, feasibility arrays
      and interest vector, and its ``user_positions`` entry is
      rewritten in place; a friend edit costs nothing;
    * a ball is dropped when the road index logs its seed's region as
      changed (``region_log``); a kernel built without a log cannot
      follow.

    Slot order changes no answer: seeds, balls and prefix scans order
    by distance and region order, never by slot. Live-slot values are
    bitwise those of a kernel built fresh on the mutated network.
    """

    def __init__(
        self,
        network: SpatialSocialNetwork,
        region_log: Optional[ChangeLog] = None,
    ) -> None:
        self.network = network
        self.version = network.version
        self._road_version = network.road.version
        self._poi_cursor = network.poi_changes.end
        self._user_cursor = network.social.user_changes.end
        self._region_log = region_log
        self._region_cursor = 0 if region_log is None else region_log.end
        self.indexer = network.distances.vertex_indexer()
        #: slot -> POI id (a retired slot keeps the id it had)
        self.poi_ids: List[int] = network.poi_ids()
        #: live POI id -> slot
        self.poi_index: Dict[int, int] = {
            pid: i for i, pid in enumerate(self.poi_ids)
        }
        #: per slot: whether its POI is still in the network
        self.live = np.ones(len(self.poi_ids), dtype=bool)
        self.retired = 0
        pois = [network.poi(pid) for pid in self.poi_ids]
        self.positions = PositionArrays(
            network.road, self.indexer, [p.position for p in pois]
        )
        self.keywords = self._keyword_rows(pois)
        self.keywords_f8 = self.keywords.astype(np.float64)
        # Per-member distance rows, per-(user, theta) seed feasibility
        # and per-(seed, radius) balls share one LRU policy, capped with
        # the same budget as the oracle's map cache (a row is ~n_poi
        # floats, far smaller than the SSSP map it derives from). theta
        # and radius are client-supplied floats, so an unbounded cache
        # would grow with every distinct value a long-running service
        # is asked for.
        self._cache_cap = network.distances.cache_size
        self._member_rows = LRU()  # uid -> distance row
        self._balls = OwnedLRU()
        self._user_feasible = OwnedLRU()
        self._user_positions: Optional[PositionArrays] = None
        self._user_index: Optional[Dict[int, int]] = None
        self._interest_vectors: Dict[int, np.ndarray] = {}

    def _keyword_rows(self, pois: Sequence) -> np.ndarray:
        keywords = np.zeros((len(pois), self.network.num_keywords), dtype=bool)
        for i, poi in enumerate(pois):
            for f in poi.keywords:
                keywords[i, f] = True
        return keywords

    # -- following mutations ------------------------------------------

    def follow(self, region_log: ChangeLog) -> bool:
        """Catch up with the network's mutations since the last call.

        Reads only the ids the change logs name: the POIs added or
        removed (``network.poi_changes``), the users added or moved
        (``network.social.user_changes``) and the seeds whose regions
        changed (``region_log``, the road index's log this kernel was
        built with). Returns False, having changed nothing worth
        keeping, when the kernel cannot follow and must be rebuilt: the
        road graph changed, ``region_log`` is not the kernel's, a log no
        longer holds the kernel's cursor, or retired slots would
        outnumber live ones.
        """
        network = self.network
        if (
            network.road.version != self._road_version
            or region_log is not self._region_log
        ):
            return False
        poi_changes = network.poi_changes
        user_changes = network.social.user_changes
        pois = poi_changes.since(self._poi_cursor)
        users = user_changes.since(self._user_cursor)
        seeds = region_log.since(self._region_cursor)
        if pois is None or users is None or seeds is None:
            return False
        self._poi_cursor = poi_changes.end
        self._user_cursor = user_changes.end
        self._region_cursor = region_log.end
        self.version = network.version
        for uid in set(users):
            self._forget_user(uid)
        added = []
        for pid in dict.fromkeys(pois):
            slot = self.poi_index.pop(pid, None)
            if slot is not None:
                self.live[slot] = False
                self.retired += 1
            if network.has_poi(pid):
                added.append(network.poi(pid))
        if self.retired > len(self.poi_index) + len(added):
            return False
        if added:
            self._add_slots(added)
        for seed in set(seeds):
            self._balls.drop(seed)
        return True

    def _add_slots(self, pois: Sequence) -> None:
        first = len(self.poi_ids)
        for i, poi in enumerate(pois):
            self.poi_ids.append(poi.poi_id)
            self.poi_index[poi.poi_id] = first + i
        self.live = np.concatenate((self.live, np.ones(len(pois), dtype=bool)))
        self.positions.extend(
            self.network.road, self.indexer, [p.position for p in pois]
        )
        keywords = self._keyword_rows(pois)
        self.keywords = np.concatenate((self.keywords, keywords))
        self.keywords_f8 = np.concatenate(
            (self.keywords_f8, keywords.astype(np.float64))
        )

    def _forget_user(self, uid: int) -> None:
        self._member_rows.pop(uid, None)
        self._user_feasible.drop(uid)
        self._interest_vectors.pop(uid, None)
        positions = self._user_positions
        if positions is None:
            return
        home = self.network.social.user(uid).home
        i = self._user_index.get(uid)
        if i is None:
            self._user_index[uid] = len(positions)
            positions.extend(self.network.road, self.indexer, [home])
        else:
            positions.replace(i, self.network.road, self.indexer, home)

    # -- cached per-entity arrays -------------------------------------

    def member_row(self, uid: int) -> np.ndarray:
        """``dist_RN(u, o)`` for every POI slot ``o``, cached per user.

        Bitwise-identical to per-POI ``position_distance_from_map``
        calls over the user's oracle map (same gather + IEEE min, same
        same-edge correction), evaluated once for all POIs. A cached
        row shorter than the slot count is extended over the new slots.
        """
        row = self._member_rows.hit(uid)
        if row is None or len(row) < len(self.poi_ids):
            network = self.network
            user = network.social.user(uid)
            dense = network.distances.dense_distances_from(
                ("user", uid), user.home
            )
            start = 0 if row is None else len(row)
            tail = self.positions.distances_from_dense(
                network.road, dense, user.home, start
            )
            row = tail if row is None else np.concatenate((row, tail))
            row.flags.writeable = False
            self._member_rows.put(uid, row, self._cache_cap)
        return row

    def interest_vector(self, uid: int) -> np.ndarray:
        """The user's interest weights as a cached float64 array."""
        vec = self._interest_vectors.get(uid)
        if vec is None:
            vec = np.asarray(
                self.network.social.user(uid).interests, dtype=np.float64
            )
            vec.flags.writeable = False
            self._interest_vectors[uid] = vec
        return vec

    def user_poi_feasible(self, uid: int, theta: float) -> np.ndarray:
        """Per-slot bool: does ``o``'s own keyword set theta-match ``uid``?

        One matvec over the POI×topic matrix, cached per (user, theta)
        and extended over slots added since; group-level seed
        feasibility is the AND of its members' arrays.
        """
        key = (uid, theta)
        arr = self._user_feasible.hit(key)
        if arr is None or len(arr) < len(self.poi_ids):
            start = 0 if arr is None else len(arr)
            tail = (
                self.keywords_f8[start:] @ self.interest_vector(uid)
            ) >= theta
            arr = tail if arr is None else np.concatenate((arr, tail))
            arr.flags.writeable = False
            self._user_feasible.put(key, arr, self._cache_cap)
        return arr

    def user_positions(self) -> Tuple[PositionArrays, Dict[int, int]]:
        """Array image of every user's home position (built lazily)."""
        if self._user_positions is None:
            social = self.network.social
            uids = list(social.user_ids())
            self._user_index = {uid: i for i, uid in enumerate(uids)}
            self._user_positions = PositionArrays(
                self.network.road, self.indexer,
                [social.user(uid).home for uid in uids],
            )
        return self._user_positions, self._user_index

    def cached_ball(self, cache_key: Hashable) -> Optional[BallArrays]:
        """The ball cached under ``cache_key``, or ``None``: lets a
        caller skip building a region the cache already holds."""
        return self._balls.hit(cache_key)

    def ball(
        self,
        seed_poi: int,
        region_poi_ids: Sequence[int],
        cache_key: Optional[Hashable] = None,
    ) -> BallArrays:
        """Ball arrays for a seed's region, cached under ``cache_key``
        (a tuple whose first item is the seed)."""
        if cache_key is not None:
            cached = self._balls.hit(cache_key)
            if cached is not None:
                return cached
        arrays = BallArrays(self, seed_poi, region_poi_ids)
        if cache_key is not None:
            self._balls.put(cache_key, arrays, self._cache_cap)
        return arrays

    def group_state(
        self, group: Iterable[int], theta: float
    ) -> GroupState:
        return GroupState(self, group, theta)

    def member_bound(
        self, uid: int, ball: BallArrays, theta: float
    ) -> float:
        """The optimum of the singleton group ``{uid}`` at ``ball``'s seed.

        ``row_u[seed]`` when the seed alone theta-matches the user;
        otherwise ``max(row_u[seed], row_u[p])`` for the first ball POI
        ``p``, in stable ``row_u`` order, at which the cumulative keyword
        cover (seed topics included) theta-matches the user; ``+inf``
        when the whole ball fails the user.

        This is a lower bound of :meth:`best_region`'s value for every
        group containing ``uid`` at this seed: the group's region ``R*``
        theta-matches ``uid`` (Definition 5, condition 5) and
        ``gmax(p) >= row_u(p)``, so the ``row_u`` prefix through
        ``max_{p in R*} row_u(p) <= value`` covers ``R*``'s topics and,
        Match_Score being monotone in ``R`` (Lemma 2), theta-matches
        ``uid`` too. The distances are the same floats under ``max`` and
        comparisons only; the score test accepts ``theta -
        MATCH_SLACK``, which covers any summation order of the group
        scan's matmul (a score is a sum of at most ``d`` weights of a
        normalized distribution), so it is never stricter than
        :meth:`best_region`'s own test.
        """
        row = self.member_row(uid)
        seed_value = float(row[ball.seed_dense])
        if self.user_poi_feasible(uid, theta)[ball.seed_dense]:
            return seed_value
        dist = row[ball.dense_idx]
        order = np.argsort(dist, kind="stable")
        cum = np.logical_or.accumulate(ball.keywords[order], axis=0)
        cum |= self.keywords[ball.seed_dense]
        feasible = cum @ self.interest_vector(uid) >= theta - MATCH_SLACK
        cut = int(np.argmax(feasible))
        if not feasible[cut]:
            return math.inf
        return max(seed_value, float(dist[order[cut]]))

    # -- the (group, seed) evaluation ---------------------------------

    def best_region(
        self,
        ball: BallArrays,
        state: GroupState,
        skip_gates: bool = False,
    ) -> Optional[Tuple[FrozenSet[int], float]]:
        """Vectorized :func:`best_region_for_seed` for one pair.

        Three exits, cheapest first: the seed alone already satisfies
        every member (O(1) lookup into the group's precomputed gate);
        the full ball cannot satisfy some member (one matvec); otherwise
        the exact minimal feasible prefix via stable argsort +
        cumulative coverage. The refinement loop batch-evaluates the
        first two gates for every seed of a block of groups
        (:class:`BlockGates`) and passes ``skip_gates=True`` so only
        the prefix scan runs here.
        """
        theta = state.theta
        if not skip_gates:
            if state.seed_feasible[ball.seed_dense]:
                return (
                    frozenset((ball.seed_poi,)),
                    float(state.gmax[ball.seed_dense]),
                )
            # Full-ball gate: the scan below can only cover what the
            # whole ball covers; if that fails a member, no prefix can
            # succeed.
            full_scores = state.interests @ ball.full_cover_f8
            if full_scores.min() < theta:
                return None
        dmax = state.gmax[ball.dense_idx]
        order = np.argsort(dmax, kind="stable")
        kw_ordered = ball.keywords[order]
        seed_row = self.keywords[ball.seed_dense]
        cum = np.logical_or.accumulate(kw_ordered, axis=0)
        cum |= seed_row
        scores = cum.astype(np.float64) @ state.interests.T
        feasible = scores.min(axis=1) >= theta
        if not feasible.any():
            # Unreachable when the gate and the scan agree exactly;
            # kept as a defensive consistent answer (ball infeasible).
            return None
        cut = int(np.argmax(feasible))
        # A scanned POI joins R only when it contributes fresh topics
        # relative to the coverage before it (seed topics included) —
        # the minimal-prefix rule of the scalar reference.
        prev = np.empty_like(cum[: cut + 1])
        prev[0] = seed_row
        if cut:
            prev[1:] = cum[:cut]  # rows already include the seed topics
        contributed = (kw_ordered[: cut + 1] & ~prev).any(axis=1)
        chosen_local = order[: cut + 1][contributed]
        poi_ids = ball.poi_ids
        chosen = frozenset(poi_ids[i] for i in chosen_local) | {ball.seed_poi}
        value = float(dmax[ball.seed_local])
        if chosen_local.size:
            value = max(value, float(dmax[chosen_local].max()))
        return chosen, value


def refine_pairs(
    kernel: PairKernel,
    region: Callable[[int, float], Sequence[int]],
    users: Sequence[int],
    groups: Iterable[Tuple[int, ...]],
    seeds: Sequence[int],
    seed_dist_arr: np.ndarray,
    theta: float,
    radius: float,
    tau: int,
    k: int,
    stats: QueryStatistics,
    explain=None,
) -> Tuple[List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]], int, int, int]:
    """Line 31: evaluate (group, seed) pairs with early termination.

    ``groups`` are ``tau``-tuples of local indices into ``users`` (one
    :class:`GroupSpace`'s users); ``seeds`` are POI ids in ascending
    ``(dist(u_q, o), id)`` order and ``seed_dist_arr`` their distances;
    ``region(seed, radius)`` lists the POIs of a seed's ball; it is
    called only for seeds whose ball the kernel has not cached. Every entry
    point that refines differs only in where its groups and seeds come
    from.

    Returns the running top-k distinct (S, R) pairs as sorted
    ``(value, users, pois)`` key tuples, then the number of prefix scans
    run, of scans the member gate skipped and of groups that reached the
    pair loop. The k-th value is the pruning threshold: any region of a
    seed farther from u_q than it cannot enter the top-k, because the
    seed belongs to its region (Lemma 5). A pair enters only with a
    value strictly below the k-th, so of pairs tied at the cut the
    first met stays.

    A block's dead groups (``g_min >= kth``, :class:`BlockGates`) are
    only counted; a frozenset and the pair loop are built for live
    groups alone.

    A pair that passes the block gates still skips its prefix scan when
    some member's own best region at the seed
    (:meth:`PairKernel.member_bound`, Lemma 2 with Definition 5's
    per-member theta condition) is already ``>= kth``: the group's
    region theta-matches that member and is at least as far from it, so
    the pair's value is ``>= kth`` too. Bounds are memoized per (member,
    seed) for the query and computed lazily, for pairs that reach this
    gate only. A skipped pair was already counted as examined and could
    not have been accepted, so answers and every count stay as without
    the gate.
    """
    ex = explain
    best: List[Tuple[float, Tuple[int, ...], Tuple[int, ...]]] = []
    seen_pairs: Set[Tuple[frozenset, frozenset]] = set()
    n_seeds = len(seeds)
    kth = math.inf

    def accept(value: float, frozen_group: frozenset, pois: frozenset) -> None:
        """O(log k + k) sorted insert; maintains ``kth`` in place."""
        nonlocal kth
        seen_pairs.add((frozen_group, pois))
        insort(
            best, (value, tuple(sorted(frozen_group)), tuple(sorted(pois)))
        )
        if len(best) > k:
            dropped = best.pop()
            seen_pairs.discard(
                (frozenset(dropped[1]), frozenset(dropped[2]))
            )
        kth = best[-1][0] if len(best) >= k else math.inf

    groups = iter(groups)
    counters = stats.pruning
    # Every seed's ball is built once per query (and cached across
    # queries under (seed, radius)); the stacked full-cover matrix
    # drives the ball gate as one matmul per newly seen member.
    # Groups are gated in blocks: one gather reduces every group's
    # seed gates and Lemma-5 bounds, and a group whose best viable
    # bound cannot beat kth skips the pair loop (and its GroupState)
    # entirely.
    balls = []
    for s in seeds:
        ball = kernel.cached_ball((s, radius))
        if ball is None:
            ball = kernel.ball(s, region(s, radius), cache_key=(s, radius))
        balls.append(ball)
    seed_dense_arr = np.fromiter(
        (b.seed_dense for b in balls), dtype=np.int64, count=n_seeds,
    )
    gates = (
        BlockGates(
            kernel, users, seed_dense_arr,
            np.stack([b.full_cover_f8 for b in balls]), theta,
        )
        if n_seeds else None
    )
    # Per-member gate: (local index, seed index) -> the singleton
    # optimum, computed lazily, only for pairs that pass the block
    # gates.
    bounds: Dict[Tuple[int, int], float] = {}
    scans = skips = live_groups = 0

    def member_gated(members: Tuple[int, ...], idx: int) -> bool:
        """Some member's own best region at seed ``idx`` is already
        ``>= kth``, hence so is the group's."""
        ball = balls[idx]
        for m in members:
            bound = bounds.get((m, idx))
            if bound is None:
                bound = bounds[m, idx] = kernel.member_bound(
                    users[m], ball, theta
                )
            if bound >= kth:
                return True
        return False

    def skip_dead(run: int) -> None:
        """Account for ``run`` groups whose ``g_min >= kth``: the
        pair loop would examine the first ``limit`` pairs of each and
        accept none of them."""
        counters.candidate_pairs_examined += limit * run
        if ex is not None:
            ex.survive("refine.pairs", limit * run)
            if limit < n_seeds:
                margin = float(seed_dist_arr[limit]) - kth
                for _ in range(run):
                    ex.prune(
                        "refine.pairs", "pair.distance",
                        n_seeds - limit, margin,
                    )

    # Lemma 5 / Eq. 6 against the sorted seed-distance array: seeds
    # past `limit` all fail dist < kth, so the pair loop's break
    # point is one searchsorted, redone whenever an accept moves kth.
    limit = int(np.searchsorted(seed_dist_arr, kth, side="left"))
    while True:
        block = list(islice(groups, GROUP_BLOCK))
        if not block:
            break
        stats.groups_refined += len(block)
        if ex is not None:
            ex.visit("refine.pairs", n_seeds * len(block))
        if not n_seeds:
            continue
        # Seeds from `limit` on have dist(u_q, o) >= kth, so their
        # bounds are >= kth: only the first `limit` decide g_min < kth
        # and, as kth only falls, only they are read below.
        index = np.fromiter(
            chain.from_iterable(block), dtype=np.intp,
            count=len(block) * tau,
        ).reshape(len(block), tau)
        lb_block, ok_block, ball_block, g_min = gates.reduce(
            index, limit
        )
        # A group dead at the block's start stays dead; a live one is
        # re-checked against the current kth. Between live groups
        # kth, and so `limit`, cannot move.
        done = 0
        for j in np.flatnonzero(g_min < kth).tolist():
            if g_min[j] >= kth:
                continue
            skip_dead(j - done)
            done = j + 1
            live_groups += 1
            members = block[j]
            group = frozenset([users[m] for m in members])
            # Per seed: the seed-alone gate, the exact pair value
            # lower bound and the full-ball gate.
            seed_ok = ok_block[j].tolist()
            seed_lb = lb_block[j].tolist()
            ball_ok = ball_block[j].tolist()
            state = None
            i = 0
            while i < limit:
                if ex is not None:
                    ex.survive("refine.pairs")
                counters.candidate_pairs_examined += 1
                idx = i
                i += 1
                lb = seed_lb[idx]
                if seed_ok[idx]:
                    # Seed alone suffices: R = {o}, value known.
                    if lb >= kth:
                        continue
                    pois = frozenset((seeds[idx],))
                    value = lb
                else:
                    # Infeasible ball, or value provably >= kth: the
                    # scan cannot produce a top-k entrant.
                    if not ball_ok[idx] or lb >= kth:
                        continue
                    if member_gated(members, idx):
                        skips += 1
                        continue
                    scans += 1
                    if state is None:
                        state = kernel.group_state(group, theta)
                    result = kernel.best_region(
                        balls[idx], state, skip_gates=True
                    )
                    if result is None:
                        continue
                    pois, value = result
                if (group, pois) in seen_pairs or value >= kth:
                    continue
                accept(value, group, pois)
                limit = int(
                    np.searchsorted(seed_dist_arr, kth, side="left")
                )
            if ex is not None and i < n_seeds:
                ex.prune(
                    "refine.pairs", "pair.distance",
                    n_seeds - i,
                    float(seed_dist_arr[i]) - kth,
                )
        skip_dead(len(block) - done)
    return best, scans, skips, live_groups


def sample_connected_groups(
    space: GroupSpace,
    tau: int,
    rng,
    num_samples: int,
    max_attempts_factor: int = 25,
) -> List[Tuple[int, ...]]:
    """Random connected expansions from the query vertex.

    The paper's future-work refinement strategy: "apply subset sampling
    by randomly expanding the subgraph starting from the query vertex
    u_q". Each attempt grows a group greedily — start at ``u_q``, keep a
    frontier of neighbouring candidates, and repeatedly absorb a random
    frontier member that is pairwise-compatible (its bit is set in the
    AND of the members' ``compat`` masks, as in
    :func:`enumerate_group_indices`) — until the group reaches ``tau``
    or the frontier runs dry. The ``tau``-th member is never expanded:
    it may lie ``tau - 1`` hops out, beyond the space's inner users.

    Args:
        space: the users the expansion may reach (the issuer is
            ``space.root``).
        tau: group size.
        rng: a ``numpy.random.Generator``.
        num_samples: number of *distinct* groups to aim for.
        max_attempts_factor: give up after
            ``max_attempts_factor * num_samples`` *failed* expansions —
            dead ends (the frontier dried up below ``tau``) and
            duplicates of already-found groups. Successful expansions
            that discover a new group never count against the budget, so
            dense neighbourhoods are not silently under-sampled.

    Returns:
        Up to ``num_samples`` distinct valid groups (fewer when the
        neighbourhood is too sparse) as sorted tuples of local indices,
        in ascending order. Deterministic for a given ``rng`` state.
    """
    root = space.root
    if tau == 1:
        return [(root,)]
    compat = space.compat
    start = space.expand(root)
    found: Set[Tuple[int, ...]] = set()
    failed_attempts = 0
    max_attempts = max_attempts_factor * max(num_samples, 1)
    while len(found) < num_samples and failed_attempts < max_attempts:
        group = [root]
        members = 1 << root
        mask = compat[root]
        frontier = list(start)
        while len(group) < tau and frontier:
            candidate = frontier.pop(int(rng.integers(len(frontier))))
            if members >> candidate & 1 or not mask >> candidate & 1:
                continue
            group.append(candidate)
            members |= 1 << candidate
            if len(group) < tau:
                nbrs = space.neighbours[candidate]
                if nbrs is None:
                    nbrs = space.expand(candidate)
                mask &= compat[candidate]
                frontier.extend([j for j in nbrs if not members >> j & 1])
        if len(group) == tau:
            key = tuple(sorted(group))
            if key in found:
                failed_attempts += 1  # duplicate: no progress made
            else:
                found.add(key)
        else:
            failed_attempts += 1  # dead end: frontier dried up below tau
    return sorted(found)
