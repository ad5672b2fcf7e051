"""Simulated real-world datasets Bri+Cal and Gow+Col (Section 6.1, Table 2).

The paper evaluates on two real spatial-social networks:

* **Bri+Cal** — the Brightkite check-in social network (40K users,
  average degree 10.3) over the California road network (21K vertices,
  average degree 2.1);
* **Gow+Col** — the Gowalla social network (40K users, average degree
  32.1) over the Colorado road network (30K vertices, average degree 2.4).

The original downloads (SNAP, DIMACS) are not available in this offline
environment, so we build *statistically matched simulacra*:

* social graphs are grown by preferential attachment (the heavy-tailed
  degree distribution of real check-in networks) calibrated to the
  Table-2 average degree;
* road networks reuse the planar random-geometric generator calibrated
  to the Table-2 vertex count and degree;
* interest vectors follow the paper's own recipe for the real data:
  users "check in" at POIs, and entry ``f`` of ``u_j.w`` is the fraction
  of the user's check-ins whose POI carries keyword ``f``;
* each user's home is the centroid of their checked-in POIs, snapped to
  the nearest road edge — exactly the paper's mapping.

The ``scale`` parameter shrinks the vertex counts uniformly (degrees are
preserved) so the full benchmark suite runs on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from ..network import SpatialSocialNetwork
from ..roadnet.graph import NetworkPosition, RoadNetwork
from ..roadnet.poi import POI
from ..socialnet.graph import SocialNetwork, User
from ..socialnet.interests import interests_from_visits
from .distributions import Distribution, make_sampler
from .synthetic import generate_pois, generate_road_network


@dataclass(frozen=True)
class DatasetStats:
    """Summary statistics in the shape of the paper's Table 2."""

    name: str
    social_users: int
    social_avg_degree: float
    road_vertices: int
    road_avg_degree: float

    def as_row(self) -> Tuple[str, int, float, int, float]:
        return (
            self.name,
            self.social_users,
            round(self.social_avg_degree, 1),
            self.road_vertices,
            round(self.road_avg_degree, 1),
        )


def preferential_attachment_graph(
    num_users: int,
    avg_degree: float,
    rng: np.random.Generator,
    communities: Optional[Sequence[int]] = None,
    homophily: float = 0.5,
) -> List[Tuple[int, int]]:
    """Friendship edges grown by homophilous preferential attachment.

    Each arriving user attaches to ``m ≈ avg_degree / 2`` existing users
    chosen proportionally to current degree, yielding the power-law degree
    distribution characteristic of Brightkite/Gowalla. When
    ``communities`` assigns each user a community label, a cross-community
    candidate is rejected with probability ``homophily`` (retried), giving
    the interest-assortative mixing real check-in networks show. Returns
    undirected edges over user ids ``0..num_users-1``.
    """
    if num_users < 2:
        raise InvalidParameterError("need at least 2 users")
    m = max(1, int(round(avg_degree / 2.0)))
    m = min(m, num_users - 1)
    edges: List[Tuple[int, int]] = []
    # Repeated-endpoint list: sampling uniformly from it is sampling
    # proportionally to degree.
    endpoint_pool: List[int] = [0]
    for new in range(1, num_users):
        targets: set = set()
        attach = min(m, new)
        attempts = 0
        while len(targets) < attach and attempts < 50 * attach:
            attempts += 1
            if rng.random() < 0.1 or not endpoint_pool:
                candidate = int(rng.integers(new))
            else:
                candidate = endpoint_pool[int(rng.integers(len(endpoint_pool)))]
            if candidate == new:
                continue
            if (
                communities is not None
                and communities[candidate] != communities[new]
                and rng.random() < homophily
            ):
                continue
            targets.add(candidate)
        while len(targets) < attach:  # homophily starved: fill uniformly
            candidate = int(rng.integers(new))
            if candidate != new:
                targets.add(candidate)
        for t in targets:
            edges.append((new, t))
            endpoint_pool.append(new)
            endpoint_pool.append(t)
    return edges


def _checkin_interest_vector(
    pois: Sequence[POI],
    checkin_ids: Sequence[int],
    num_keywords: int,
) -> np.ndarray:
    """Interest vector from a user's check-in POI ids (paper's recipe).

    The concentration exponent peaks the distribution on the dominant
    topic, as topic-discovery pipelines do; without it, multi-keyword
    POIs flatten every vector and no pair clears the Table-3 gamma range.
    """
    counts = np.zeros(num_keywords)
    for pid in checkin_ids:
        for keyword in pois[pid].keywords:
            counts[keyword] += 1.0
    return interests_from_visits(counts, num_keywords, concentration=3.0)


def _home_from_checkins(
    road: RoadNetwork,
    pois: Sequence[POI],
    checkin_ids: Sequence[int],
    rng: np.random.Generator,
) -> NetworkPosition:
    """Home = centroid of checked-in POIs snapped to the nearest vertex's
    cheapest incident edge (the paper sets homes to check-in centroids)."""
    xs = [pois[pid].location.x for pid in checkin_ids]
    ys = [pois[pid].location.y for pid in checkin_ids]
    cx, cy = float(np.mean(xs)), float(np.mean(ys))
    vertex = road.nearest_vertex(cx, cy)
    neighbors = road.neighbors(vertex)
    if not neighbors:  # isolated vertex: should not happen on our generators
        raise InvalidParameterError(f"vertex {vertex} has no incident edges")
    other = min(neighbors, key=neighbors.get)
    length = neighbors[other]
    return NetworkPosition(vertex, other, float(rng.random() * 0.25 * length))


def _simulated_dataset(
    name: str,
    num_users: int,
    social_avg_degree: float,
    num_road_vertices: int,
    road_avg_degree: float,
    num_pois: int,
    num_keywords: int,
    checkins_per_user: Tuple[int, int],
    seed: int,
) -> SpatialSocialNetwork:
    rng = np.random.default_rng(seed)
    sampler = make_sampler(Distribution.UNIFORM, rng)
    road = generate_road_network(
        num_road_vertices, rng, target_degree=road_avg_degree
    )
    pois = generate_pois(road, num_pois, sampler, rng, num_keywords)

    # Users check in preferentially at POIs carrying their favorite
    # keyword (the behavioural skew from which the paper derives the
    # interest vectors of the real datasets); the favorite also acts as
    # the community label for homophilous friendship formation.
    by_keyword: Dict[int, List[int]] = {k: [] for k in range(num_keywords)}
    for poi in pois:
        for k in poi.keywords:
            by_keyword[k].append(poi.poi_id)
    favorites = [int(rng.integers(num_keywords)) for _ in range(num_users)]

    # Each favorite-keyword community also gets a geographic district:
    # check-in populations cluster in space (a user mostly visits their
    # own city), which is what localizes homes and makes road-distance
    # bounds selective, as in the real Brightkite/Gowalla data.
    district_size = max(5, len(pois) // 4)
    district_pool: Dict[int, List[int]] = {}
    for k in range(num_keywords):
        anchor = pois[int(rng.integers(len(pois)))].location
        nearest = sorted(
            pois,
            key=lambda p: (p.location.x - anchor.x) ** 2
            + (p.location.y - anchor.y) ** 2,
        )[:district_size]
        district_pool[k] = [p.poi_id for p in nearest]

    # A user's district POIs carrying the favorite depend on the
    # favorite alone: filter each district once.
    local_favored_pool: Dict[int, List[int]] = {}
    for k, local_pool in district_pool.items():
        favored = set(by_keyword[k])
        local_favored_pool[k] = [
            p for p in local_pool if p in favored
        ] or local_pool

    social = SocialNetwork()
    lo, hi = checkins_per_user
    for uid in range(num_users):
        count = int(rng.integers(lo, hi + 1))
        favorite = favorites[uid]
        favored_pool = by_keyword[favorite]
        local_favored = local_favored_pool[favorite]
        checkins = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.6 and local_favored:
                checkins.append(local_favored[int(rng.integers(len(local_favored)))])
            elif roll < 0.85 and favored_pool:
                checkins.append(favored_pool[int(rng.integers(len(favored_pool)))])
            else:
                checkins.append(int(rng.integers(len(pois))))
        interests = _checkin_interest_vector(pois, checkins, num_keywords)
        home = _home_from_checkins(road, pois, checkins, rng)
        social.add_user(User(user_id=uid, interests=interests, home=home))
    # Real check-in networks keep ~15% of their users outside the giant
    # component; model that fringe as tiny satellite cliques. The core
    # grows by homophilous preferential attachment as before.
    num_satellites = int(num_users * 0.15)
    order = list(range(num_users))
    rng.shuffle(order)
    satellites = order[:num_satellites]
    core = sorted(order[num_satellites:])
    core_index = {uid: i for i, uid in enumerate(core)}
    core_edges = preferential_attachment_graph(
        len(core), social_avg_degree, rng,
        communities=[favorites[uid] for uid in core],
    )
    for ia, ib in core_edges:
        a, b = core[ia], core[ib]
        if not social.are_friends(a, b):
            social.add_friendship(a, b)
    idx = 0
    while idx < len(satellites):
        clique_size = min(int(rng.integers(2, 5)), len(satellites) - idx)
        clique = satellites[idx: idx + clique_size]
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                social.add_friendship(a, b)
        idx += clique_size
    return SpatialSocialNetwork(road, social, pois, num_keywords)


def brightkite_california(
    scale: float = 0.02,
    num_keywords: int = 5,
    seed: int = 11,
) -> SpatialSocialNetwork:
    """Simulacrum of the Bri+Cal dataset (Table 2).

    Full scale (``scale=1.0``): 40K users at degree 10.3 over 21K road
    vertices at degree 2.1. The default scale keeps the degrees and
    shrinks the vertex counts for laptop-scale experiments.
    """
    if scale <= 0:
        raise InvalidParameterError("scale must be > 0")
    return _simulated_dataset(
        name="Bri+Cal",
        num_users=max(40, int(40_000 * scale)),
        social_avg_degree=10.3,
        num_road_vertices=max(40, int(21_000 * scale)),
        road_avg_degree=2.1,
        num_pois=max(30, int(10_000 * scale)),
        num_keywords=num_keywords,
        checkins_per_user=(3, 12),
        seed=seed,
    )


def gowalla_colorado(
    scale: float = 0.02,
    num_keywords: int = 5,
    seed: int = 13,
) -> SpatialSocialNetwork:
    """Simulacrum of the Gow+Col dataset (Table 2).

    Full scale (``scale=1.0``): 40K users at degree 32.1 over 30K road
    vertices at degree 2.4.
    """
    if scale <= 0:
        raise InvalidParameterError("scale must be > 0")
    return _simulated_dataset(
        name="Gow+Col",
        num_users=max(40, int(40_000 * scale)),
        social_avg_degree=32.1,
        num_road_vertices=max(40, int(30_000 * scale)),
        road_avg_degree=2.4,
        num_pois=max(30, int(10_000 * scale)),
        num_keywords=num_keywords,
        checkins_per_user=(3, 20),
        seed=seed,
    )


def dataset_stats(name: str, network: SpatialSocialNetwork) -> DatasetStats:
    """Table-2-style statistics for any spatial-social network."""
    return DatasetStats(
        name=name,
        social_users=network.social.num_users,
        social_avg_degree=network.social.average_degree(),
        road_vertices=network.road.num_vertices,
        road_avg_degree=network.road.average_degree(),
    )
