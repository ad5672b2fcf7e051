"""Synthetic spatial-social network generators (Section 6.1, UNI / ZIPF).

The paper generates synthetic data as follows, which we follow step by
step:

* **Road network** — random intersection points in a 2D space, connected
  to spatially close neighbours without introducing new crossings (the
  road network is a planar graph). We realize this with a Delaunay
  triangulation (planar by construction) thinned down to the target
  average degree while a random spanning tree keeps it connected.
* **POIs** — ``n`` POIs placed on randomly selected edges, ``w ∈ [0, 5]``
  POIs per selected edge with ``w`` Uniform/Zipf distributed; each POI's
  keyword set is drawn from the keyword domain ``[0, d)``.
* **Social network** — each user connected to ``deg(G_s)`` random users,
  with the degree Uniform/Zipf in ``[1, 10]``; each user carries a
  ``d``-dimensional interest vector with Uniform/Zipf entries in
  ``[0, 1]``.
* **Coupling** — users are mapped to random positions on road edges.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..config import DATA_SPACE_SIZE
from ..exceptions import InvalidParameterError
from ..network import SpatialSocialNetwork
from ..roadnet.graph import NetworkPosition, RoadNetwork
from ..roadnet.poi import POI
from ..socialnet.graph import SocialNetwork, User
from .distributions import Distribution, Sampler, make_sampler

#: Per-edge POI count domain from the paper ("w ∈ [0, 5]").
POIS_PER_EDGE_RANGE: Tuple[int, int] = (0, 5)
#: Social degree domain from the paper ("within the range [1, 10]").
SOCIAL_DEGREE_RANGE: Tuple[int, int] = (1, 10)


def _delaunay_edges(points: np.ndarray) -> List[Tuple[int, int]]:
    """Unique undirected edges of the Delaunay triangulation of ``points``.

    Falls back to a nearest-neighbour chain for degenerate inputs (two
    points, or collinear layouts) where Qhull cannot triangulate.
    """
    n = len(points)
    if n < 2:
        return []
    # Deferred: scipy.spatial is a heavy import that only generation needs.
    from scipy.spatial import Delaunay, QhullError

    try:
        tri = Delaunay(points)
    except QhullError:
        order = np.argsort(points[:, 0], kind="stable")
        return [(int(order[i]), int(order[i + 1])) for i in range(n - 1)]
    edges = set()
    for simplex in tri.simplices:
        for i in range(3):
            a, b = int(simplex[i]), int(simplex[(i + 1) % 3])
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def generate_road_network(
    num_vertices: int,
    rng: np.random.Generator,
    target_degree: float = 2.4,
    space_size: float = DATA_SPACE_SIZE,
) -> RoadNetwork:
    """A connected, planar random road network.

    Vertices are uniform in ``[0, space_size]^2``; edges come from the
    Delaunay triangulation, thinned (keeping a spanning tree) until the
    average degree is about ``target_degree`` — matching the sparse,
    near-planar degree statistics of real road networks (Table 2 reports
    2.1-2.4).
    """
    if num_vertices < 2:
        raise InvalidParameterError("road network needs at least 2 vertices")
    points = rng.random((num_vertices, 2)) * space_size
    road = RoadNetwork()
    for vid in range(num_vertices):
        road.add_vertex(vid, float(points[vid, 0]), float(points[vid, 1]))

    edges = _delaunay_edges(points)
    # Build a spanning tree over the triangulation to guarantee
    # connectivity, then add the shortest leftover edges up to the target
    # edge budget.
    parent = list(range(num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def lengths(edge: Tuple[int, int]) -> float:
        a, b = edge
        return float(np.hypot(*(points[a] - points[b])))

    tree_edges: List[Tuple[int, int]] = []
    extra_edges: List[Tuple[int, int]] = []
    for a, b in sorted(edges, key=lengths):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree_edges.append((a, b))
        else:
            extra_edges.append((a, b))

    target_edges = max(num_vertices - 1, int(target_degree * num_vertices / 2))
    budget = target_edges - len(tree_edges)
    rng.shuffle(extra_edges)
    chosen = tree_edges + extra_edges[: max(budget, 0)]
    for a, b in chosen:
        road.add_edge(a, b)
    return road


def _random_keyword_set(
    sampler: Sampler,
    rng: np.random.Generator,
    num_keywords: int,
    max_keywords_per_poi: int = 2,
) -> frozenset:
    """A non-empty keyword set for one POI.

    The number of keywords is Uniform/Zipf in ``[1, max_keywords_per_poi]``
    and the keyword identities are drawn (without replacement) with the
    distribution's category weights over the domain ``[0, d)`` — the
    paper's "each keyword has the value domain [0, 4]" for the default
    ``d = 5``.
    """
    count = min(sampler.integers(1, max_keywords_per_poi), num_keywords)
    weights = sampler.choice_weights(num_keywords)
    chosen = rng.choice(num_keywords, size=count, replace=False, p=weights)
    return frozenset(int(k) for k in chosen)


def generate_pois(
    road: RoadNetwork,
    num_pois: int,
    sampler: Sampler,
    rng: np.random.Generator,
    num_keywords: int,
) -> List[POI]:
    """``num_pois`` POIs on randomly selected road edges.

    Edges are selected at random; each selected edge receives
    ``w ∈ [0, 5]`` POIs (Uniform/Zipf) until the total reaches
    ``num_pois``.
    """
    if num_pois < 0:
        raise InvalidParameterError("num_pois must be >= 0")
    all_edges = list(road.edges())
    if not all_edges and num_pois > 0:
        raise InvalidParameterError("cannot place POIs on an edgeless road network")
    pois: List[POI] = []
    while len(pois) < num_pois:
        u, v, length = all_edges[int(rng.integers(len(all_edges)))]
        per_edge = sampler.integers(*POIS_PER_EDGE_RANGE)
        for _ in range(per_edge):
            if len(pois) >= num_pois:
                break
            offset = float(rng.random() * length)
            position = NetworkPosition(u, v, offset)
            location = road.position_coords(position)
            pois.append(
                POI(
                    poi_id=len(pois),
                    location=location,
                    position=position,
                    keywords=_random_keyword_set(sampler, rng, num_keywords),
                )
            )
    return pois


def random_position(road: RoadNetwork, rng: np.random.Generator) -> NetworkPosition:
    """A uniformly random position on a random edge of ``road``."""
    all_edges = list(road.edges())
    if not all_edges:
        raise InvalidParameterError("road network has no edges")
    u, v, length = all_edges[int(rng.integers(len(all_edges)))]
    return NetworkPosition(u, v, float(rng.random() * length))


#: Fraction of friendship stubs wired within the same interest community.
HOMOPHILY = 0.6
#: Fraction of users living in small satellite components, mirroring the
#: disconnected fringe of real check-in social networks (Brightkite's
#: largest weakly connected component covers only ~85% of its users).
SATELLITE_FRACTION = 0.18


def interest_vector(
    num_keywords: int,
    primary_topic: int,
    rng: np.random.Generator,
    sampler: Sampler,
) -> np.ndarray:
    """A normalized interest distribution concentrated on a primary topic.

    The paper models ``u_j.w`` as a "(normalized) weighted vector
    (distribution)" over topics. We generate each user with a dominant
    primary topic (weight ~ U[0.55, 0.95]), a secondary topic taking a
    share of the remainder, and Uniform/Zipf noise over the rest — a
    standard topic-mixture shape that makes the Table-3 gamma thresholds
    behave as in Figure 7(b) (graded selectivity rather than all-or-none).
    """
    primary_weight = float(rng.uniform(0.55, 0.95))
    secondary = int((primary_topic + 1 + rng.integers(max(num_keywords - 1, 1)))
                    % num_keywords)
    secondary_weight = (1.0 - primary_weight) * float(rng.uniform(0.2, 0.5))
    noise = np.asarray(sampler.unit(num_keywords), dtype=float)
    noise_total = float(noise.sum())
    if noise_total > 0:
        noise /= noise_total
    w = noise * (1.0 - primary_weight - secondary_weight)
    w[primary_topic] += primary_weight
    if num_keywords > 1:
        w[secondary] += secondary_weight
    else:
        w[primary_topic] += secondary_weight
    return w / float(w.sum())


def generate_social_network(
    num_users: int,
    road: RoadNetwork,
    sampler: Sampler,
    rng: np.random.Generator,
    num_keywords: int,
) -> SocialNetwork:
    """A random, homophilous social network whose users live on ``road``.

    Each user belongs to an interest community (their primary topic,
    drawn with Uniform/Zipf popularity weights) and receives a target
    degree Uniform/Zipf in ``[1, 10]``. A fraction :data:`HOMOPHILY` of
    friendship stubs is wired within the user's community — the
    interest-assortative structure real location-based social networks
    exhibit, without which pairwise-similar connected groups (the GP-SSN
    answer shape) would be vanishingly rare. A chain edge backstops
    degree-0 users so the graph cannot fragment into lone vertices.
    """
    if num_users < 1:
        raise InvalidParameterError("social network needs at least 1 user")
    social = SocialNetwork()
    edge_list = list(road.edges())
    if not edge_list:
        raise InvalidParameterError("road network has no edges to anchor homes")

    num_topics = num_keywords
    topic_weights = sampler.choice_weights(num_topics)
    topics = rng.choice(num_topics, size=num_users, p=topic_weights)
    community: dict = {}
    for uid in range(num_users):
        community.setdefault(int(topics[uid]), []).append(uid)

    # Each interest community gets a geographic anchor: real friend groups
    # cluster in space (same city/district), which is what gives the
    # paper's road-distance pruning its bite — a spatially uniform user
    # population would make every user-set bound span the whole map.
    centers = {
        k: road.coords(int(rng.choice(list(road.vertices()))))
        for k in range(num_topics)
    }
    spread = 0.18 * DATA_SPACE_SIZE

    def home_near(center) -> NetworkPosition:
        x = float(center.x + rng.normal(0.0, spread))
        y = float(center.y + rng.normal(0.0, spread))
        vertex = road.nearest_vertex(x, y)
        neighbors = road.neighbors(vertex)
        other = min(neighbors, key=neighbors.get)
        length = road.edge_length(vertex, other)
        return NetworkPosition(vertex, other, float(rng.random() * length))

    for uid in range(num_users):
        home = home_near(centers[int(topics[uid])])
        interests = interest_vector(num_keywords, int(topics[uid]), rng, sampler)
        social.add_user(User(user_id=uid, interests=interests, home=home))

    # Split off the satellite fringe: those users form tiny cliques among
    # themselves instead of joining the giant component (as in real
    # check-in networks), which is what the social-distance pruning of
    # Lemma 4 / Lemma 9 rules out at query time.
    num_satellites = int(num_users * SATELLITE_FRACTION)
    shuffled = list(range(num_users))
    rng.shuffle(shuffled)
    satellites = shuffled[:num_satellites]
    main_users = shuffled[num_satellites:]
    satellite_set = set(satellites)

    idx = 0
    while idx < len(satellites):
        clique_size = min(int(rng.integers(2, 5)), len(satellites) - idx)
        clique = satellites[idx: idx + clique_size]
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                social.add_friendship(a, b)
        idx += clique_size

    peers_of = {
        topic: [p for p in members if p not in satellite_set]
        for topic, members in community.items()
    }
    for uid in main_users:
        degree = sampler.integers(*SOCIAL_DEGREE_RANGE)
        peers = peers_of[int(topics[uid])]
        for _ in range(degree):
            if rng.random() < HOMOPHILY and len(peers) > 1:
                other = peers[int(rng.integers(len(peers)))]
            else:
                other = main_users[int(rng.integers(len(main_users)))]
            if other != uid and not social.are_friends(uid, other):
                social.add_friendship(uid, other)
    # Backstop: wire any stray degree-0 main user into the giant component.
    anchor = main_users[0] if main_users else None
    for uid in main_users:
        if not social.friends(uid) and anchor is not None and uid != anchor:
            social.add_friendship(uid, anchor)
    return social


def generate_spatial_social_network(
    num_road_vertices: int,
    num_pois: int,
    num_users: int,
    distribution: Distribution,
    num_keywords: int = 5,
    seed: int = 7,
    target_road_degree: float = 2.4,
) -> SpatialSocialNetwork:
    """A full synthetic ``G_rs`` following the paper's recipe."""
    rng = np.random.default_rng(seed)
    sampler = make_sampler(distribution, rng)
    road = generate_road_network(num_road_vertices, rng, target_road_degree)
    pois = generate_pois(road, num_pois, sampler, rng, num_keywords)
    social = generate_social_network(num_users, road, sampler, rng, num_keywords)
    return SpatialSocialNetwork(road, social, pois, num_keywords)


def uni_dataset(
    num_road_vertices: int = 600,
    num_pois: int = 200,
    num_users: int = 600,
    num_keywords: int = 5,
    seed: int = 7,
) -> SpatialSocialNetwork:
    """The UNI synthetic dataset (all draws Uniform), laptop-scale defaults."""
    return generate_spatial_social_network(
        num_road_vertices, num_pois, num_users,
        Distribution.UNIFORM, num_keywords, seed,
    )


def zipf_dataset(
    num_road_vertices: int = 600,
    num_pois: int = 200,
    num_users: int = 600,
    num_keywords: int = 5,
    seed: int = 7,
) -> SpatialSocialNetwork:
    """The ZIPF synthetic dataset (all draws Zipf), laptop-scale defaults."""
    return generate_spatial_social_network(
        num_road_vertices, num_pois, num_users,
        Distribution.ZIPF, num_keywords, seed,
    )
