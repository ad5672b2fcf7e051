"""Road pivots are engine-invariant: same choice, bit-identical distances.

``select_pivots_road`` runs every SSSP on the network's distance engine.
The CSR kernel (scipy rows at these sizes) and both contraction-hierarchy
engines must pick the same pivots and report the same
``dist_RN(pos, rp_k)`` float for every POI and user — the float the
reference dict-walking Dijkstra computes — so the index built on any
engine answers identically.
"""

import numpy as np
import pytest

from repro.datagen.scale import generate_grid_network
from repro.experiments.harness import DATASET_NAMES, build_dataset
from repro.index.pivots import select_pivots_road
from repro.roadnet.engines import make_engine
from repro.roadnet.shortest_path import (
    multi_source_dijkstra,
    position_distance_from_map,
)

ENGINES = ("csr", "ch", "lazy-ch")


def positions_of(network):
    return [poi.position for poi in network.pois()] + [
        network.social.user(uid).home for uid in network.social.user_ids()
    ]


def pivot_fingerprint(network, engine_name):
    engine = make_engine(engine_name, network.road)
    index = select_pivots_road(engine, 5, np.random.default_rng(7))
    return index.pivots, [index.distances(pos) for pos in positions_of(network)]


def reference_distances(network, pivots):
    road = network.road
    maps = [multi_source_dijkstra(road, [(p, 0.0)]) for p in pivots]
    return [
        [position_distance_from_map(road, dist_map, pos) for dist_map in maps]
        for pos in positions_of(network)
    ]


def assert_engine_parity(network):
    want_pivots, want_dists = pivot_fingerprint(network, ENGINES[0])
    assert want_dists == reference_distances(network, want_pivots)
    for name in ENGINES[1:]:
        pivots, dists = pivot_fingerprint(network, name)
        assert pivots == want_pivots, name
        # Lists of floats compare exactly: bit-identical, not approximate.
        assert dists == want_dists, name


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_section_6_1_datasets(dataset):
    assert_engine_parity(build_dataset(dataset, seed=7))


def test_grid_10k():
    assert_engine_parity(generate_grid_network(10_000, 1000, 1000, seed=7))
