"""Road pivots carry the reference distances, bit for bit.

``select_pivots_road`` runs every SSSP on the CSR ``dist_RN`` engine
(scipy rows at these sizes). For every POI and user, the pivot index
must report the same ``dist_RN(pos, rp_k)`` float the reference
dict-walking Dijkstra computes, so the index answers exactly as one
built on the reference searches would.
"""

import numpy as np
import pytest

from repro.datagen.scale import generate_grid_network
from repro.experiments.harness import DATASET_NAMES, build_dataset
from repro.index.pivots import select_pivots_road
from repro.roadnet.engines import CSREngine
from repro.roadnet.shortest_path import (
    multi_source_dijkstra,
    position_distance_from_map,
)


def positions_of(network):
    return [poi.position for poi in network.pois()] + [
        network.social.user(uid).home for uid in network.social.user_ids()
    ]


def pivot_fingerprint(network):
    engine = CSREngine(network.road)
    index = select_pivots_road(engine, 5, np.random.default_rng(7))
    return index.pivots, [index.distances(pos) for pos in positions_of(network)]


def reference_distances(network, pivots):
    road = network.road
    maps = [multi_source_dijkstra(road, [(p, 0.0)]) for p in pivots]
    return [
        [position_distance_from_map(road, dist_map, pos) for dist_map in maps]
        for pos in positions_of(network)
    ]


def assert_reference_parity(network):
    pivots, dists = pivot_fingerprint(network)
    # Lists of floats compare exactly: bit-identical, not approximate.
    assert dists == reference_distances(network, pivots)


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_section_6_1_datasets(dataset):
    assert_reference_parity(build_dataset(dataset, seed=7))


def test_grid_10k():
    assert_reference_parity(generate_grid_network(10_000, 1000, 1000, seed=7))
