"""Property tests: the ``dist_RN`` engine agrees with the reference Dijkstra.

The dict-walking Dijkstra functions of ``repro.roadnet.shortest_path``
are the correctness oracle; the CSR engine must reproduce them to
within floating-point noise (1e-9) on arbitrary road networks,
arbitrary on-edge positions, truncation bounds, and disconnected
pairs. Seeded CSR searches must reproduce them exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import NetworkPosition, RoadNetwork
from repro.datagen.synthetic import generate_road_network
from repro.roadnet.csr import CSRGraph
from repro.roadnet.engines import CSREngine
from repro.roadnet.shortest_path import multi_source_dijkstra
from tests.conftest import reference_point_to_point

ATOL = 1e-9


def random_positions(road, rng, count):
    edges = list(road.edges())
    out = []
    for _ in range(count):
        u, v, length = edges[int(rng.integers(len(edges)))]
        # Mix interior points with exact endpoints (offset 0 / length)
        # and reversed orientations — the historical trouble spots.
        roll = rng.random()
        if roll < 0.15:
            offset = 0.0
        elif roll < 0.3:
            offset = length
        else:
            offset = float(rng.random() * length)
        if rng.random() < 0.5:
            u, v, offset = v, u, length - offset
        out.append(NetworkPosition(u, v, offset))
    return out


def two_component_road(rng, half=12):
    """Two disjoint random road networks merged under one id space."""
    road = RoadNetwork()
    for component in range(2):
        part = generate_road_network(half, rng)
        base = component * half
        for vid in part.vertices():
            point = part.coords(vid)
            road.add_vertex(base + vid, point.x + component * 1000.0, point.y)
        for u, v, length in part.edges():
            road.add_edge(base + u, base + v, length)
    return road


class TestEngineAgreement:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_point_to_point_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        road = generate_road_network(50, rng)
        engine = CSREngine(road)
        for a, b in zip(
            random_positions(road, rng, 8), random_positions(road, rng, 8)
        ):
            want = reference_point_to_point(road, a, b)
            assert engine.point_to_point(a, b) == pytest.approx(
                want, abs=ATOL
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_disconnected_pairs_are_inf_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        road = two_component_road(rng)
        a = random_positions(road, rng, 1)[0]
        b = a
        while (b.u < 12) == (a.u < 12):  # resample until components differ
            b = random_positions(road, rng, 1)[0]
        assert math.isinf(reference_point_to_point(road, a, b))
        assert math.isinf(CSREngine(road).point_to_point(a, b))

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 500),
        bound=st.one_of(st.just(math.inf), st.floats(0.0, 60.0)),
        num_seeds=st.integers(1, 3),
        duplicate=st.booleans(),
        zero=st.booleans(),
        split=st.booleans(),
    )
    @example(seed=0, bound=math.inf, num_seeds=1, duplicate=False,
             zero=True, split=False)
    @example(seed=1, bound=math.inf, num_seeds=2, duplicate=False,
             zero=False, split=False)
    @example(seed=2, bound=25.0, num_seeds=3, duplicate=True,
             zero=True, split=False)
    @example(seed=3, bound=math.inf, num_seeds=3, duplicate=True,
             zero=False, split=True)
    def test_csr_sssp_matches_dict_kernel(
        self, seed, bound, num_seeds, duplicate, zero, split
    ):
        """The C search returns the reference Dijkstra's distances exactly:
        one C search from a virtual source adds the same weights in the
        same order as the heap, whatever the seeds look like."""
        rng = np.random.default_rng(seed)
        if split:
            road = two_component_road(rng, half=25)
        else:
            road = generate_road_network(50, rng)
        ids = list(road.vertices())
        seeds = [
            (ids[int(rng.integers(len(ids)))], float(rng.random() * 3))
            for _ in range(num_seeds)
        ]
        if duplicate:  # the same vertex again, at another offset
            seeds.append((seeds[0][0], float(rng.random() * 3)))
        if zero:
            seeds[-1] = (seeds[-1][0], 0.0)
        graph = CSRGraph(road)
        ours = graph.sssp(seeds, bound)
        assert graph.scipy_runs == int(any(d0 <= bound for _, d0 in seeds))
        assert dict(ours.items()) == multi_source_dijkstra(road, seeds, bound)

