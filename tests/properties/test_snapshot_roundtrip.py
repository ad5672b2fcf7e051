"""Freeze → open → attach → refreeze invariants.

Two properties pin the frozen-arena contract:

* **byte-identical refreeze** — nothing in the file depends on object
  identity, construction order, or wall-clock time, so freezing an
  attached network reproduces the original file exactly (the property
  that makes the header hash a meaningful identity);
* **observable equivalence** — an attached processor answers exactly
  like the in-memory processor it was frozen from: same answers, same
  pruning counters, same page accesses. Dijkstra search / cache-hit
  counters are excluded on purpose — they measure oracle-cache warmth,
  not query semantics.
"""

import dataclasses

import pytest

from repro.core.query import GPSSNQuery
from repro.exceptions import SnapshotFormatError
from repro.experiments.harness import (
    ExperimentScale,
    build_dataset,
    make_processor,
    sample_query_users,
)
from repro.io.snapshot import FrozenSnapshot, _write_arena, freeze

SCALE = ExperimentScale(
    road_vertices=80, num_pois=25, num_users=60, max_groups=300
)
SEED = 5
ENGINES = ["csr"]


def _observable(answer, stats):
    return {
        "users": sorted(answer.users),
        "pois": sorted(answer.pois),
        "max_distance": round(answer.max_distance, 9),
        "found": answer.found,
        "pruning": dataclasses.asdict(stats.pruning),
        "page_accesses": stats.page_accesses,
        "candidate_users": stats.candidate_users,
        "candidate_pois": stats.candidate_pois,
    }


@pytest.fixture(scope="module", params=ENGINES)
def frozen_setup(request, tmp_path_factory):
    engine = request.param
    network = build_dataset("UNI", SCALE, seed=SEED)
    processor = make_processor(network, seed=SEED)
    path = tmp_path_factory.mktemp(f"rt_{engine}") / "net.gpsnap"
    freeze(network, path, processor=processor)
    return engine, network, processor, path


class TestRefreezeByteIdentical:
    def test_attach_refreeze_reproduces_file(self, frozen_setup, tmp_path):
        engine, _network, _processor, path = frozen_setup
        original = path.read_bytes()
        attached_net, attached_proc = FrozenSnapshot.open(path).attach()
        again = tmp_path / "again.gpsnap"
        freeze(attached_net, again, processor=attached_proc)
        assert again.read_bytes() == original, (
            f"refreeze of an attached {engine} network is not "
            f"byte-identical"
        )

    def test_refreeze_from_same_network_is_deterministic(
        self, frozen_setup, tmp_path
    ):
        _engine, network, processor, path = frozen_setup
        again = tmp_path / "refrozen.gpsnap"
        freeze(network, again, processor=processor)
        assert again.read_bytes() == path.read_bytes()


class TestAttachedEquivalence:
    def test_answers_pruning_and_pages_match(self, frozen_setup):
        _engine, network, processor, path = frozen_setup
        _attached_net, attached_proc = FrozenSnapshot.open(path).attach()
        for issuer in sample_query_users(network, 4, seed=1):
            for tau, radius in ((2, 1.5), (3, 2.0)):
                query = GPSSNQuery(query_user=issuer, tau=tau, radius=radius)
                expected = _observable(
                    *processor.answer(query, max_groups=SCALE.max_groups)
                )
                got = _observable(
                    *attached_proc.answer(query, max_groups=SCALE.max_groups)
                )
                assert got == expected

    def test_metadata_round_trips(self, frozen_setup):
        engine, network, _processor, path = frozen_setup
        frozen = FrozenSnapshot.open(path)
        attached_net, _ = frozen.attach()
        assert "distance_engine" not in frozen.meta
        assert not any(name.startswith("ch/") for name in frozen.sections)
        assert attached_net.distances.engine.name == engine
        assert attached_net.version == network.version
        assert attached_net.num_pois == network.num_pois
        assert attached_net.road.num_vertices == network.road.num_vertices
        assert attached_net.road.average_degree() == pytest.approx(
            network.road.average_degree()
        )


class TestIndexlessFreeze:
    def test_attach_without_indexes_fails(self, tmp_path):
        path = tmp_path / "net.gpsnap"
        freeze(build_dataset("UNI", SCALE, seed=SEED), path)
        frozen = FrozenSnapshot.open(path)
        sections = {
            name: arr for name, arr in frozen.sections.items()
            if not name.startswith("pivot/")
        }
        lean = tmp_path / "lean.gpsnap"
        _write_arena(lean, dict(frozen.meta, index=None), sections)
        with pytest.raises(SnapshotFormatError, match="without indexes"):
            FrozenSnapshot.open(lean).attach()
