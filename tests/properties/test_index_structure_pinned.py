"""The index structure, pinned through a maintained mutation stream.

The stream of ``test_index_bounds_pinned`` (a small UNI network, 150
seeded mutations of all five kinds, a flush every 10) runs through a
``DynamicIndexMaintainer``. After every flush, for both I_R and I_S, the
sha256 of the index's snapshot document (its tree skeleton, per-member
rows and parameters), its page count, height and ``describe()`` must
equal the recorded values, and so must six fixed issuers' answers and
page-access counts.

``index_structure_golden.json`` was written by an implementation that
kept each tree as node objects beside its columns; any other layout of
the tree must land on the same documents, the same page numbering and
the same answers. Regenerate with
``PYTHONPATH=src python tests/properties/test_index_structure_pinned.py``.
"""

import hashlib
import json
from pathlib import Path

from repro import GPSSNQuery, GPSSNQueryProcessor, uni_dataset
from repro.dynamic import DynamicIndexMaintainer, synthesize_mutations

GOLDEN_PATH = Path(__file__).with_name("index_structure_golden.json")

OPS = 150
FLUSH_EVERY = 10
ISSUERS = (0, 5, 11, 17, 26, 33)


def _index_record(index) -> dict:
    document = json.dumps(index.snapshot(), sort_keys=True)
    return {
        "snapshot": hashlib.sha256(document.encode()).hexdigest(),
        "num_pages": index.num_pages,
        "height": index.height,
        "describe": index.describe(),
    }


def _record(processor) -> dict:
    answers = []
    for uid in ISSUERS:
        answer, stats = processor.answer(GPSSNQuery(
            query_user=uid, tau=3, gamma=0.2, theta=0.2, radius=2.0,
        ))
        answers.append({
            "users": sorted(answer.users),
            "pois": sorted(answer.pois),
            "max_distance": answer.max_distance,
            "page_accesses": stats.page_accesses,
        })
    return {
        "road": _index_record(processor.road_index),
        "social": _index_record(processor.social_index),
        "answers": answers,
    }


def _run() -> dict:
    network = uni_dataset(
        num_road_vertices=60, num_pois=18, num_users=40, seed=21
    )
    processor = GPSSNQueryProcessor(
        network, num_road_pivots=3, num_social_pivots=3, seed=2,
        max_entries=4, leaf_size=4,
    )
    stream = list(synthesize_mutations(network, OPS, seed=6))
    maintainer = DynamicIndexMaintainer(processor, slack_threshold=10_000)
    flushes = [_record(processor)]
    for start in range(0, len(stream), FLUSH_EVERY):
        maintainer.apply_all(stream[start:start + FLUSH_EVERY])
        maintainer.flush()
        flushes.append(_record(processor))
    return {"ops": sorted({m.op for m in stream}), "flushes": flushes}


def test_structure_matches_golden():
    want = json.loads(GOLDEN_PATH.read_text())
    got = json.loads(json.dumps(_run(), sort_keys=True))
    assert got["ops"] == want["ops"] == [
        "add_friend", "add_poi", "move_user", "remove_friend", "remove_poi"
    ]
    assert len(got["flushes"]) == len(want["flushes"]) == OPS // FLUSH_EVERY + 1
    assert any(a["users"] for f in want["flushes"] for a in f["answers"])
    for step, (g, w) in enumerate(zip(got["flushes"], want["flushes"])):
        assert g == w, step


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_run(), sort_keys=True) + "\n")
